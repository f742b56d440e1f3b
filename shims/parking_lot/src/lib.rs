//! Offline shim for [`parking_lot`](https://crates.io/crates/parking_lot).
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the (small) subset of the parking_lot API the workspace uses —
//! non-poisoning [`Mutex`] and [`RwLock`] — implemented on top of
//! `std::sync`. Poisoned locks are recovered transparently, matching
//! parking_lot's semantics of not propagating panics through locks.
//!
//! Swap this path dependency for the real crate once the build environment
//! can reach a registry; no source changes are required.
//!
//! With the `count` feature, every acquisition can be counted per call site
//! (the `count` module): the instrument behind the workspace's per-call
//! lock budget.

#![forbid(unsafe_code)]

use std::sync::{self};

#[cfg(feature = "count")]
pub mod count;

/// `result` of a non-blocking acquisition as an `Option`, poisoning
/// absorbed.
fn acquired<G>(result: sync::TryLockResult<G>) -> Option<G> {
    match result {
        Ok(guard) => Some(guard),
        Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(sync::TryLockError::WouldBlock) => None,
    }
}

/// While counting, records a blocking acquisition at the caller's site:
/// tries `attempt` first, and counts it contended if that failed. Returns
/// the guard the attempt got.
#[cfg(feature = "count")]
#[track_caller]
fn counted<G>(attempt: impl FnOnce() -> sync::TryLockResult<G>) -> Option<G> {
    if !count::on() {
        return None;
    }
    let guard = acquired(attempt());
    count::record(std::panic::Location::caller(), guard.is_none(), false);
    guard
}

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A non-poisoning mutual exclusion lock (API-compatible subset of
/// `parking_lot::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available. Unlike
    /// `std::sync::Mutex`, a panic in another thread never poisons the lock.
    #[cfg_attr(feature = "count", track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "count")]
        if let Some(guard) = counted(|| self.inner.try_lock()) {
            return guard;
        }
        self.inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Attempts to acquire the lock without blocking.
    #[cfg_attr(feature = "count", track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = acquired(self.inner.try_lock());
        #[cfg(feature = "count")]
        if count::on() {
            count::record(std::panic::Location::caller(), guard.is_none(), true);
        }
        guard
    }

    /// Returns a mutable reference to the protected value (no locking needed:
    /// the exclusive borrow proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// A non-poisoning reader-writer lock (API-compatible subset of
/// `parking_lot::RwLock`).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    #[cfg_attr(feature = "count", track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "count")]
        if let Some(guard) = counted(|| self.inner.try_read()) {
            return guard;
        }
        self.inner
            .read()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Acquires exclusive write access, blocking until available.
    #[cfg_attr(feature = "count", track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "count")]
        if let Some(guard) = counted(|| self.inner.try_write()) {
            return guard;
        }
        self.inner
            .write()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: the lock is usable after a panic.
        assert_eq!(*m.lock(), 0);
    }

    #[cfg(feature = "count")]
    #[test]
    fn counting_records_each_site_and_its_contention() {
        let first = line!();
        let m = Mutex::new(0);
        let l = RwLock::new(0);
        crate::count::start();
        for _ in 0..3 {
            *m.lock() += 1;
        }
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        let _ = *l.read();
        crate::count::stop();
        drop(m.lock());
        let last = line!();
        // Only this test's sites: others may run beside it.
        let here: Vec<_> = crate::count::sites()
            .into_iter()
            .filter(|(site, _)| site.file().ends_with("lib.rs"))
            .filter(|(site, _)| (first..last).contains(&site.line()))
            .map(|(_, tally)| (tally.acquisitions, tally.contended, tally.tries))
            .collect();
        assert_eq!(here, [(3, 0, 0), (1, 0, 0), (1, 1, 1), (1, 0, 0)]);
    }
}
