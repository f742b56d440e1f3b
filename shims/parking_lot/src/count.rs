//! Lock acquisitions counted per call site: the `count` feature.
//!
//! While counting is on ([`start`]), every [`Mutex`](crate::Mutex) and
//! [`RwLock`](crate::RwLock) acquisition — and every `try_lock` — is
//! recorded against the source line that asked for it (`#[track_caller]`),
//! in a table of the acquiring thread's own; [`sites`] sums the threads'
//! tables. An acquisition that found the lock held is *contended* (a failed
//! `try_lock` counts as one); `try_lock`s are also tallied apart, since a
//! sweep that tries every lane is not a caller waiting. While counting is
//! off, an acquisition costs one relaxed atomic load more than without the
//! feature.

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// What one call site acquired while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Acquisitions, successful or not.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held: they waited, or (a
    /// `try_lock`) gave up.
    pub contended: u64,
    /// Acquisitions that were `try_lock`s.
    pub tries: u64,
}

type Table = HashMap<&'static Location<'static>, Tally>;

static ON: AtomicBool = AtomicBool::new(false);
/// Every thread's table, registered on the thread's first recorded
/// acquisition. (std locks: the counter does not count itself.)
static TABLES: Mutex<Vec<Arc<Mutex<Table>>>> = Mutex::new(Vec::new());

thread_local! {
    static TABLE: Arc<Mutex<Table>> = {
        let table = Arc::default();
        TABLES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&table));
        table
    };
}

/// Clears every table and starts counting.
pub fn start() {
    for table in TABLES.lock().unwrap_or_else(PoisonError::into_inner).iter() {
        table.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
    ON.store(true, Ordering::SeqCst);
}

/// Stops counting; the tables keep what was counted.
pub fn stop() {
    ON.store(false, Ordering::SeqCst);
}

/// Every site counted since the last [`start`], busiest first.
pub fn sites() -> Vec<(&'static Location<'static>, Tally)> {
    let mut sum: Table = HashMap::new();
    for table in TABLES.lock().unwrap_or_else(PoisonError::into_inner).iter() {
        for (site, tally) in table.lock().unwrap_or_else(PoisonError::into_inner).iter() {
            let total = sum.entry(site).or_default();
            total.acquisitions += tally.acquisitions;
            total.contended += tally.contended;
            total.tries += tally.tries;
        }
    }
    let mut sites: Vec<_> = sum.into_iter().collect();
    sites.sort_by(|a, b| {
        b.1.acquisitions
            .cmp(&a.1.acquisitions)
            .then_with(|| (a.0.file(), a.0.line()).cmp(&(b.0.file(), b.0.line())))
    });
    sites
}

pub(crate) fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

pub(crate) fn record(site: &'static Location<'static>, contended: bool, tried: bool) {
    let _ = TABLE.try_with(|table| {
        let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
        let tally = table.entry(site).or_default();
        tally.acquisitions += 1;
        tally.contended += u64::from(contended);
        tally.tries += u64::from(tried);
    });
}
