//! Small synchronization primitives shared across the workspace, and the
//! one hand-off idiom every wait in the runtime follows:
//!
//! - readiness is an atomic, read without a lock: a [`WaitSignal`]'s
//!   sequence, a blocked call's answer flag;
//! - a waker takes the mutex and wakes the condvar — a futex syscall — only
//!   when a waiter has parked, so an event nobody sleeps on costs an atomic;
//! - only a caller on its own critical path yields before it parks: a
//!   client blocked on a call's answer, for a window about one round trip
//!   long (unless its latency profile puts the answer past the window), and
//!   a wait for a modelled instant, for its last
//!   [`SPIN_MARGIN`](crate::SPIN_MARGIN) ([`WaitSignal::wait_until`]). A
//!   reactor with nothing due parks at once;
//! - a thread that waits for a modelled instant runs with a 1 ns timer
//!   slack, set once per thread, so its timed park ends within the
//!   scheduler's wakeup latency of the margin and the yielding tail stays
//!   short.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::time::{park_before, yield_until};

/// A monotonically increasing event counter paired with a condvar — the
/// workspace's "poll_wait idiom". Waiters snapshot the sequence with
/// [`WaitSignal::current`], re-check their own condition, then park in
/// [`WaitSignal::wait`] until the sequence moves past the snapshot (an event
/// bumped it after the snapshot was taken) or a timeout elapses. Because the
/// snapshot happens *before* the re-check, an event landing between the
/// check and the park wakes the waiter immediately — no lost wakeups, no
/// busy polling.
///
/// The sequence is an atomic, so a snapshot takes no lock, and a bump takes
/// the mutex and wakes the condvar only while a waiter is parked: a signal
/// nobody waits on costs one atomic add per event.
///
/// Why no wakeup is lost: a waiter registers itself (`waiters += 1`) and
/// then re-reads `seq`, both under the mutex; a bumper adds to `seq` and
/// then reads `waiters`. All four accesses are `SeqCst`, so they fall into
/// one total order, and either the waiter's register comes first — then
/// the bumper sees a parked waiter, takes the mutex (which the waiter holds
/// until the condvar wait releases it) and notifies — or the bumper's read
/// comes first, and then its add precedes the waiter's re-read, which sees
/// the new sequence and does not park.
///
/// Used by the broker's per-partition append signals and the runtime's
/// recovery-resume signal. (std primitives, not parking_lot: a `Condvar`
/// must pair with a `std::sync::Mutex`; poisoning is absorbed.)
#[derive(Debug, Default)]
pub struct WaitSignal {
    seq: AtomicU64,
    /// Waiters between registering under `lock` and leaving `wait`.
    waiters: AtomicUsize,
    lock: std::sync::Mutex<()>,
    cond: std::sync::Condvar,
}

impl WaitSignal {
    /// Creates a signal at sequence zero.
    pub fn new() -> Self {
        WaitSignal::default()
    }

    /// The current event sequence; pass it to [`WaitSignal::wait`] to park
    /// until the next event. One atomic load.
    pub fn current(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Records an event: bumps the sequence and wakes every parked waiter,
    /// if there is one.
    pub fn bump(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the mutex orders the notify after a registered waiter
            // has entered the condvar wait (or left `wait` altogether).
            drop(
                self.lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            self.cond.notify_all();
        }
    }

    /// Blocks until the sequence moves past `seen` or `timeout` elapses.
    pub fn wait(&self, seen: u64, timeout: Duration) {
        if self.current() != seen {
            return;
        }
        let deadline = Instant::now() + timeout;
        let mut guard = self
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while self.seq.load(Ordering::SeqCst) == seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, result) = self
                .cond
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = next;
            if result.timed_out() {
                break;
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until the sequence moves past `seen` or the real-time
    /// [`mono_now`](crate::mono_now) timeline reaches `due` — a modelled
    /// instant, not a timeout. Parks until
    /// [`SPIN_MARGIN`](crate::SPIN_MARGIN) before `due` (under the 1 ns
    /// timer slack the park sets for this thread), then yields the thread
    /// until `due` passes, so the wait ends within a scheduling quantum of
    /// `due` instead of a timer's slack after it. A bump in
    /// either phase ends it at once. (A thread under a virtual clock paces
    /// to its instants instead: [`pace_until`](crate::pace_until).)
    pub fn wait_until(&self, seen: u64, due: Duration) {
        let park = park_before(due);
        if !park.is_zero() {
            self.wait(seen, park);
        }
        yield_until(due, || self.current() != seen);
    }
}

/// One wakeup signal shared by a *group* of event sources.
///
/// A consumer thread that owns several queue partitions used to park on one
/// member's append signal at a time, rotating each idle slice — so an append
/// to any *other* member waited out up to a full slice before being seen. A
/// `WaitSignalGroup` closes that: every member source holds a reference to
/// the same group and calls [`WaitSignalGroup::notify`] when it has an
/// event, and the single waiter parks once on the shared condvar, waking
/// immediately whichever member fired.
///
/// The waiting protocol is the same lost-wakeup-free `poll_wait` idiom as
/// [`WaitSignal`]: snapshot [`WaitSignalGroup::current`], re-check every
/// member's condition, then park in [`WaitSignalGroup::wait`]. An event on
/// any member between the snapshot and the park wakes the waiter at once.
///
/// Membership is tracked as a plain counter ([`WaitSignalGroup::join`] /
/// [`WaitSignalGroup::leave`]): the broker uses it so partition retirement
/// can assert a retired partition really left its consumer's wait group.
#[derive(Debug, Default)]
pub struct WaitSignalGroup {
    signal: WaitSignal,
    members: AtomicUsize,
}

impl WaitSignalGroup {
    /// Creates an empty group at sequence zero.
    pub fn new() -> Self {
        WaitSignalGroup::default()
    }

    /// The current event sequence across every member; pass it to
    /// [`WaitSignalGroup::wait`] to park until the next member event.
    pub fn current(&self) -> u64 {
        self.signal.current()
    }

    /// Records an event on one member: bumps the shared sequence and wakes
    /// the parked waiter(s).
    pub fn notify(&self) {
        self.signal.bump();
    }

    /// Blocks until any member records an event past `seen`, or `timeout`
    /// elapses.
    pub fn wait(&self, seen: u64, timeout: Duration) {
        self.signal.wait(seen, timeout);
    }

    /// Blocks until any member records an event past `seen`, or the
    /// [`mono_now`](crate::mono_now) timeline reaches `due`; see
    /// [`WaitSignal::wait_until`].
    pub fn wait_until(&self, seen: u64, due: Duration) {
        self.signal.wait_until(seen, due);
    }

    /// Registers one member source.
    pub fn join(&self) {
        self.members.fetch_add(1, Ordering::SeqCst);
    }

    /// Deregisters one member source and wakes the waiter so it re-checks
    /// its (now smaller) member set.
    pub fn leave(&self) {
        self.members.fetch_sub(1, Ordering::SeqCst);
        self.signal.bump();
    }

    /// Number of member sources currently joined.
    pub fn member_count(&self) -> usize {
        self.members.load(Ordering::SeqCst)
    }
}

/// A list read on every pass of a hot loop and changed rarely: a reader
/// takes an `Arc` snapshot of the whole list — one reference-count bump
/// under a read lock, no allocation — and walks it with no lock held; a
/// writer copies the list, changes the copy and publishes it. A reader
/// holding an older snapshot keeps seeing the list as it was when it took
/// it.
#[derive(Debug)]
pub struct SnapshotVec<T> {
    current: std::sync::RwLock<Arc<Vec<T>>>,
}

impl<T> Default for SnapshotVec<T> {
    fn default() -> Self {
        SnapshotVec {
            current: std::sync::RwLock::new(Arc::new(Vec::new())),
        }
    }
}

impl<T: Clone> SnapshotVec<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        SnapshotVec::default()
    }

    /// The list as it is now.
    pub fn load(&self) -> Arc<Vec<T>> {
        Arc::clone(
            &self
                .current
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Changes the list with `change` and publishes the result. Writers are
    /// serialized; readers are never blocked for longer than the publish.
    pub fn update<R>(&self, change: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let mut current = self
            .current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut next = Vec::clone(&current);
        let result = change(&mut next);
        *current = Arc::new(next);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SPIN_MARGIN;

    #[test]
    fn wait_returns_on_bump_and_on_timeout() {
        let signal = Arc::new(WaitSignal::new());
        assert_eq!(signal.current(), 0);

        // Timeout path: nothing bumps, wait returns after the deadline.
        let t0 = Instant::now();
        signal.wait(signal.current(), Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(10));

        // Wakeup path: a concurrent bump releases the waiter early.
        let seen = signal.current();
        let bumper = signal.clone();
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            bumper.bump();
        });
        let t0 = Instant::now();
        signal.wait(seen, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(2));
        thread.join().unwrap();
        assert_eq!(signal.current(), 1);
    }

    #[test]
    fn bump_before_wait_returns_immediately() {
        let signal = WaitSignal::new();
        let seen = signal.current();
        signal.bump();
        let t0 = Instant::now();
        signal.wait(seen, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn two_threads_ping_pong_without_a_lost_wakeup() {
        // Each side parks on its own signal until the other bumps it; a lost
        // wakeup would leave one side parked for the whole timeout.
        const ROUNDS: u64 = 100_000;
        const TIMEOUT: Duration = Duration::from_secs(10);
        let ping = Arc::new(WaitSignal::new());
        let pong = Arc::new(WaitSignal::new());
        let answer = |inbox: Arc<WaitSignal>, outbox: Arc<WaitSignal>, serves: bool| {
            std::thread::spawn(move || {
                let mut slowest = Duration::ZERO;
                for round in 0..ROUNDS {
                    if serves {
                        outbox.bump();
                    }
                    let t0 = Instant::now();
                    inbox.wait(round, TIMEOUT);
                    slowest = slowest.max(t0.elapsed());
                    assert_eq!(inbox.current(), round + 1, "round {round}");
                    if !serves {
                        outbox.bump();
                    }
                }
                slowest
            })
        };
        let server = answer(Arc::clone(&pong), Arc::clone(&ping), true);
        let client = answer(ping, pong, false);
        for side in [server, client] {
            let slowest = side.join().unwrap();
            assert!(
                slowest < TIMEOUT,
                "a round waited out its timeout: {slowest:?}"
            );
        }
    }

    #[test]
    fn group_wakes_on_any_member_and_tracks_membership() {
        let group = Arc::new(WaitSignalGroup::new());
        group.join();
        group.join();
        assert_eq!(group.member_count(), 2);

        // An event on "some member" wakes the single parked waiter.
        let seen = group.current();
        let notifier = group.clone();
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            notifier.notify();
        });
        let t0 = Instant::now();
        group.wait(seen, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(2));
        thread.join().unwrap();

        // A notify between the snapshot and the park is not lost.
        let seen = group.current();
        group.notify();
        let t0 = Instant::now();
        group.wait(seen, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_millis(100));

        // Leaving wakes the waiter (so it re-checks its member set) and
        // shrinks the count.
        let seen = group.current();
        group.leave();
        let t0 = Instant::now();
        group.wait(seen, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(group.member_count(), 1);
    }

    #[test]
    fn a_snapshot_outlives_the_updates_after_it() {
        let list = SnapshotVec::new();
        list.update(|items| items.extend([1, 2]));
        let before = list.load();
        let removed = list.update(|items| items.remove(0));
        assert_eq!(removed, 1);
        assert_eq!(*before, vec![1, 2], "a taken snapshot never changes");
        assert_eq!(*list.load(), vec![2]);
        assert!(
            Arc::ptr_eq(&list.load(), &list.load()),
            "loads share one list"
        );
    }

    #[test]
    fn group_wait_times_out_when_idle() {
        let group = WaitSignalGroup::new();
        let t0 = Instant::now();
        group.wait(group.current(), Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn wait_until_never_returns_before_its_due() {
        // Distances below, at and above the margin: all yield, or park and
        // then yield.
        let signal = WaitSignal::new();
        for wait in 0..300u64 {
            let due = crate::mono_now() + Duration::from_micros(50 + wait * 7 % 700);
            signal.wait_until(signal.current(), due);
            let now = crate::mono_now();
            assert!(now >= due, "wait {wait} returned {:?} early", due - now);
        }
    }

    #[test]
    fn wait_until_a_past_due_returns_at_once() {
        let signal = WaitSignal::new();
        let t0 = Instant::now();
        signal.wait_until(signal.current(), Duration::ZERO);
        signal.wait_until(signal.current(), crate::mono_now());
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    /// Two threads bump each other's signal and wait for their own with
    /// `wait_until(round, now + due_in)`, as in
    /// [`two_threads_ping_pong_without_a_lost_wakeup`]. Returns, per side,
    /// how many of its waits a bump ended before their due. A wait that
    /// runs to its due is followed by a plain wait for the bump, so the
    /// sides stay in step; with `stop_when_late` a side stops there instead.
    fn ping_pong_until(rounds: u64, due_in: Duration, stop_when_late: bool) -> [u64; 2] {
        const TIMEOUT: Duration = Duration::from_secs(10);
        let ping = Arc::new(WaitSignal::new());
        let pong = Arc::new(WaitSignal::new());
        let late = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let answer = |inbox: Arc<WaitSignal>, outbox: Arc<WaitSignal>, serves: bool| {
            let late = Arc::clone(&late);
            std::thread::spawn(move || {
                let mut early = 0;
                for round in 0..rounds {
                    if serves {
                        outbox.bump();
                    }
                    let due = crate::mono_now() + due_in;
                    inbox.wait_until(round, due);
                    if crate::mono_now() < due {
                        early += 1;
                    } else if stop_when_late {
                        late.store(true, Ordering::SeqCst);
                    } else {
                        inbox.wait(round, TIMEOUT);
                    }
                    if !late.load(Ordering::SeqCst) {
                        assert_eq!(inbox.current(), round + 1, "round {round}");
                    }
                    if !serves {
                        outbox.bump();
                    }
                    if late.load(Ordering::SeqCst) {
                        // Let the other side's wait end, and stop.
                        outbox.bump();
                        break;
                    }
                }
                early
            })
        };
        let server = answer(Arc::clone(&pong), Arc::clone(&ping), true);
        let client = answer(ping, pong, false);
        [server.join().unwrap(), client.join().unwrap()]
    }

    #[test]
    fn wait_until_returns_on_a_bump_while_parked() {
        // A due far away: every wait is in its parked phase when the bump
        // lands, and must end then, not at its due.
        const ROUNDS: u64 = 1_000;
        let early = ping_pong_until(ROUNDS, Duration::from_secs(5), true);
        assert_eq!(early, [ROUNDS, ROUNDS], "a wait ran to its due");
    }

    #[test]
    fn wait_until_returns_on_a_bump_while_yielding() {
        // A due no further than the margin: a wait never parks, and the
        // other side's bump lands while it yields. A partner preempted for
        // longer than the margin lets a wait run to its due — on an idle
        // 2-core host none do, with two CPU hogs beside the test ~78 % do
        // — but a yield that ignored the sequence would let every one.
        const ROUNDS: u64 = 2_000;
        let early = ping_pong_until(ROUNDS, SPIN_MARGIN, false);
        for side in early {
            assert!(
                side >= ROUNDS / 20,
                "only {side} of {ROUNDS} waits ended on a bump"
            );
        }
    }

    #[test]
    fn group_wait_until_wakes_on_a_member_event() {
        let group = Arc::new(WaitSignalGroup::new());
        let seen = group.current();
        let notifier = Arc::clone(&group);
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            notifier.notify();
        });
        let t0 = Instant::now();
        group.wait_until(seen, crate::mono_now() + Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(2));
        thread.join().unwrap();
    }
}
