//! Settled-prefix tracking: which records of a component's *home* partitions
//! nothing can ever need again, so the partition log can be trimmed up to
//! them instead of retaining every record for the whole retention window.
//!
//! Every record polled from a home partition is *open* until it settles; a
//! partition's trim watermark is `min(consumed offset, lowest open offset)`,
//! so the log only ever loses a fully settled prefix ("expire the oldest in
//! bulk", §4.1 — the cut is chosen by knowledge instead of by age).
//!
//! # Invariants
//!
//! 1. **A request record is trimmed only after its completion record is
//!    durably acknowledged.** Routing opens the record under its request id
//!    in a side table; the completion path *takes* that entry when it
//!    enqueues the response, the tail-call successor, the forward or the
//!    retry copy, and *closes* it only once that append is acknowledged (a
//!    finished `tell` has no completion record and closes when it finishes).
//!    A retry copy whose append failed hands the entry back, and the
//!    failure's response settles the record. Anything the tracker does not
//!    understand — a request still deferred, waiting out a backoff, parked
//!    on a continuation or mailboxed; a duplicate of an id already open
//!    here; a completion that could not be routed or whose append failed
//!    for good; every record of an *adopted* partition —
//!    simply stays open and falls back to time retention, exactly the
//!    behaviour before trimming existed.
//! 2. **A response record is trimmed only after it was consumed *and* no
//!    record of the request it answers remains in any log**: its
//!    [`RecordOrigin`] names the request's only record, and it closes once
//!    that partition's low watermark has passed the origin's offset. A
//!    response without an origin is never trimmed early. This keeps
//!    reconciliation's rule "a request with a matching response is
//!    complete" true for every request record still present: trimming the
//!    response first would let a later recovery re-home — and re-execute — a
//!    request that already completed, or defer a caller forever on a
//!    response no survivor holds.
//! 3. **Memory is never bounded by lowering `max_partition_records` or
//!    `retention`**: size- or age-based expiry can drop an *unsettled*
//!    request, which is the one thing a reliable queue must not do.
//!
//! Trims are issued from the component's `pump` (in batches: once
//! [`SWEEP_EVENTS`] records settled) and `tick` (whatever settled) — never
//! from a thread of their own — so deterministic-simulation replays stay
//! bit-for-bit, and through the component's fenced producer, so a component
//! declared failed can no longer delete what reconciliation is cataloguing.
//!
//! Progress: a response waits for its origin's partition to be trimmed,
//! which waits for every older record of that partition, some of them
//! responses waiting on third partitions. Every such edge points at a
//! strictly *older* record, so the waits cannot form a cycle — provided
//! every partition eventually trims whatever prefix it can, however short.
//! That is why the tick sweep has no minimum batch: with one, two components
//! calling each other pin each other's logs until time retention.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kar_queue::Record;
use kar_types::{Envelope, RecordOrigin, RequestId};

/// A pump-driven sweep runs once this many records settled (or responses
/// were consumed) since the last one; the timer tick sweeps regardless.
/// Bounds a busy home partition to a few batches of settled-but-untrimmed
/// records while keeping the sweep and the trims off the per-invocation
/// path.
const SWEEP_EVENTS: u64 = 64;

/// Settle state of one home partition.
#[derive(Default)]
struct PartitionSettle {
    /// Every record below this offset has been routed (and opened below).
    consumed: u64,
    /// Routed, unsettled records. A request record carries the id whose
    /// side-table entry points back at it; responses and duplicates carry
    /// `None`.
    open: BTreeMap<u64, Option<RequestId>>,
    /// Consumed responses waiting for their origin to be trimmed: per origin
    /// partition, `(origin offset, own offset)` — so one sweep reads each
    /// origin partition's low watermark once and closes a prefix.
    awaiting: BTreeMap<usize, BTreeSet<(u64, u64)>>,
    /// Records the log dropped on this tracker's behalf.
    trimmed: u64,
}

#[derive(Default)]
struct Inner {
    /// Home partitions in ascending order (sweeps must not depend on hash
    /// order: they run inside deterministic simulations).
    partitions: BTreeMap<usize, PartitionSettle>,
    /// The side table: the record each open request id was polled from.
    requests: HashMap<RequestId, RecordOrigin>,
}

/// One line of `debug_report()`: why is this log (not) shrinking.
pub(crate) struct SettleSnapshot {
    pub(crate) partition: usize,
    pub(crate) open: usize,
    pub(crate) trimmed: u64,
}

/// The settle tracker of one component (see the module docs).
pub(crate) struct SettleTracker {
    inner: Mutex<Inner>,
    /// Settle events since the last sweep; lets `pump` skip the lock.
    events: AtomicU64,
}

impl SettleTracker {
    pub(crate) fn new(home: &[usize]) -> Self {
        let partitions = home
            .iter()
            .map(|partition| (*partition, PartitionSettle::default()))
            .collect();
        SettleTracker {
            inner: Mutex::new(Inner {
                partitions,
                requests: HashMap::new(),
            }),
            events: AtomicU64::new(0),
        }
    }

    /// Opens every record of one polled batch, *before* any of them is
    /// handed on, and advances the partition's consumed offset past the
    /// batch. No-op for partitions that are not home partitions.
    pub(crate) fn routed(&self, partition: usize, records: &[Record<Arc<Envelope>>]) {
        let Some(last) = records.last() else { return };
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(part) = inner.partitions.get_mut(&partition) else {
            return;
        };
        let mut responses = 0;
        for record in records {
            let offset = record.offset;
            if offset < part.consumed {
                // Redelivered (a consumer-side gray failure): already opened,
                // possibly already settled.
                continue;
            }
            match record.payload.as_ref() {
                Envelope::Request(request) => {
                    // A second record of an id still open here is a
                    // duplicate the completion path knows nothing about: it
                    // stays open.
                    let tracked = match inner.requests.entry(request.id) {
                        Entry::Vacant(slot) => {
                            slot.insert(RecordOrigin { partition, offset });
                            Some(request.id)
                        }
                        Entry::Occupied(_) => None,
                    };
                    part.open.insert(offset, tracked);
                }
                Envelope::Response(response) => {
                    part.open.insert(offset, None);
                    if let Some(origin) = response.origin {
                        part.awaiting
                            .entry(origin.partition)
                            .or_default()
                            .insert((origin.offset, offset));
                        responses += 1;
                    }
                }
            }
        }
        part.consumed = part.consumed.max(last.offset + 1);
        drop(guard);
        if responses > 0 {
            self.events.fetch_add(responses, Ordering::Relaxed);
        }
    }

    /// Takes the side-table entry of request `id`: the caller is about to
    /// append the request's completion record and will close the returned
    /// record ([`Self::close_all`]) once that append is acknowledged. `None` when the
    /// request was not polled from a home partition (or was taken already).
    pub(crate) fn take(&self, id: RequestId) -> Option<RecordOrigin> {
        self.inner.lock().requests.remove(&id)
    }

    /// Returns the entry [`Self::take`] gave out for request `id`: the append
    /// it was taken for failed (a retry copy), and the request's next
    /// completion settles the record instead.
    pub(crate) fn hand_back(&self, id: RequestId, record: Option<RecordOrigin>) {
        if let Some(record) = record {
            self.inner.lock().requests.insert(id, record);
        }
    }

    /// Settles request records: their completions rode one acknowledged
    /// append and are durable.
    pub(crate) fn close_all(&self, records: &[RecordOrigin]) {
        if records.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        for record in records {
            if let Some(part) = inner.partitions.get_mut(&record.partition) {
                part.open.remove(&record.offset);
            }
        }
        drop(inner);
        self.events
            .fetch_add(records.len() as u64, Ordering::Relaxed);
    }

    /// Settles request `id` on the spot (a finished `tell`: there is no
    /// completion record to wait for).
    pub(crate) fn settle_now(&self, id: RequestId) {
        self.close_all(self.take(id).as_slice());
    }

    /// True once enough records settled since the last sweep for a
    /// pump-driven sweep to be worth its lock.
    pub(crate) fn sweep_due(&self) -> bool {
        self.events.load(Ordering::Relaxed) >= SWEEP_EVENTS
    }

    /// One sweep: forgets records the log already dropped by itself
    /// (retention, truncation), closes consumed responses whose origin has
    /// been trimmed, and returns `(partition, watermark)` for every home
    /// partition whose settled prefix grew. `log_start` reads a partition's
    /// low watermark. The caller issues the trims (outside this
    /// tracker's lock) and reports each result through [`Self::trimmed`].
    pub(crate) fn sweep(&self, log_start: impl Fn(usize) -> u64) -> Vec<(usize, u64)> {
        self.events.store(0, Ordering::Relaxed);
        let mut guard = self.inner.lock();
        let Inner {
            partitions,
            requests,
        } = &mut *guard;
        let mut trims = Vec::new();
        for (&partition, part) in partitions {
            let start = log_start(partition);
            if part.open.first_key_value().is_some_and(|(&o, _)| o < start) {
                let live = part.open.split_off(&start);
                for (offset, id) in std::mem::replace(&mut part.open, live) {
                    let Some(id) = id else { continue };
                    // Only forget the entry if it still points at the
                    // dropped record (a later copy may have re-opened the id).
                    if requests.get(&id) == Some(&RecordOrigin { partition, offset }) {
                        requests.remove(&id);
                    }
                }
            }
            for (&origin, waiting) in &mut part.awaiting {
                let still_waiting = waiting.split_off(&(log_start(origin), 0));
                for (_, own) in std::mem::replace(waiting, still_waiting) {
                    part.open.remove(&own);
                }
            }
            part.awaiting.retain(|_, waiting| !waiting.is_empty());
            let watermark = part
                .open
                .first_key_value()
                .map_or(part.consumed, |(&lowest, _)| lowest.min(part.consumed));
            if watermark > start {
                trims.push((partition, watermark));
            }
        }
        trims
    }

    /// Records that the log dropped `count` records for a trim this tracker
    /// asked for.
    pub(crate) fn trimmed(&self, partition: usize, count: usize) {
        if let Some(part) = self.inner.lock().partitions.get_mut(&partition) {
            part.trimmed += count as u64;
        }
    }

    /// Forgets everything, partitions included (the component was killed:
    /// the tracker is in-memory state, and a dead component must never trim
    /// again — a sweep racing the kill finds no partition to trim, where
    /// merely emptied open sets would read as "everything settled").
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.requests.clear();
        inner.partitions.clear();
    }

    /// Per home partition, in partition order: open records and records
    /// trimmed so far.
    pub(crate) fn snapshot(&self) -> Vec<SettleSnapshot> {
        self.inner
            .lock()
            .partitions
            .iter()
            .map(|(&partition, part)| SettleSnapshot {
                partition,
                open: part.open.len(),
                trimmed: part.trimmed,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_types::{ActorRef, RequestMessage, ResponseMessage, Value};
    use std::cell::RefCell;
    use std::time::Duration;

    fn record(offset: u64, envelope: Envelope) -> Record<Arc<Envelope>> {
        Record {
            offset,
            appended_at: Duration::ZERO,
            payload: Arc::new(envelope),
        }
    }

    fn request(offset: u64, id: u64) -> Record<Arc<Envelope>> {
        let message = RequestMessage::root(
            RequestId::from_raw(id),
            ActorRef::new("A", "a"),
            "m",
            Vec::new(),
        );
        record(offset, Envelope::Request(message))
    }

    fn response(offset: u64, id: u64, origin: Option<(usize, u64)>) -> Record<Arc<Envelope>> {
        let mut message = ResponseMessage::ok(RequestId::from_raw(id), None, Value::Null);
        message.origin = origin.map(|(partition, offset)| RecordOrigin { partition, offset });
        record(offset, Envelope::Response(message))
    }

    /// A stand-in for the broker's low watermarks.
    struct Starts(RefCell<HashMap<usize, u64>>);

    impl Starts {
        fn new() -> Self {
            Starts(RefCell::new(HashMap::new()))
        }
        fn set(&self, partition: usize, start: u64) {
            self.0.borrow_mut().insert(partition, start);
        }
        fn sweep(&self, tracker: &SettleTracker) -> Vec<(usize, u64)> {
            let trims = tracker.sweep(|p| self.0.borrow().get(&p).copied().unwrap_or(0));
            for &(partition, watermark) in &trims {
                self.set(partition, watermark);
            }
            trims
        }
    }

    fn requests(range: std::ops::Range<u64>) -> Vec<Record<Arc<Envelope>>> {
        range.map(|offset| request(offset, 1000 + offset)).collect()
    }

    #[test]
    fn the_watermark_is_the_lowest_open_record() {
        let tracker = SettleTracker::new(&[3]);
        let starts = Starts::new();
        tracker.routed(3, &requests(0..2 * SWEEP_EVENTS));
        // Everything routed, nothing settled: nothing to trim.
        assert!(starts.sweep(&tracker).is_empty());
        // Settle all but the very first record: the prefix is still empty.
        for offset in 1..2 * SWEEP_EVENTS {
            let taken = tracker.take(RequestId::from_raw(1000 + offset)).unwrap();
            assert_eq!(
                taken,
                RecordOrigin {
                    partition: 3,
                    offset
                }
            );
            tracker.close_all(&[taken]);
        }
        assert!(tracker.sweep_due());
        assert!(starts.sweep(&tracker).is_empty());
        assert!(!tracker.sweep_due(), "a sweep resets the event count");
        // The first record settles: the whole consumed range goes at once.
        tracker.settle_now(RequestId::from_raw(1000));
        assert_eq!(starts.sweep(&tracker), vec![(3, 2 * SWEEP_EVENTS)]);
        // Nothing new settled: nothing to ask for.
        assert!(starts.sweep(&tracker).is_empty());
        // A sweep takes whatever prefix there is, however short.
        tracker.routed(3, &requests(2 * SWEEP_EVENTS..2 * SWEEP_EVENTS + 2));
        tracker.settle_now(RequestId::from_raw(1000 + 2 * SWEEP_EVENTS));
        assert!(!tracker.sweep_due());
        assert_eq!(starts.sweep(&tracker), vec![(3, 2 * SWEEP_EVENTS + 1)]);
        assert_eq!(tracker.snapshot()[0].open, 1);
    }

    #[test]
    fn only_home_partitions_are_tracked() {
        let tracker = SettleTracker::new(&[0]);
        tracker.routed(7, &requests(0..4));
        assert_eq!(tracker.take(RequestId::from_raw(1000)), None);
        assert_eq!(tracker.snapshot().len(), 1);
        assert_eq!(tracker.snapshot()[0].open, 0);
    }

    #[test]
    fn a_duplicate_of_an_open_id_stays_open() {
        let tracker = SettleTracker::new(&[0]);
        let starts = Starts::new();
        let mut batch = vec![request(0, 7), request(1, 7)];
        batch.extend(requests(2..2 + SWEEP_EVENTS));
        tracker.routed(0, &batch);
        // The completion path knows one record per id: the first.
        tracker.settle_now(RequestId::from_raw(7));
        assert_eq!(tracker.take(RequestId::from_raw(7)), None);
        for offset in 2..2 + SWEEP_EVENTS {
            tracker.settle_now(RequestId::from_raw(1000 + offset));
        }
        // The duplicate at offset 1 pins everything behind it...
        assert_eq!(starts.sweep(&tracker), vec![(0, 1)]);
        assert!(starts.sweep(&tracker).is_empty());
        assert_eq!(tracker.snapshot()[0].open, 1);
        // ...until the log drops it by itself (time retention).
        starts.set(0, 2);
        assert_eq!(starts.sweep(&tracker), vec![(0, 2 + SWEEP_EVENTS)]);
        assert_eq!(tracker.snapshot()[0].open, 0);
    }

    #[test]
    fn a_redelivered_batch_reopens_nothing() {
        let tracker = SettleTracker::new(&[0]);
        let batch = requests(0..3);
        tracker.routed(0, &batch);
        for offset in 0..3 {
            tracker.settle_now(RequestId::from_raw(1000 + offset));
        }
        tracker.routed(0, &batch);
        assert_eq!(tracker.snapshot()[0].open, 0);
        assert_eq!(tracker.take(RequestId::from_raw(1000)), None);
    }

    #[test]
    fn a_response_closes_only_once_its_origin_is_below_the_log_start() {
        let tracker = SettleTracker::new(&[0]);
        let starts = Starts::new();
        let mut batch = vec![
            response(0, 1, Some((9, 40))),
            response(1, 2, Some((9, 41))),
            response(2, 3, Some((5, 7))),
        ];
        batch.extend(
            (3..3 + SWEEP_EVENTS).map(|offset| response(offset, 100 + offset, Some((5, 8)))),
        );
        tracker.routed(0, &batch);
        assert!(starts.sweep(&tracker).is_empty());
        // Partition 5 trimmed past both of its origins, partition 9 only
        // past the first: the response answering (9, 41) still pins the log.
        starts.set(5, 9);
        starts.set(9, 41);
        assert_eq!(starts.sweep(&tracker), vec![(0, 1)]);
        assert_eq!(tracker.snapshot()[0].open, 1);
        starts.set(9, 42);
        assert_eq!(starts.sweep(&tracker), vec![(0, 3 + SWEEP_EVENTS)]);
    }

    #[test]
    fn a_response_without_an_origin_waits_for_retention() {
        let tracker = SettleTracker::new(&[0]);
        let starts = Starts::new();
        let mut batch = vec![response(0, 1, None)];
        batch.extend(requests(1..1 + SWEEP_EVENTS));
        tracker.routed(0, &batch);
        for offset in 1..1 + SWEEP_EVENTS {
            tracker.settle_now(RequestId::from_raw(1000 + offset));
        }
        starts.set(9, u64::MAX);
        assert!(starts.sweep(&tracker).is_empty());
        assert_eq!(tracker.snapshot()[0].open, 1);
    }

    #[test]
    fn a_killed_tracker_never_asks_for_a_trim() {
        let tracker = SettleTracker::new(&[0]);
        let starts = Starts::new();
        tracker.routed(0, &requests(0..2 * SWEEP_EVENTS));
        tracker.clear();
        // Emptied open sets alone would read as "everything settled".
        assert!(starts.sweep(&tracker).is_empty());
        tracker.routed(0, &requests(2 * SWEEP_EVENTS..3 * SWEEP_EVENTS));
        assert!(starts.sweep(&tracker).is_empty());
    }
}
