//! Append-only partition logs with bulk expiry and zero-copy reads.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crate::record::Record;

/// One partition: an append-only log of records with monotonically increasing
/// offsets.
///
/// Matching the constraints of production message queues described in §4.1 of
/// the paper, the log only supports (1) appending at the end and (2) dropping
/// the oldest records in bulk — by age or size ([`PartitionLog::expire`]), up
/// to a low watermark chosen by the owner ([`PartitionLog::trim_before`],
/// Kafka's `deleteRecords`), or wholesale ([`PartitionLog::truncate`]);
/// records are never altered or removed from the middle.
///
/// Because the live records are therefore always the contiguous offset range
/// `start_offset()..end_offset()`, a record is addressed by
/// `offset - start_offset()`: reads are a slice of the deque and every drop
/// pops the front, so neither end's cost grows with the retained history.
/// The dropping operations hand the dropped records back so the broker can
/// free them after releasing the partition lock.
///
/// Payloads are stored behind an [`Arc`], so reading a record out of the log
/// (a consumer poll, a re-delivery after a seek, or reconciliation
/// cataloguing every unexpired record) clones a pointer, never the payload —
/// the zero-copy property the runtime relies on to stop deep-cloning request
/// argument lists on the hot path.
///
/// # Modelled time
///
/// The log also keeps the partition's two clocks (on the broker clock, like
/// `appended_at`). Nothing here sleeps or wakes anybody:
///
/// * `busy_until` — when the partition's last durable acknowledgement fires.
///   [`PartitionLog::acknowledge`] queues the next one behind it, so a
///   partition acknowledges strictly in append order, back-to-back appends
///   one append latency apart.
/// * the **visible end** — consumers read `start_offset()..visible_end()`.
///   An append names the instant its record becomes readable (its
///   acknowledgement plus the delivery latency); records whose instant has
///   not come wait in `pending` and become visible when a reader
///   [advances](PartitionLog::advance_visible) the log past it. Visibility
///   instants never decrease along the log, so visibility is a prefix.
#[derive(Debug)]
pub(crate) struct PartitionLog<M> {
    records: VecDeque<Record<Arc<M>>>,
    next_offset: u64,
    busy_until: Duration,
    visible_end: u64,
    /// Runs of not-yet-visible records, oldest first: `(end offset of the
    /// run, when it becomes visible)`. Empty whenever no latency is modelled.
    pending: VecDeque<(u64, Duration)>,
}

impl<M> Default for PartitionLog<M> {
    fn default() -> Self {
        PartitionLog {
            records: VecDeque::new(),
            next_offset: 0,
            busy_until: Duration::ZERO,
            visible_end: 0,
            pending: VecDeque::new(),
        }
    }
}

impl<M> PartitionLog<M> {
    /// Appends a record that becomes readable at `visible_at` — at once when
    /// that is not after `appended_at` and nothing older is still waiting.
    /// Returns its offset.
    pub(crate) fn append(
        &mut self,
        appended_at: Duration,
        visible_at: Duration,
        payload: M,
    ) -> u64 {
        let offset = self.next_offset;
        self.next_offset += 1;
        self.records.push_back(Record {
            offset,
            appended_at,
            payload: Arc::new(payload),
        });
        match self.pending.back_mut() {
            None if visible_at <= appended_at => self.visible_end = self.next_offset,
            // One batch shares one instant: extend its run.
            Some((end, at)) if *at >= visible_at => *end = self.next_offset,
            _ => self.pending.push_back((self.next_offset, visible_at)),
        }
        offset
    }

    /// Queues one durable acknowledgement of `latency` behind the
    /// partition's previous one, for an append submitted at `submitted`:
    /// returns when it fires and keeps the partition busy until then.
    pub(crate) fn acknowledge(&mut self, submitted: Duration, latency: Duration) -> Duration {
        self.busy_until = submitted.max(self.busy_until) + latency;
        self.busy_until
    }

    /// When the partition's last acknowledgement fires (zero if it never
    /// acknowledged anything).
    pub(crate) fn busy_until(&self) -> Duration {
        self.busy_until
    }

    /// Makes every record whose instant is not after `now` readable.
    pub(crate) fn advance_visible(&mut self, now: Duration) {
        while let Some(&(end, at)) = self.pending.front() {
            if at > now {
                break;
            }
            self.visible_end = self.visible_end.max(end);
            self.pending.pop_front();
        }
    }

    /// One past the last readable record.
    pub(crate) fn visible_end(&self) -> u64 {
        self.visible_end
    }

    /// When the oldest not-yet-readable record becomes readable (`None` if
    /// every record is).
    pub(crate) fn next_visible_at(&self) -> Option<Duration> {
        self.pending.front().map(|&(_, at)| at)
    }

    /// The readable records at or after `from_offset`, up to `max`. A
    /// `from_offset` below the log start reads from the first live record.
    /// Payloads are shared, not copied.
    pub(crate) fn read_from(&self, from_offset: u64, max: usize) -> Vec<Record<Arc<M>>> {
        let start = self.start_offset();
        let len = usize::try_from(self.visible_end.saturating_sub(start))
            .map_or(self.records.len(), |visible| {
                visible.min(self.records.len())
            });
        let first =
            usize::try_from(from_offset.saturating_sub(start)).map_or(len, |index| index.min(len));
        let last = first.saturating_add(max).min(len);
        self.records.range(first..last).cloned().collect()
    }

    /// All live records, readable or not (shared payloads): the broker's own
    /// view, which reconciliation catalogues.
    pub(crate) fn read_all(&self) -> Vec<Record<Arc<M>>> {
        self.records.iter().cloned().collect()
    }

    /// Offset that will be assigned to the next appended record.
    pub(crate) fn end_offset(&self) -> u64 {
        self.next_offset
    }

    /// Offset of the oldest live record (the end offset when the log is
    /// empty): the low watermark. Offsets start at zero and are never
    /// reused, so this is also the number of records dropped since creation.
    pub(crate) fn start_offset(&self) -> u64 {
        self.next_offset - self.records.len() as u64
    }

    /// Number of live records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Expires the oldest records that are older than `retention` relative to
    /// `now`, or that exceed the `max_records` bound. Returns the expired
    /// records.
    pub(crate) fn expire(
        &mut self,
        now: Duration,
        retention: Duration,
        max_records: usize,
    ) -> Vec<Record<Arc<M>>> {
        let cutoff = now.checked_sub(retention);
        let mut count = 0;
        for record in &self.records {
            let too_old = cutoff.is_some_and(|cutoff| record.appended_at < cutoff);
            let too_many = self.records.len() - count > max_records;
            if !(too_old || too_many) {
                break;
            }
            count += 1;
        }
        self.pop_front(count)
    }

    /// Drops every live record below `offset` (clamped to the live range).
    /// Returns the dropped records.
    pub(crate) fn trim_before(&mut self, offset: u64) -> Vec<Record<Arc<M>>> {
        let count = offset
            .min(self.next_offset)
            .saturating_sub(self.start_offset());
        self.pop_front(count as usize)
    }

    /// Drops every live record (used when a failed component's queue is
    /// flushed after reconciliation). Offsets keep increasing afterwards.
    /// Returns the dropped records.
    pub(crate) fn truncate(&mut self) -> Vec<Record<Arc<M>>> {
        self.pop_front(self.records.len())
    }

    fn pop_front(&mut self, count: usize) -> Vec<Record<Arc<M>>> {
        let dropped = self.records.drain(..count).collect();
        // A dropped record can no longer become visible: the readable range
        // never starts below the log.
        self.visible_end = self.visible_end.max(self.start_offset());
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn log_with(n: u64) -> PartitionLog<u64> {
        let mut log = PartitionLog::default();
        for i in 0..n {
            log.append(Duration::from_millis(i), Duration::ZERO, i);
        }
        log
    }

    fn offsets(records: &[Record<Arc<u64>>]) -> Vec<u64> {
        records.iter().map(|r| r.offset).collect()
    }

    #[test]
    fn append_assigns_monotonic_offsets() {
        let log = log_with(5);
        assert_eq!(log.end_offset(), 5);
        assert_eq!(log.start_offset(), 0);
        let all = log.read_all();
        assert_eq!(all.len(), 5);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
            assert_eq!(*r.payload, i as u64);
        }
    }

    #[test]
    fn reads_share_payloads_instead_of_copying() {
        let log = log_with(3);
        let first = log.read_all();
        let second = log.read_from(0, 10);
        // Both reads (and the log itself) point at the same allocation.
        assert!(Arc::ptr_eq(&first[0].payload, &second[0].payload));
        assert_eq!(Arc::strong_count(&first[0].payload), 3);
    }

    #[test]
    fn read_from_respects_offset_and_max() {
        let log = log_with(10);
        assert_eq!(offsets(&log.read_from(4, 3)), vec![4, 5, 6]);
        assert!(log.read_from(10, 5).is_empty());
        assert!(log.read_from(u64::MAX, 5).is_empty());
        assert_eq!(offsets(&log.read_from(8, usize::MAX)), vec![8, 9]);
    }

    #[test]
    fn time_based_expiry_drops_only_old_records() {
        let mut log = log_with(10);
        // Records appended at 0..9 ms; retain only those within the last 5 ms
        // as of t=12 ms (cutoff 7 ms).
        let dropped = log.expire(Duration::from_millis(12), Duration::from_millis(5), 1000);
        assert_eq!(dropped.len(), 7);
        assert_eq!(log.len(), 3);
        assert_eq!(log.read_all()[0].offset, 7);
        assert_eq!(log.start_offset(), 7);
        // Offsets are never reused after expiry.
        assert_eq!(
            log.append(Duration::from_millis(13), Duration::ZERO, 99),
            10
        );
    }

    #[test]
    fn size_based_expiry_keeps_at_most_max_records() {
        let mut log = log_with(10);
        let dropped = log.expire(Duration::from_millis(10), Duration::from_secs(100), 4);
        assert_eq!(dropped.len(), 6);
        assert_eq!(log.len(), 4);
        assert_eq!(log.read_all()[0].offset, 6);
    }

    #[test]
    fn truncate_clears_but_preserves_offsets() {
        let mut log = log_with(3);
        assert_eq!(log.truncate().len(), 3);
        assert_eq!(log.len(), 0);
        assert_eq!(log.start_offset(), 3);
        assert_eq!(log.append(Duration::ZERO, Duration::ZERO, 7), 3);
        assert_eq!(log.start_offset(), 3);
    }

    #[test]
    fn trim_before_drops_a_prefix_and_reads_skip_it() {
        let mut log = log_with(10);
        assert_eq!(offsets(&log.trim_before(4)), vec![0, 1, 2, 3]);
        assert_eq!(log.start_offset(), 4);
        // A position below the log start reads from the first live record.
        assert_eq!(offsets(&log.read_from(1, 2)), vec![4, 5]);
        // Trimming below the start is a no-op; past the end clamps.
        assert!(log.trim_before(2).is_empty());
        assert_eq!(log.trim_before(99).len(), 6);
        assert_eq!(log.start_offset(), 10);
        assert_eq!(log.append(Duration::ZERO, Duration::ZERO, 7), 10);
    }

    #[test]
    fn expire_with_zero_elapsed_time_is_noop_for_time() {
        let mut log = log_with(3);
        // now < retention: checked_sub yields None, nothing is too old.
        assert!(log
            .expire(Duration::from_millis(1), Duration::from_secs(10), 100)
            .is_empty());
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn acknowledgements_queue_behind_each_other() {
        let ms = Duration::from_millis;
        let mut log: PartitionLog<u64> = PartitionLog::default();
        assert_eq!(log.busy_until(), Duration::ZERO);
        // Three appends submitted together: one latency apart.
        assert_eq!(log.acknowledge(ms(10), ms(2)), ms(12));
        assert_eq!(log.acknowledge(ms(10), ms(2)), ms(14));
        assert_eq!(log.acknowledge(ms(10), ms(2)), ms(16));
        // An idle partition acknowledges one latency after the submit.
        assert_eq!(log.acknowledge(ms(30), ms(2)), ms(32));
        assert_eq!(log.busy_until(), ms(32));
        // No latency, no queueing: the partition is never busy.
        assert_eq!(log.acknowledge(ms(40), Duration::ZERO), ms(40));
    }

    #[test]
    fn records_become_readable_at_their_instant_and_never_out_of_order() {
        let ms = Duration::from_millis;
        let mut log: PartitionLog<u64> = PartitionLog::default();
        log.append(ms(1), ms(1), 0);
        assert_eq!(log.visible_end(), 1, "no latency: readable at once");
        // A batch sharing one instant, then a later one.
        log.append(ms(1), ms(5), 1);
        log.append(ms(1), ms(5), 2);
        log.append(ms(2), ms(8), 3);
        // An instant-less append behind waiting records waits with them.
        log.append(ms(3), ms(3), 4);
        assert_eq!(log.end_offset(), 5);
        assert_eq!(log.visible_end(), 1);
        assert_eq!(log.next_visible_at(), Some(ms(5)));
        assert_eq!(offsets(&log.read_from(0, 10)), vec![0]);
        assert_eq!(log.read_all().len(), 5, "the broker's own view sees all");
        log.advance_visible(ms(4));
        assert_eq!(log.visible_end(), 1);
        log.advance_visible(ms(5));
        assert_eq!(offsets(&log.read_from(0, 10)), vec![0, 1, 2]);
        assert_eq!(log.next_visible_at(), Some(ms(8)));
        log.advance_visible(ms(100));
        assert_eq!(offsets(&log.read_from(3, 10)), vec![3, 4]);
        assert_eq!(log.next_visible_at(), None);
        // Dropping waiting records moves the readable range with the log.
        log.append(ms(100), ms(200), 5);
        log.truncate();
        assert_eq!(log.visible_end(), 6);
        assert!(log.read_from(0, 10).is_empty());
    }

    /// The obviously-correct log the real one is checked against: a `Vec` of
    /// `(offset, appended_at)` filtered from the front on every read.
    #[derive(Default)]
    struct ModelLog {
        live: Vec<(u64, u64)>,
        next: u64,
    }

    impl ModelLog {
        fn drop_while(&mut self, gone: impl Fn(usize, &(u64, u64)) -> bool) -> Vec<u64> {
            let mut dropped = Vec::new();
            while let Some(first) = self.live.first() {
                if !gone(self.live.len(), first) {
                    break;
                }
                dropped.push(self.live.remove(0).0);
            }
            dropped
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of every log operation agree with the naive
        /// model: same reads (including positions below the log start and
        /// at/after the end), same dropped records, same watermarks, and
        /// offsets are never reused.
        #[test]
        fn log_matches_the_naive_model(
            ops in prop::collection::vec((0u8..6, 0u64..40, 0usize..12), 1..120),
        ) {
            let mut log: PartitionLog<u64> = PartitionLog::default();
            let mut model = ModelLog::default();
            let mut clock = 0u64;
            for (op, a, b) in ops {
                match op {
                    0 | 1 => {
                        clock += a % 4;
                        let offset = log.append(Duration::from_millis(clock), Duration::ZERO, clock);
                        prop_assert_eq!(offset, model.next, "offset reused or skipped");
                        model.live.push((offset, clock));
                        model.next += 1;
                    }
                    2 => {
                        clock += a % 4;
                        let retention = a % 16;
                        let max_records = b;
                        let dropped = log.expire(
                            Duration::from_millis(clock),
                            Duration::from_millis(retention),
                            max_records,
                        );
                        let cutoff = clock.checked_sub(retention);
                        let expected = model.drop_while(|len, &(_, at)| {
                            len > max_records || cutoff.is_some_and(|cutoff| at < cutoff)
                        });
                        prop_assert_eq!(offsets(&dropped), expected);
                    }
                    3 => {
                        let dropped = log.trim_before(a);
                        let expected = model.drop_while(|_, &(offset, _)| offset < a);
                        prop_assert_eq!(offsets(&dropped), expected);
                    }
                    4 => {
                        // Rare: otherwise the log never grows.
                        if b == 0 {
                            let dropped = log.truncate();
                            let expected = model.drop_while(|_, _| true);
                            prop_assert_eq!(offsets(&dropped), expected);
                        }
                    }
                    _ => {
                        let read = log.read_from(a, b);
                        let expected: Vec<u64> = model
                            .live
                            .iter()
                            .map(|&(offset, _)| offset)
                            .filter(|&offset| offset >= a)
                            .take(b)
                            .collect();
                        prop_assert_eq!(offsets(&read), expected);
                    }
                }
                prop_assert_eq!(log.end_offset(), model.next);
                prop_assert_eq!(log.len(), model.live.len());
                prop_assert_eq!(
                    log.start_offset(),
                    model.live.first().map_or(model.next, |&(offset, _)| offset)
                );
                let all: Vec<u64> = model.live.iter().map(|&(offset, _)| offset).collect();
                prop_assert_eq!(offsets(&log.read_all()), all);
            }
        }
    }
}
