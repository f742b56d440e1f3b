//! The delivery plane's append paths: group-committed responses per
//! destination partition ([`ResponseBatcher`]) and the request leg's one
//! produce round per send ([`RequestRound`]).
//!
//! Every response — and every tail-call continuation to the sending actor's
//! own partition — is a durable queue append, and a partition acknowledges
//! its appends strictly in sequence (a replicated log does). On the call
//! path that makes the response leg the dominant serial resource: N
//! invocations completing towards the same caller partition used to pay N
//! serialized acks.
//!
//! The [`ResponseBatcher`] applies the classic group-commit idiom to that
//! leg. Completions are enqueued per destination partition; the first
//! enqueuer of an idle partition becomes its *flusher* and submits the
//! pending run through [`kar_queue::Producer::submit_batch`] — one
//! partition-lock acquisition and one durable ack per flush. Nobody waits
//! for that ack: the flush parks until it is due ([`AckWait`], see
//! [`crate::io`]) and the enqueuer returns at once. Completions that arrive
//! while a flush's ack is in flight simply join the queue, and the
//! partition's next run leaves when that ack fires — so a burst of K
//! responses to one partition pays ~⌈K/batch⌉ acks instead of K.
//!
//! Ordering: enqueue order is preserved per destination partition (the
//! flusher drains the queue FIFO and appends the drained run as one batch
//! with contiguous offsets). One caller actor has at most one outstanding
//! nested call, so per-caller response order is trivially preserved; there
//! is no cross-envelope ordering contract between responses and requests of
//! unrelated ids.
//!
//! Failure semantics match the unbatched path: a flush that fails because
//! the component was fenced or killed mid-completion drops the buffered
//! responses — exactly like a kill between the response hop and the append —
//! and the callers' queue copies drive the retry. A flush that only ran out
//! of *transient* replays drops nothing: the requests it answers are already
//! recorded as completed (their retries would be deduplicated away), so the
//! run stays at the head of its queue until [`ResponseBatcher::retry_stalled`]
//! — or the partition's next completion — flushes it.
//!
//! Settlement: a completion may name the request record it settles (see
//! [`crate::settle`]). Those records ride the partition queue beside the
//! envelopes and are closed only when the flush's acknowledgement has
//! arrived and says yes, so a request record is never trimmed ahead of its
//! durable completion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_queue::Producer;
use kar_types::{Completion, Envelope, KarResult, RecordOrigin};

use crate::faults::TRANSIENT_ATTEMPTS;
use crate::settle::SettleTracker;

/// The pending queue of one destination partition.
#[derive(Default)]
pub(crate) struct PartitionQueue {
    pending: Vec<Envelope>,
    /// Request records settled by the pending envelopes' acknowledgement.
    settles: Vec<RecordOrigin>,
    /// True while a flush of this partition is under way — being submitted,
    /// or parked on its ack: later enqueuers leave their envelope for the
    /// flusher's next round instead of paying their own ack.
    flushing: bool,
}

/// What a flush works with: where it appends, whose records it settles, and
/// how it waits for an ack without blocking — `park(due, wait)` keeps `wait`
/// until `due` and then hands it to [`ResponseBatcher::acked`], or hands it
/// straight back when `due` has come already.
pub(crate) struct FlushCtx<'a> {
    pub(crate) producer: &'a Producer<Envelope>,
    pub(crate) topic: &'a str,
    pub(crate) tracker: &'a SettleTracker,
    pub(crate) park: &'a dyn Fn(Option<Duration>, AckWait) -> Option<AckWait>,
}

/// One submitted flush waiting for its durable ack.
pub(crate) struct AckWait {
    partition: usize,
    queue: Arc<Mutex<PartitionQueue>>,
    /// The request records the flushed run settles.
    settles: Vec<RecordOrigin>,
    /// The run itself, kept only while a fault plan is armed (the ordinary
    /// hot path moves the batch into the broker without copying).
    replay: Option<Vec<Envelope>>,
    /// What the ack says, learnt when it arrives.
    acked: KarResult<()>,
    /// Consecutive transiently-failed rounds replayed so far.
    transient_rounds: u32,
}

/// Per-destination-partition response batching for one component.
#[derive(Default)]
pub(crate) struct ResponseBatcher {
    partitions: Mutex<HashMap<usize, Arc<Mutex<PartitionQueue>>>>,
    /// Envelopes enqueued since creation.
    enqueued: AtomicU64,
    /// Batch appends acknowledged (each one lock acquisition + one durable
    /// ack); `enqueued / flushes` is the achieved amortization.
    flushes: AtomicU64,
    /// Set when a flush ran out of transient replays and left its run
    /// queued: lets the timer skip the partition scan while nothing stalled.
    stalled: AtomicBool,
}

impl ResponseBatcher {
    pub(crate) fn new() -> Self {
        ResponseBatcher::default()
    }

    fn queue(&self, partition: usize) -> Arc<Mutex<PartitionQueue>> {
        self.partitions.lock().entry(partition).or_default().clone()
    }

    /// Enqueues `envelope` for `topic[partition]` and starts flushing the
    /// partition's pending run unless a flush is under way already. Never
    /// waits for an ack: a flush whose ack is not due yet parks, and whatever
    /// is enqueued meanwhile leaves when that ack fires. Every completion
    /// comes here the moment its invocation responds; the grouping is the
    /// flusher claim's alone.
    pub(crate) fn enqueue(
        &self,
        ctx: &FlushCtx<'_>,
        partition: usize,
        envelope: Envelope,
        settles: Option<RecordOrigin>,
    ) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let queue = self.queue(partition);
        {
            let mut state = queue.lock();
            state.pending.push(envelope);
            state.settles.extend(settles);
            if state.flushing {
                // The flush under way picks this envelope up on its next
                // drain: the enqueuer's ack is amortized away entirely.
                return;
            }
            state.flushing = true;
        }
        self.flush_loop(ctx, partition, queue, 0);
    }

    /// Drains `queue` in rounds — each round one batch append — until it is
    /// empty (the flusher claim is released) or a round's ack is still to
    /// come (the flush parks; [`ResponseBatcher::acked`] re-enters here).
    /// Entered holding the claim.
    fn flush_loop(
        &self,
        ctx: &FlushCtx<'_>,
        partition: usize,
        queue: Arc<Mutex<PartitionQueue>>,
        mut transient_rounds: u32,
    ) {
        loop {
            let (batch, settles) = {
                let mut state = queue.lock();
                if state.pending.is_empty() {
                    state.flushing = false;
                    return;
                }
                (
                    std::mem::take(&mut state.pending),
                    std::mem::take(&mut state.settles),
                )
            };
            // A replay copy is only kept while the fault plane is armed: the
            // ordinary hot path moves the batch without copying.
            let replay = ctx.producer.faults_armed().then(|| batch.clone());
            let (due, acked) = match ctx.producer.submit_batch(ctx.topic, partition, batch) {
                Ok(Completion { due, result }) => (due, result.map(drop)),
                // Refused at submit: nothing was appended.
                Err(error) => (None, Err(error)),
            };
            let wait = AckWait {
                partition,
                queue: Arc::clone(&queue),
                settles,
                replay,
                acked,
                transient_rounds,
            };
            let Some(wait) = (ctx.park)(due, wait) else {
                return;
            };
            match self.settle(ctx, wait) {
                Some(rounds) => transient_rounds = rounds,
                None => return,
            }
        }
    }

    /// The ack of a parked flush has arrived: settles it and sends the
    /// partition's next run, if one queued up meanwhile.
    pub(crate) fn acked(&self, ctx: &FlushCtx<'_>, wait: AckWait) {
        let (partition, queue) = (wait.partition, Arc::clone(&wait.queue));
        if let Some(transient_rounds) = self.settle(ctx, wait) {
            self.flush_loop(ctx, partition, queue, transient_rounds);
        }
    }

    /// Acts on what a flush's ack said. Returns the transient-round count to
    /// go on flushing with, or `None` when the flusher claim was released.
    fn settle(&self, ctx: &FlushCtx<'_>, wait: AckWait) -> Option<u32> {
        let AckWait {
            queue,
            settles,
            replay,
            acked,
            transient_rounds,
            ..
        } = wait;
        match (acked, replay) {
            (Ok(()), _) => {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                // The completions are durable: the request records they
                // answer have settled.
                ctx.tracker.close_all(&settles);
                Some(0)
            }
            (Err(error), Some(replay)) if error.is_transient() => {
                // A gray failure on one response flush must not cost every
                // buffered caller a redelivery round trip (duplicate
                // responses from an ack-lost append are dropped by
                // request-id matching at the receiver): back to the head of
                // the queue, ahead of whatever was enqueued meanwhile. The
                // requests these responses answer are already recorded as
                // completed, so nothing would regenerate a dropped response:
                // once the bounded replays are used up the run stays queued
                // and the claim is released — the partition's next
                // completion, or the timer (`retry_stalled`), flushes it.
                let mut state = queue.lock();
                state.pending.splice(0..0, replay);
                state.settles.extend(settles);
                if transient_rounds + 1 >= TRANSIENT_ATTEMPTS {
                    state.flushing = false;
                    self.stalled.store(true, Ordering::Release);
                    return None;
                }
                Some(transient_rounds + 1)
            }
            (Err(_), _) => {
                // Fenced or killed mid-completion: nothing was appended,
                // the queue copies of the affected requests drive the
                // retry. Drop whatever queued meanwhile too — the
                // component is dead.
                let mut state = queue.lock();
                state.pending.clear();
                state.settles.clear();
                state.flushing = false;
                None
            }
        }
    }

    /// Flushes every partition whose run is queued with no flusher: the
    /// leftovers of flushes that ran out of transient replays. Called from
    /// the component's timer tick; one atomic swap when nothing stalled.
    /// Partitions are visited in ascending index — not in the map's hash
    /// order — so a run under a fault plan replays its flushes in the same
    /// order every time.
    pub(crate) fn retry_stalled(&self, ctx: &FlushCtx<'_>) {
        if !self.stalled.swap(false, Ordering::AcqRel) {
            return;
        }
        let mut queues: Vec<(usize, Arc<Mutex<PartitionQueue>>)> = self
            .partitions
            .lock()
            .iter()
            .map(|(partition, queue)| (*partition, Arc::clone(queue)))
            .collect();
        queues.sort_unstable_by_key(|(partition, _)| *partition);
        for (partition, queue) in queues {
            {
                let mut state = queue.lock();
                if state.flushing || state.pending.is_empty() {
                    continue;
                }
                state.flushing = true;
            }
            self.flush_loop(ctx, partition, queue, 0);
        }
    }

    /// Drops every pending envelope (the component was killed: unreleased
    /// completions die with it, like any in-memory state).
    pub(crate) fn clear(&self) {
        for queue in self.partitions.lock().values() {
            let mut state = queue.lock();
            state.pending.clear();
            state.settles.clear();
        }
    }

    /// `(envelopes enqueued, batch appends acknowledged)` since creation; the
    /// ratio is the response-batching amortization factor.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.enqueued.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
        )
    }
}

/// A run of routed requests: `(destination partition, envelope)` pairs in
/// send order.
pub(crate) type Run = Vec<(usize, Envelope)>;

/// One **produce round** of the request leg
/// ([`kar_queue::Producer::submit_round`]): a run of routed requests grouped
/// per partition with the send order kept inside each group, one durable ack
/// however many partitions or destination components the run spans,
/// all-or-nothing. A transiently failed round — refused at submit, or its
/// ack lost and learnt of when it was due — is replayed whole a bounded
/// number of times; the duplicates an ack-lost round leaves behind are
/// absorbed by request-id dedup at the consumers. The one append path of
/// the request leg; rounds of different senders are not coalesced (a claim
/// table that merged the rounds contending for a partition won on none of
/// the five benchmark workloads against sending every round directly — see
/// ROADMAP).
///
/// A reactor drives it as `submit` → park until the returned due time →
/// `settle` (see [`crate::io`]); an edge thread runs the same sequence with
/// a blocking wait in the middle.
pub(crate) struct RequestRound {
    /// Kept for a replay only while a fault plan is armed: an un-faulted
    /// in-process broker has no transient append errors, so the ordinary hot
    /// path moves the round into the broker without copying.
    groups: Option<Vec<(usize, Vec<Envelope>)>>,
    /// Submits left, the first included.
    submits_left: u32,
    /// What the latest submit's ack says, learnt when it is due.
    acked: KarResult<()>,
}

impl RequestRound {
    pub(crate) fn new(run: Run) -> Self {
        // A run spans few distinct partitions, so a linear scan beats
        // hashing.
        let mut groups: Vec<(usize, Vec<Envelope>)> = Vec::new();
        for (partition, envelope) in run {
            match groups.iter_mut().find(|(p, _)| *p == partition) {
                Some((_, group)) => group.push(envelope),
                None => groups.push((partition, vec![envelope])),
            }
        }
        RequestRound {
            groups: Some(groups),
            submits_left: TRANSIENT_ATTEMPTS,
            acked: Ok(()),
        }
    }

    /// Submits the round — replaying at once a submit refused with a
    /// transient fault, which appended nothing — and returns when the ack of
    /// the submit that went through is due (`None`: with the submit, or no
    /// submit went through and [`RequestRound::settle`] reports why).
    pub(crate) fn submit(
        &mut self,
        producer: &Producer<Envelope>,
        topic: &str,
    ) -> Option<Duration> {
        loop {
            self.submits_left -= 1;
            let groups = if producer.faults_armed() {
                self.groups.clone()
            } else {
                self.submits_left = 0;
                self.groups.take()
            };
            let groups = groups.expect("a round is submitted again only from its replay copy");
            match producer.submit_round(topic, groups) {
                Ok(Completion { due, result }) => {
                    self.acked = result.map(drop);
                    return due;
                }
                Err(error) if error.is_transient() && self.submits_left > 0 => {}
                Err(error) => {
                    self.acked = Err(error);
                    self.submits_left = 0;
                    return None;
                }
            }
        }
    }

    /// The ack is in: the round is over — durable, or failed for good — or
    /// its ack was lost and a replay is left.
    pub(crate) fn settle(self) -> Settled<Self> {
        match &self.acked {
            Err(error) if error.is_transient() && self.submits_left > 0 => Settled::Replay(self),
            _ => Settled::Done(self.acked),
        }
    }
}

/// What the ack of a round's latest submit led to.
pub(crate) enum Settled<R> {
    /// The round is over, with this outcome.
    Done(KarResult<()>),
    /// The ack was lost and a replay is left: submit the round again.
    Replay(R),
}

/// Appends one run of routed requests as one [`RequestRound`], waiting for
/// its ack: durable when this returns `Ok`.
#[cfg(test)]
fn send_request_round(producer: &Producer<Envelope>, topic: &str, run: Run) -> KarResult<()> {
    let mut round = RequestRound::new(run);
    loop {
        if let Some(due) = round.submit(producer, topic) {
            kar_types::pace_until(due);
        }
        match round.settle() {
            Settled::Done(outcome) => return outcome,
            Settled::Replay(replay) => round = replay,
        }
    }
}

/// The distinct partitions `run` touches.
pub(crate) fn partitions_of(run: &[(usize, Envelope)]) -> Vec<usize> {
    let mut partitions: Vec<usize> = run.iter().map(|(partition, _)| *partition).collect();
    partitions.sort_unstable();
    partitions.dedup();
    partitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_queue::{Broker, BrokerConfig};
    use kar_types::{ComponentId, RequestId, ResponseMessage, Value};
    use std::time::Duration;

    /// Waits for every ack on the spot, as an edge thread would: the batcher
    /// then behaves like one blocking flusher.
    fn wait_for_ack(due: Option<Duration>, wait: AckWait) -> Option<AckWait> {
        if let Some(due) = due {
            kar_types::pace_until(due);
        }
        Some(wait)
    }

    fn ctx<'a>(producer: &'a Producer<Envelope>, tracker: &'a SettleTracker) -> FlushCtx<'a> {
        FlushCtx {
            producer,
            topic: "t",
            tracker,
            park: &wait_for_ack,
        }
    }

    fn response(id: u64) -> Envelope {
        Envelope::Response(ResponseMessage::ok(
            RequestId::from_raw(id),
            None,
            Value::Int(id as i64),
        ))
    }

    #[test]
    fn enqueue_appends_in_order_per_partition() {
        let broker: Broker<Envelope> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 2).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        let tracker = SettleTracker::new(&[]);
        for id in 0..6 {
            let partition = (id % 2) as usize;
            batcher.enqueue(&ctx(&producer, &tracker), partition, response(id), None);
        }
        for partition in 0..2 {
            let ids: Vec<u64> = broker
                .read_partition("t", partition)
                .into_iter()
                .map(|record| record.payload.id().as_u64())
                .collect();
            let expected: Vec<u64> = (0..6).filter(|id| (id % 2) as usize == partition).collect();
            assert_eq!(ids, expected, "partition {partition} order broken");
        }
        let (enqueued, flushes) = batcher.stats();
        assert_eq!(enqueued, 6);
        assert!((1..=6).contains(&flushes));
    }

    #[test]
    fn concurrent_completions_share_durable_acks() {
        // 8 threads complete towards one destination partition at a 2 ms
        // ack: with group commit the burst shares flushes, and every
        // response must still land exactly once.
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            append_latency: Duration::from_millis(2),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 1).unwrap();
        let producer = Arc::new(broker.producer(ComponentId::from_raw(1)));
        let batcher = Arc::new(ResponseBatcher::new());
        let tracker = Arc::new(SettleTracker::new(&[]));
        let threads: Vec<_> = (0..8)
            .map(|id| {
                let producer = Arc::clone(&producer);
                let batcher = Arc::clone(&batcher);
                let tracker = Arc::clone(&tracker);
                std::thread::spawn(move || {
                    batcher.enqueue(&ctx(&producer, &tracker), 0, response(id), None)
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let mut ids: Vec<u64> = broker
            .read_partition("t", 0)
            .into_iter()
            .map(|record| record.payload.id().as_u64())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
        let (_, flushes) = batcher.stats();
        assert!(
            flushes < 8,
            "8 concurrent completions never shared a flush ({flushes} flushes)"
        );
    }

    #[test]
    fn failed_flush_drops_the_batch_without_wedging() {
        let broker: Broker<Envelope> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        broker.fence(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        let tracker = SettleTracker::new(&[]);
        batcher.enqueue(&ctx(&producer, &tracker), 0, response(1), None);
        assert_eq!(broker.partition_len("t", 0), 0);
        // The partition queue is not left in a "flushing" state that would
        // park later envelopes forever.
        batcher.enqueue(&ctx(&producer, &tracker), 0, response(2), None);
        assert_eq!(broker.partition_len("t", 0), 0);
        batcher.clear();
        assert_eq!(batcher.stats().0, 2);
    }

    #[test]
    fn only_an_acknowledged_flush_settles_the_records_it_completes() {
        let broker: Broker<Envelope> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 2).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        // Two requests polled from home partition 0, both still open.
        let tracker = SettleTracker::new(&[0]);
        let polled: Vec<_> = (0..2)
            .map(|offset| kar_queue::Record {
                offset,
                appended_at: Duration::ZERO,
                payload: Arc::new(request(offset, "a").1),
            })
            .collect();
        tracker.routed(0, &polled);
        assert_eq!(tracker.snapshot()[0].open, 2);
        // The first one's response is acknowledged: its record settles.
        let first = tracker.take(RequestId::from_raw(0));
        assert!(first.is_some());
        batcher.enqueue(&ctx(&producer, &tracker), 1, response(0), first);
        assert_eq!(broker.partition_len("t", 1), 1);
        assert_eq!(tracker.snapshot()[0].open, 1);
        // The second one's flush fails (fenced mid-completion): the response
        // is dropped, and the request record must stay open — it is what
        // drives the retry.
        broker.fence(ComponentId::from_raw(1));
        let second = tracker.take(RequestId::from_raw(1));
        batcher.enqueue(&ctx(&producer, &tracker), 1, response(1), second);
        assert_eq!(broker.partition_len("t", 1), 1);
        assert_eq!(tracker.snapshot()[0].open, 1);
    }

    #[test]
    fn a_flush_out_of_transient_replays_keeps_its_run_for_the_timer() {
        use kar_types::{FaultInjector, FaultPlan, FaultSite, FaultSpec};

        // One more consecutive append failure than a flush replays through.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0).with_budget(u64::from(TRANSIENT_ATTEMPTS) + 1),
        );
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 2).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        let tracker = SettleTracker::new(&[0]);
        let polled = [kar_queue::Record {
            offset: 0,
            appended_at: Duration::ZERO,
            payload: Arc::new(request(0, "a").1),
        }];
        tracker.routed(0, &polled);
        let settles = tracker.take(RequestId::from_raw(0));
        // The flush uses up its replays: nothing landed, nothing settled —
        // and nothing was dropped: `finish()` has already recorded the
        // request as completed, so no retry would regenerate the response.
        batcher.enqueue(&ctx(&producer, &tracker), 1, response(0), settles);
        assert_eq!(broker.partition_len("t", 1), 0);
        assert_eq!(tracker.snapshot()[0].open, 1);
        assert_eq!(batcher.stats(), (1, 0));
        // The timer re-arms the stalled partition: one more failure, then
        // the run goes out, in order, ahead of nothing else.
        batcher.retry_stalled(&ctx(&producer, &tracker));
        let ids: Vec<u64> = broker
            .read_partition("t", 1)
            .into_iter()
            .map(|record| record.payload.id().as_u64())
            .collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(tracker.snapshot()[0].open, 0, "the ack settles the record");
        assert_eq!(batcher.stats(), (1, 1));
        // Nothing stalled: the sweep is a no-op.
        batcher.retry_stalled(&ctx(&producer, &tracker));
        assert_eq!(broker.partition_len("t", 1), 1);
    }

    #[test]
    fn stalled_partitions_are_flushed_in_ascending_index() {
        use kar_types::{FaultInjector, FaultPlan, FaultSite, FaultSpec};
        use std::cell::RefCell;

        // Enqueued in this order, so neither insertion order nor — with this
        // many — the map's per-process hash order is ascending by chance.
        const PARTITIONS: [usize; 6] = [5, 2, 7, 0, 6, 3];
        // Every partition's flush runs out of replays: all of them stall.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0)
                .with_budget(u64::from(TRANSIENT_ATTEMPTS) * PARTITIONS.len() as u64),
        );
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 8).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        let tracker = SettleTracker::new(&[]);
        for (id, partition) in PARTITIONS.into_iter().enumerate() {
            let completion = response(id as u64);
            batcher.enqueue(&ctx(&producer, &tracker), partition, completion, None);
            assert_eq!(broker.partition_len("t", partition), 0, "stalled");
        }
        // The timer's sweep, with every flush's submit recorded in order.
        let flushed = RefCell::new(Vec::new());
        let record_then_wait = |due, wait: AckWait| {
            flushed.borrow_mut().push(wait.partition);
            wait_for_ack(due, wait)
        };
        batcher.retry_stalled(&FlushCtx {
            producer: &producer,
            topic: "t",
            tracker: &tracker,
            park: &record_then_wait,
        });
        assert_eq!(*flushed.borrow(), vec![0, 2, 3, 5, 6, 7]);
        for partition in PARTITIONS {
            assert_eq!(broker.partition_len("t", partition), 1);
        }
    }

    #[test]
    fn a_stalled_run_goes_out_ahead_of_the_next_completion() {
        use kar_types::{FaultInjector, FaultPlan, FaultSite, FaultSpec};

        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0).with_budget(u64::from(TRANSIENT_ATTEMPTS)),
        );
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        let tracker = SettleTracker::new(&[]);
        batcher.enqueue(&ctx(&producer, &tracker), 0, response(1), None);
        assert_eq!(broker.partition_len("t", 0), 0);
        // The partition's next completion claims the released flush and
        // drains the stalled head first.
        batcher.enqueue(&ctx(&producer, &tracker), 0, response(2), None);
        let ids: Vec<u64> = broker
            .read_partition("t", 0)
            .into_iter()
            .map(|record| record.payload.id().as_u64())
            .collect();
        assert_eq!(ids, vec![1, 2]);
    }

    use kar_types::{ActorRef, RequestMessage};

    fn request(id: u64, actor: &str) -> (String, Envelope) {
        let target = ActorRef::new("A", actor);
        let key = target.qualified_name();
        let message = RequestMessage::root(RequestId::from_raw(id), target, "m", Vec::new());
        (key, Envelope::Request(message))
    }

    /// `count` requests routed round-robin over `partitions` partitions.
    fn run(first_id: u64, count: u64, partitions: usize) -> Run {
        (first_id..first_id + count)
            .map(|id| ((id as usize) % partitions, request(id, "a").1))
            .collect()
    }

    fn request_ids(broker: &Broker<Envelope>, partition: usize) -> Vec<u64> {
        broker
            .read_partition("t", partition)
            .into_iter()
            .map(|record| record.payload.id().as_u64())
            .collect()
    }

    #[test]
    fn a_run_is_one_round_durable_on_return() {
        // Under a virtual clock a modelled ack advances the clock, so the
        // acks a send paid are read off exactly.
        let clock = Arc::new(kar_types::VirtualClock::new());
        kar_types::install_virtual_clock(Arc::clone(&clock));
        let ack = Duration::from_millis(2);
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            append_latency: ack,
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 4).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        // A run over all four partitions: durable on return, send order kept
        // inside each partition, one ack.
        send_request_round(&producer, "t", run(0, 12, 4)).unwrap();
        assert_eq!(clock.now(), ack, "a run spanning 4 partitions paid one ack");
        for partition in 0..4u64 {
            assert_eq!(
                request_ids(&broker, partition as usize),
                vec![partition, partition + 4, partition + 8]
            );
        }
        // A single request is a run of one.
        send_request_round(&producer, "t", run(12, 1, 4)).unwrap();
        assert_eq!(request_ids(&broker, 0), vec![0, 4, 8, 12]);
        assert_eq!(partitions_of(&run(0, 12, 4)), vec![0, 1, 2, 3]);
        kar_types::clear_virtual_clock();
    }

    #[test]
    fn a_failed_round_appends_nothing_anywhere() {
        use kar_types::{FaultInjector, FaultPlan, FaultSite, FaultSpec};

        // As many consecutive append failures as a round replays through.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0).with_budget(u64::from(TRANSIENT_ATTEMPTS)),
        );
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 2).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let landed = || broker.partition_len("t", 0) + broker.partition_len("t", 1);
        // Out of transient replays: the sender gets the transient error and
        // no partition of the round holds a record.
        let error = send_request_round(&producer, "t", run(0, 4, 2)).unwrap_err();
        assert!(error.is_transient(), "got {error:?}");
        assert_eq!(landed(), 0);
        // Nothing is sticky: the next round goes through.
        send_request_round(&producer, "t", run(4, 2, 2)).unwrap();
        assert_eq!(request_ids(&broker, 0), vec![4]);
        assert_eq!(request_ids(&broker, 1), vec![5]);
        // A fenced producer's round fails with the fencing itself.
        broker.fence(ComponentId::from_raw(1));
        let error = send_request_round(&producer, "t", run(6, 4, 2)).unwrap_err();
        assert!(error.is_fenced(), "got {error:?}");
        assert_eq!(landed(), 2);
    }
}
