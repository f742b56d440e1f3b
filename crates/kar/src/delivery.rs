//! The delivery plane's append paths: group-committed responses per
//! destination partition ([`ResponseBatcher`]) and the request leg's one
//! produce round per send ([`send_request_round`]).
//!
//! Every response — and every tail-call continuation to the sending actor's
//! own partition — is a durable queue append, and the durable-ack latency is
//! paid *under the destination partition's log lock* (a replicated log
//! acknowledges in sequence). On the call path that makes the response leg
//! the dominant serial resource: N invocations completing towards the same
//! caller partition used to pay N serialized acks.
//!
//! The [`ResponseBatcher`] applies the classic group-commit idiom to that
//! leg. Completions are enqueued per destination partition; the first
//! enqueuer of an idle partition becomes its *flusher* and appends through
//! [`kar_queue::Producer::send_batch`] — one partition-lock acquisition and
//! one durable ack per flush. Completions that arrive while a flush's ack is
//! in flight simply join the queue and ride the next flush, so a burst of K
//! responses to one partition pays ~⌈K/batch⌉ acks instead of K.
//!
//! Ordering: enqueue order is preserved per destination partition (the
//! flusher drains the queue FIFO and appends the drained run as one batch
//! with contiguous offsets). One caller actor has at most one outstanding
//! blocking call, so per-caller response order is trivially preserved; there
//! is no cross-envelope ordering contract between responses and requests of
//! unrelated ids.
//!
//! Failure semantics match the unbatched path: a flush that fails because
//! the component was fenced or killed mid-completion drops the buffered
//! responses — exactly like a kill between `send_response` and the append —
//! and the callers' queue copies drive the retry. A flush that only ran out
//! of *transient* replays drops nothing: the requests it answers are already
//! recorded as completed (their retries would be deduplicated away), so the
//! run stays at the head of its queue until [`ResponseBatcher::retry_stalled`]
//! — or the partition's next completion — flushes it.
//!
//! Settlement: a completion may name the request record it settles (see
//! [`crate::settle`]). Those records ride the partition queue beside the
//! envelopes and are closed only in the flush's acknowledged arm, so a
//! request record is never trimmed ahead of its durable completion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kar_queue::Producer;
use kar_types::{Envelope, KarResult, RecordOrigin};

use crate::faults::{retry_transient, TRANSIENT_ATTEMPTS};
use crate::settle::SettleTracker;

/// The pending queue of one destination partition.
#[derive(Default)]
struct PartitionQueue {
    pending: Vec<Envelope>,
    /// Request records settled by the pending envelopes' acknowledgement.
    settles: Vec<RecordOrigin>,
    /// True while some thread is flushing this partition: later enqueuers
    /// leave their envelope for the flusher's next round instead of paying
    /// their own ack.
    flushing: bool,
}

/// Per-destination-partition response batching for one component.
#[derive(Default)]
pub(crate) struct ResponseBatcher {
    partitions: Mutex<HashMap<usize, Arc<Mutex<PartitionQueue>>>>,
    /// Envelopes enqueued since creation.
    enqueued: AtomicU64,
    /// Batch appends performed (each one lock acquisition + one durable
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

    /// Enqueues `envelope` for `topic[partition]` and flushes the partition's
    /// pending run unless another thread already is. The calling thread may
    /// perform several batch appends back to back if completions keep
    /// arriving while its acks are in flight; each append drains everything
    /// queued so far, so the loop ends as soon as producers pause.
    pub(crate) fn enqueue(
        &self,
        producer: &Producer<Envelope>,
        topic: &str,
        partition: usize,
        envelope: Envelope,
        settles: Option<RecordOrigin>,
        tracker: &SettleTracker,
    ) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let queue = self.queue(partition);
        {
            let mut state = queue.lock();
            state.pending.push(envelope);
            state.settles.extend(settles);
            if state.flushing {
                // The in-flight flusher picks this envelope up on its next
                // drain: the enqueuer's ack is amortized away entirely.
                return;
            }
            state.flushing = true;
        }
        self.flush_loop(producer, topic, partition, &queue, tracker);
    }

    /// [`ResponseBatcher::enqueue`] for a pre-grouped *run* of completions
    /// towards one destination partition: the whole run enters the partition
    /// queue under a single lock acquisition instead of one per completion.
    /// The dispatch layer's drain-local buffering groups one mailbox drain's
    /// completions by destination partition and hands each group over here.
    pub(crate) fn enqueue_run(
        &self,
        producer: &Producer<Envelope>,
        topic: &str,
        partition: usize,
        run: Vec<Envelope>,
        settles: Vec<RecordOrigin>,
        tracker: &SettleTracker,
    ) {
        if run.is_empty() {
            return;
        }
        self.enqueued.fetch_add(run.len() as u64, Ordering::Relaxed);
        let queue = self.queue(partition);
        {
            let mut state = queue.lock();
            state.pending.extend(run);
            state.settles.extend(settles);
            if state.flushing {
                return;
            }
            state.flushing = true;
        }
        self.flush_loop(producer, topic, partition, &queue, tracker);
    }

    /// Drains `queue` in rounds — each round one batch append — until it is
    /// empty, then releases the flusher claim. Entered holding the claim.
    fn flush_loop(
        &self,
        producer: &Producer<Envelope>,
        topic: &str,
        partition: usize,
        queue: &Arc<Mutex<PartitionQueue>>,
        tracker: &SettleTracker,
    ) {
        // Consecutive transiently-failed rounds replayed so far: a gray
        // failure on one response flush must not cost every buffered caller
        // a redelivery round trip. Duplicate responses from an ack-lost
        // append are dropped by request-id matching at the receiver.
        let mut transient_rounds = 0u32;
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
            let replay = producer.faults_armed().then(|| batch.clone());
            match producer.send_batch(topic, partition, batch) {
                Ok(_) => {
                    self.flushes.fetch_add(1, Ordering::Relaxed);
                    transient_rounds = 0;
                    // The completions are durable: the request records they
                    // answer have settled.
                    tracker.close_all(&settles);
                }
                Err(error) if error.is_transient() && replay.is_some() => {
                    // Back to the head of the queue, ahead of whatever was
                    // enqueued meanwhile. The requests these responses
                    // answer are already recorded as completed, so nothing
                    // would regenerate a dropped response: once the bounded
                    // replays are used up the run stays queued and the claim
                    // is released — the partition's next completion, or the
                    // timer (`retry_stalled`), flushes it.
                    transient_rounds += 1;
                    let mut state = queue.lock();
                    state
                        .pending
                        .splice(0..0, replay.expect("guarded by is_some"));
                    state.settles.extend(settles);
                    if transient_rounds >= TRANSIENT_ATTEMPTS {
                        state.flushing = false;
                        self.stalled.store(true, Ordering::Release);
                        return;
                    }
                }
                Err(_) => {
                    // Fenced or killed mid-completion: nothing was appended,
                    // the queue copies of the affected requests drive the
                    // retry. Drop whatever queued meanwhile too — the
                    // component is dead.
                    let mut state = queue.lock();
                    state.pending.clear();
                    state.settles.clear();
                    state.flushing = false;
                    return;
                }
            }
        }
    }

    /// Flushes every partition whose run is queued with no flusher: the
    /// leftovers of flushes that ran out of transient replays. Called from
    /// the component's timer tick; one atomic swap when nothing stalled.
    pub(crate) fn retry_stalled(
        &self,
        producer: &Producer<Envelope>,
        topic: &str,
        tracker: &SettleTracker,
    ) {
        if !self.stalled.swap(false, Ordering::AcqRel) {
            return;
        }
        let queues: Vec<(usize, Arc<Mutex<PartitionQueue>>)> = self
            .partitions
            .lock()
            .iter()
            .map(|(partition, queue)| (*partition, Arc::clone(queue)))
            .collect();
        for (partition, queue) in queues {
            {
                let mut state = queue.lock();
                if state.flushing || state.pending.is_empty() {
                    continue;
                }
                state.flushing = true;
            }
            self.flush_loop(producer, topic, partition, &queue, tracker);
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

    /// `(envelopes enqueued, batch appends performed)` since creation; the
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

/// Appends one run of routed requests — `(destination partition, envelope)`
/// pairs in send order — as **one produce round**
/// ([`kar_queue::Producer::send_round`]): grouped per partition with the
/// send order kept inside each group, one durable ack however many
/// partitions or destination components the run spans, all-or-nothing. A
/// transiently failed round is replayed whole a bounded number of times; the
/// duplicates an ack-lost round leaves behind are absorbed by request-id
/// dedup at the consumers. The one append path of the request leg; rounds
/// of different senders are not coalesced (a claim table that merged the
/// rounds contending for a partition won on none of the five benchmark
/// workloads against sending every round directly — see ROADMAP).
pub(crate) fn send_request_round(
    producer: &Producer<Envelope>,
    topic: &str,
    run: Run,
) -> KarResult<()> {
    // A run spans few distinct partitions, so a linear scan beats hashing.
    let mut groups: Vec<(usize, Vec<Envelope>)> = Vec::new();
    for (partition, envelope) in run {
        match groups.iter_mut().find(|(p, _)| *p == partition) {
            Some((_, group)) => group.push(envelope),
            None => groups.push((partition, vec![envelope])),
        }
    }
    // A replay copy is only kept while the fault plane is armed: an
    // un-faulted in-process broker has no transient append errors, so the
    // ordinary hot path moves the round without copying.
    if producer.faults_armed() {
        retry_transient(TRANSIENT_ATTEMPTS, || {
            producer.send_round(topic, groups.clone())
        })?;
    } else {
        producer.send_round(topic, groups)?;
    }
    Ok(())
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
            batcher.enqueue(&producer, "t", partition, response(id), None, &tracker);
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
                    batcher.enqueue(&producer, "t", 0, response(id), None, &tracker)
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
        batcher.enqueue(&producer, "t", 0, response(1), None, &tracker);
        assert_eq!(broker.partition_len("t", 0), 0);
        // The partition queue is not left in a "flushing" state that would
        // park later envelopes forever.
        batcher.enqueue(&producer, "t", 0, response(2), None, &tracker);
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
        batcher.enqueue(&producer, "t", 1, response(0), first, &tracker);
        assert_eq!(broker.partition_len("t", 1), 1);
        assert_eq!(tracker.snapshot()[0].open, 1);
        // The second one's flush fails (fenced mid-completion): the response
        // is dropped, and the request record must stay open — it is what
        // drives the retry.
        broker.fence(ComponentId::from_raw(1));
        let second = tracker.take(RequestId::from_raw(1));
        batcher.enqueue(&producer, "t", 1, response(1), second, &tracker);
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
        batcher.enqueue(&producer, "t", 1, response(0), settles, &tracker);
        assert_eq!(broker.partition_len("t", 1), 0);
        assert_eq!(tracker.snapshot()[0].open, 1);
        assert_eq!(batcher.stats(), (1, 0));
        // The timer re-arms the stalled partition: one more failure, then
        // the run goes out, in order, ahead of nothing else.
        batcher.retry_stalled(&producer, "t", &tracker);
        let ids: Vec<u64> = broker
            .read_partition("t", 1)
            .into_iter()
            .map(|record| record.payload.id().as_u64())
            .collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(tracker.snapshot()[0].open, 0, "the ack settles the record");
        assert_eq!(batcher.stats(), (1, 1));
        // Nothing stalled: the sweep is a no-op.
        batcher.retry_stalled(&producer, "t", &tracker);
        assert_eq!(broker.partition_len("t", 1), 1);
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
        batcher.enqueue(&producer, "t", 0, response(1), None, &tracker);
        assert_eq!(broker.partition_len("t", 0), 0);
        // The partition's next completion claims the released flush and
        // drains the stalled head first.
        batcher.enqueue(&producer, "t", 0, response(2), None, &tracker);
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
