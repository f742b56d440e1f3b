//! The delivery plane's append path: the produce round ([`RequestRound`])
//! every append a reactor makes is, and the per-destination-partition queues
//! that group-commit completions and one-partition outboxes into runs
//! ([`PartitionBatcher`]).
//!
//! Every response — and every tail-call continuation to the sending actor's
//! own partition — is a durable queue append, and so is every tell; a
//! partition acknowledges its appends strictly in sequence (a replicated log
//! does). On the call path that makes the response leg the dominant serial
//! resource: N invocations completing towards the same caller partition
//! used to pay N serialized acks. A tell tree pays the same on its way in:
//! N handlers telling one actor are N appends to one partition.
//!
//! The [`PartitionBatcher`] applies the classic group-commit idiom to both.
//! Completions, and the tells of every handler outbox that touches a single
//! partition, are enqueued per destination partition; the first enqueuer of
//! an idle partition claims its flush (a [`Flusher`]) and the component
//! sends the pending run as one [`RequestRound`] — one partition-lock
//! acquisition and one durable ack per flush. Nobody waits for that ack on
//! a thread: the round parks on the due-time heap like every other round
//! (see [`crate::io`]). A completion's enqueuer returns at once; an outbox's
//! handler waits in the queue (an [`OutboxWaiter`]) and resumes — on to its
//! state flush — only once the run carrying its tells is acknowledged.
//! Whatever arrives while a flush's ack is in flight simply joins the queue,
//! and the partition's next run leaves when that ack fires — so a burst of
//! K appends to one partition pays ~⌈K/batch⌉ acks instead of K. The
//! flusher hands its claim on (sends the next run, or releases the claim)
//! *before* it resumes the outboxes of the run that was acknowledged: an
//! outbox enqueued meanwhile never waits out their continuations.
//!
//! Ordering: enqueue order is preserved per destination partition among the
//! completions and among the tells (a run appends its completions, then its
//! tells, as one batch with contiguous offsets). One caller actor has at
//! most one outstanding nested call, so per-caller response order is
//! trivially preserved; one actor's next outbox is enqueued only after its
//! previous one was acknowledged, so per-sender tell order is too. There is
//! no cross-envelope ordering contract between envelopes of unrelated ids.
//!
//! Failure semantics match the unbatched path: a run's round replays
//! transient failures like any round, and a run that fails because the
//! component was fenced or killed mid-completion drops the buffered
//! completions and tells — exactly like a kill between the response hop and
//! the append — and the callers' queue copies drive the retry. A run that
//! only ran out of *transient* replays drops no completion: the requests it
//! answers are already recorded as completed (their retries would be
//! deduplicated away), so its completions go back to the head of their
//! queue, still claimed, and leave again one heartbeat later as a stage on
//! the due-time heap. Its tells are not requeued: their outboxes resume
//! with the error, exactly as if their own round had failed, and their
//! invocations fail into retry orchestration.
//!
//! Settlement: a completion may name the request record it settles (see
//! [`crate::settle`]). Those records ride the partition queue beside the
//! envelopes and are closed only when the flush's acknowledgement has
//! arrived and says yes, so a request record is never trimmed ahead of its
//! durable completion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_queue::Producer;
use kar_types::{Completion, Envelope, KarResult, RecordOrigin};

use crate::component::OutboxWaiter;
use crate::faults::TRANSIENT_ATTEMPTS;

/// The pending queue of one destination partition.
#[derive(Default)]
struct PartitionQueue {
    /// Completions — responses and tail-call continuations — in enqueue
    /// order.
    completions: Vec<Envelope>,
    /// Request records settled by the pending completions' acknowledgement.
    settles: Vec<RecordOrigin>,
    /// The tells of one-partition outboxes, in enqueue order.
    tells: Vec<Envelope>,
    /// The handlers those tells are from, each waiting for the ack of the
    /// run that carries them.
    waiters: Vec<OutboxWaiter>,
    /// True while a [`Flusher`] holds the partition's flush claim: later
    /// enqueuers leave their envelopes for its next run instead of paying
    /// their own ack.
    flushing: bool,
}

/// One run taken off a partition queue.
pub(crate) struct QueuedRun {
    /// The completions, then the tells.
    pub(crate) envelopes: Vec<Envelope>,
    /// How many of `envelopes` — the leading ones — are completions.
    pub(crate) completions: usize,
    /// Request records the run's acknowledgement settles.
    pub(crate) settles: Vec<RecordOrigin>,
    /// The outboxes whose tells the run carries.
    pub(crate) waiters: Vec<OutboxWaiter>,
}

/// The flush claim on one destination partition: held from the enqueue that
/// found the partition idle until a run finds the queue empty, or the flush
/// is abandoned. At most one exists per partition.
pub(crate) struct Flusher {
    partition: usize,
    queue: Arc<Mutex<PartitionQueue>>,
}

impl Flusher {
    /// The destination partition.
    pub(crate) fn partition(&self) -> usize {
        self.partition
    }

    /// Takes the queue's pending run — or, with nothing pending, releases
    /// the claim.
    pub(crate) fn next_run(&self) -> Option<QueuedRun> {
        let mut queue = self.queue.lock();
        if queue.completions.is_empty() && queue.tells.is_empty() {
            queue.flushing = false;
            return None;
        }
        let mut envelopes = std::mem::take(&mut queue.completions);
        let completions = envelopes.len();
        if envelopes.is_empty() {
            envelopes = std::mem::take(&mut queue.tells);
        } else {
            envelopes.append(&mut queue.tells);
        }
        Some(QueuedRun {
            envelopes,
            completions,
            settles: std::mem::take(&mut queue.settles),
            waiters: std::mem::take(&mut queue.waiters),
        })
    }

    /// Puts the completions of a failed run back at the head of the queue,
    /// ahead of whatever was enqueued meanwhile. The claim stays held.
    pub(crate) fn requeue(&self, mut completions: Vec<Envelope>, settles: Vec<RecordOrigin>) {
        let mut queue = self.queue.lock();
        completions.append(&mut queue.completions);
        queue.completions = completions;
        queue.settles.extend(settles);
    }

    /// Drops whatever is queued and releases the claim (the component was
    /// fenced or killed: unreleased completions and tells die with it).
    /// Hands back the outboxes that were waiting: their tells never left.
    pub(crate) fn abandon(self) -> Vec<OutboxWaiter> {
        let mut queue = self.queue.lock();
        queue.completions.clear();
        queue.settles.clear();
        queue.tells.clear();
        queue.flushing = false;
        std::mem::take(&mut queue.waiters)
    }
}

/// Per-destination-partition group commit for one component: completions
/// and one-partition outboxes.
#[derive(Default)]
pub(crate) struct PartitionBatcher {
    partitions: Mutex<HashMap<usize, Arc<Mutex<PartitionQueue>>>>,
    /// Completions enqueued since creation.
    enqueued: AtomicU64,
    /// Runs acknowledged that carried completions (each one lock
    /// acquisition + one durable ack); `enqueued / flushes` is the achieved
    /// amortization.
    flushes: AtomicU64,
}

impl PartitionBatcher {
    /// Enqueues `envelope` for `partition` — `settles` is the request record
    /// it settles — and hands back the partition's flush claim if nobody
    /// held it: the caller sends the pending run. Otherwise the flush under
    /// way takes the envelope with its next run, and the enqueuer's ack is
    /// amortized away entirely. Every completion comes here the moment its
    /// invocation responds; the grouping is the flusher claim's alone.
    pub(crate) fn enqueue(
        &self,
        partition: usize,
        envelope: Envelope,
        settles: Option<RecordOrigin>,
    ) -> Option<Flusher> {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.claim(partition, |queue| {
            queue.completions.push(envelope);
            queue.settles.extend(settles);
        })
    }

    /// Enqueues a finished handler's outbox — `tells`, every one bound for
    /// `partition` — and hands back the partition's flush claim if nobody
    /// held it. `waiter` resumes once the run carrying the tells is
    /// acknowledged (see [`Flusher::next_run`]).
    pub(crate) fn enqueue_outbox(
        &self,
        partition: usize,
        mut tells: Vec<Envelope>,
        waiter: OutboxWaiter,
    ) -> Option<Flusher> {
        self.claim(partition, |queue| {
            if queue.tells.is_empty() {
                queue.tells = tells;
            } else {
                queue.tells.append(&mut tells);
            }
            queue.waiters.push(waiter);
        })
    }

    /// Adds to `partition`'s queue with `push`, and claims its flush if it
    /// is idle.
    fn claim(&self, partition: usize, push: impl FnOnce(&mut PartitionQueue)) -> Option<Flusher> {
        let queue = Arc::clone(self.partitions.lock().entry(partition).or_default());
        {
            let mut state = queue.lock();
            push(&mut state);
            if state.flushing {
                return None;
            }
            state.flushing = true;
        }
        Some(Flusher { partition, queue })
    }

    /// Counts one acknowledged run that carried completions.
    pub(crate) fn flushed(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every pending envelope and waiting outbox (the component was
    /// killed: unreleased completions and tells die with it, like any
    /// in-memory state, and no waiting handler resumes).
    pub(crate) fn clear(&self) {
        for queue in self.partitions.lock().values() {
            let mut state = queue.lock();
            state.completions.clear();
            state.settles.clear();
            state.tells.clear();
            state.waiters.clear();
        }
    }

    /// `(completions enqueued, runs acknowledged that carried completions)`
    /// since creation; the ratio is the response-batching amortization
    /// factor. Tells are counted on the request leg
    /// (`ComponentCore::request_batch_stats`).
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.enqueued.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
        )
    }

    /// `(envelopes, waiting outboxes)` queued over every partition.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> (usize, usize) {
        self.partitions
            .lock()
            .values()
            .fold((0, 0), |(envelopes, waiters), queue| {
                let state = queue.lock();
                (
                    envelopes + state.completions.len() + state.tells.len(),
                    waiters + state.waiters.len(),
                )
            })
    }
}

/// A run of routed envelopes, grouped by destination partition with the
/// send order kept inside each group: one partition's batch — every response
/// run and retry copy, and most request runs — or the groups of several
/// partitions, in the order each partition was first named. A one-partition
/// run is its envelope list and nothing else.
#[derive(Clone)]
pub(crate) enum Run {
    /// Every envelope is bound for one partition.
    Batch(usize, Vec<Envelope>),
    /// Envelopes bound for several partitions (or none yet).
    Groups(Vec<(usize, Vec<Envelope>)>),
}

impl Default for Run {
    fn default() -> Self {
        Run::Groups(Vec::new())
    }
}

impl Run {
    /// Adds `envelope`, bound for `partition`, behind everything the run
    /// already sends there.
    pub(crate) fn push(&mut self, partition: usize, envelope: Envelope) {
        match self {
            Run::Batch(only, envelopes) if *only == partition => envelopes.push(envelope),
            Run::Batch(only, envelopes) => {
                let first = (*only, std::mem::take(envelopes));
                *self = Run::Groups(vec![first, (partition, vec![envelope])]);
            }
            Run::Groups(groups) if groups.is_empty() => {
                *self = Run::Batch(partition, vec![envelope]);
            }
            // A run spans few distinct partitions, so a linear scan beats
            // hashing.
            Run::Groups(groups) => match groups.iter_mut().find(|(p, _)| *p == partition) {
                Some((_, group)) => group.push(envelope),
                None => groups.push((partition, vec![envelope])),
            },
        }
    }

    /// How many envelopes the run carries.
    pub(crate) fn len(&self) -> usize {
        match self {
            Run::Batch(_, envelopes) => envelopes.len(),
            Run::Groups(groups) => groups.iter().map(|(_, group)| group.len()).sum(),
        }
    }

    /// How many distinct partitions the run touches.
    pub(crate) fn partitions(&self) -> usize {
        match self {
            Run::Batch(..) => 1,
            Run::Groups(groups) => groups.len(),
        }
    }

    /// Submits the run as one produce round — a batch when it touches one
    /// partition — and returns the completion of its acknowledgement.
    fn submit(self, producer: &Producer<Envelope>, topic: &str) -> KarResult<Completion<()>> {
        Ok(match self {
            Run::Batch(partition, envelopes) => producer
                .submit_batch(topic, partition, envelopes)?
                .map(drop),
            Run::Groups(groups) => producer.submit_round(topic, groups)?.map(drop),
        })
    }

    /// The envelopes, in group order.
    fn into_envelopes(self) -> Vec<Envelope> {
        match self {
            Run::Batch(_, envelopes) => envelopes,
            Run::Groups(groups) => groups.into_iter().flat_map(|(_, group)| group).collect(),
        }
    }
}

/// One **produce round** ([`kar_queue::Producer::submit_round`]): envelopes
/// grouped per partition with the send order kept inside each group, one
/// durable ack however many partitions or destination components the round
/// spans, all-or-nothing. A transiently failed round — refused at submit, or
/// its ack lost and learnt of when it was due — is replayed whole a bounded
/// number of times; the duplicates an ack-lost round leaves behind are
/// absorbed by request-id dedup at the consumers. The one append path of a
/// reactor: a request run, a response run and a retry copy are all rounds.
/// One-partition outboxes of different senders share a round through the
/// [`PartitionBatcher`]: on the benchmark's `fanout_ack` the eight leaves
/// telling one `Sink` used to land as eight single-record rounds acked one
/// `queue_append` apart (16 request rounds per op, 1.44 records each); in
/// the partition's queue they take 14.1 rounds of 1.63, and the op's p50
/// goes 26.9 → 24.5 ms. Every other run — a multi-partition outbox, a
/// nested call's, a forward, a tail-call successor, a retry copy — is a
/// round of its own.
///
/// A reactor drives it as `submit` → park until the returned due time →
/// `settle` (see [`crate::io`]); an edge thread runs the same sequence with
/// a blocking wait in the middle.
pub(crate) struct RequestRound {
    /// Kept for a replay only while a fault plan is armed: an un-faulted
    /// in-process broker has no transient append errors, so the ordinary hot
    /// path moves the round into the broker without copying.
    run: Option<Run>,
    /// Submits left, the first included.
    submits_left: u32,
    /// What the latest submit's ack says, learnt when it is due.
    acked: KarResult<()>,
}

impl RequestRound {
    pub(crate) fn new(run: Run) -> Self {
        RequestRound {
            run: Some(run),
            submits_left: TRANSIENT_ATTEMPTS,
            acked: Ok(()),
        }
    }

    /// A round of envelopes bound for one partition: a response run, a
    /// retry copy.
    pub(crate) fn batch(partition: usize, envelopes: Vec<Envelope>) -> Self {
        Self::new(Run::Batch(partition, envelopes))
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
            let run = if producer.faults_armed() {
                self.run.clone()
            } else {
                self.submits_left = 0;
                self.run.take()
            };
            let run = run.expect("a round is submitted again only from its replay copy");
            match run.submit(producer, topic) {
                Ok(Completion { due, result }) => {
                    self.acked = result;
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

    /// The ack is in: the round's outcome — durable, or failed for good — or
    /// `None` when the ack was lost and a replay is left (submit it again).
    pub(crate) fn settle(&mut self) -> Option<KarResult<()>> {
        match &self.acked {
            Err(error) if error.is_transient() && self.submits_left > 0 => None,
            _ => Some(std::mem::replace(&mut self.acked, Ok(()))),
        }
    }

    /// The envelopes the round kept for its replays, in group order: all of
    /// them while a fault plan is armed, none otherwise.
    pub(crate) fn into_kept(self) -> Vec<Envelope> {
        self.run.map(Run::into_envelopes).unwrap_or_default()
    }
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
        if let Some(outcome) = round.settle() {
            return outcome;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{lone_core, run_parked, ComponentCore};
    use crate::config::MeshConfig;
    use kar_queue::{Broker, BrokerConfig};
    use kar_types::{ComponentId, RequestId, ResponseMessage, Value};
    use std::time::Duration;

    /// A broker holding the lone core's topic, with `partitions` partitions.
    fn broker_with(config: BrokerConfig, partitions: usize) -> Broker<Envelope> {
        let broker = Broker::new(config);
        broker.create_topic("topic", partitions).unwrap();
        broker
    }

    fn response(id: u64) -> Envelope {
        Envelope::Response(ResponseMessage::ok(
            RequestId::from_raw(id),
            None,
            Value::Int(id as i64),
        ))
    }

    fn ids(core: &ComponentCore, partition: usize) -> Vec<u64> {
        core.broker
            .read_partition("topic", partition)
            .into_iter()
            .map(|record| record.payload.id().as_u64())
            .collect()
    }

    #[test]
    fn enqueue_appends_in_order_per_partition() {
        let core = lone_core(
            MeshConfig::for_tests(),
            broker_with(BrokerConfig::default(), 2),
        );
        for id in 0..6 {
            core.send_completion((id % 2) as usize, response(id), None);
        }
        for partition in 0..2 {
            let expected: Vec<u64> = (0..6).filter(|id| (id % 2) as usize == partition).collect();
            assert_eq!(ids(&core, partition), expected, "partition {partition}");
        }
        let (enqueued, flushes) = core.response_batch_stats();
        assert_eq!(enqueued, 6);
        assert!((1..=6).contains(&flushes));
    }

    #[test]
    fn concurrent_completions_share_durable_acks() {
        // 8 threads complete towards one destination partition at a 2 ms
        // ack: with group commit the burst shares flushes, and every
        // response must still land exactly once.
        let broker = broker_with(
            BrokerConfig {
                append_latency: Duration::from_millis(2),
                ..BrokerConfig::default()
            },
            1,
        );
        let core = lone_core(MeshConfig::for_tests(), broker);
        let threads: Vec<_> = (0..8)
            .map(|id| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || core.send_completion(0, response(id), None))
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        // Nobody waited for an ack: the runs are parked on them.
        run_parked(&core);
        let mut landed = ids(&core, 0);
        landed.sort_unstable();
        assert_eq!(landed, (0..8).collect::<Vec<u64>>());
        let (_, flushes) = core.response_batch_stats();
        assert!(
            flushes < 8,
            "8 concurrent completions never shared a flush ({flushes} flushes)"
        );
    }

    #[test]
    fn failed_flush_drops_the_batch_without_wedging() {
        let core = lone_core(
            MeshConfig::for_tests(),
            broker_with(BrokerConfig::default(), 1),
        );
        core.broker.fence(core.id());
        core.send_completion(0, response(1), None);
        assert_eq!(core.broker.partition_len("topic", 0), 0);
        // The partition queue is not left claimed, which would park later
        // envelopes forever.
        core.send_completion(0, response(2), None);
        assert_eq!(core.broker.partition_len("topic", 0), 0);
        assert_eq!(core.response_batch_stats(), (2, 0));
    }

    #[test]
    fn only_an_acknowledged_flush_settles_the_records_it_completes() {
        let core = lone_core(
            MeshConfig::for_tests(),
            broker_with(BrokerConfig::default(), 2),
        );
        // Two requests polled from home partition 0, both still open.
        let polled: Vec<_> = (0..2)
            .map(|offset| kar_queue::Record {
                offset,
                appended_at: Duration::ZERO,
                payload: Arc::new(request(offset, "a").1),
            })
            .collect();
        core.settle.routed(0, &polled);
        let open = || core.settle_snapshot()[0].open;
        assert_eq!(open(), 2);
        // The first one's response is acknowledged: its record settles.
        let first = core.settle.take(RequestId::from_raw(0));
        assert!(first.is_some());
        core.send_completion(1, response(0), first);
        assert_eq!(core.broker.partition_len("topic", 1), 1);
        assert_eq!(open(), 1);
        // The second one's flush fails (fenced mid-completion): the response
        // is dropped, and the request record must stay open — it is what
        // drives the retry.
        core.broker.fence(core.id());
        let second = core.settle.take(RequestId::from_raw(1));
        core.send_completion(1, response(1), second);
        assert_eq!(core.broker.partition_len("topic", 1), 1);
        assert_eq!(open(), 1);
    }

    /// A broker configuration whose first `failures` appends fail
    /// transiently.
    fn failing_broker_config(failures: u32) -> BrokerConfig {
        use kar_types::{FaultInjector, FaultPlan, FaultSite, FaultSpec};

        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0).with_budget(u64::from(failures)),
        );
        BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        }
    }

    /// A broker whose first `failures` appends fail transiently.
    fn failing_broker(failures: u32, partitions: usize) -> Broker<Envelope> {
        broker_with(failing_broker_config(failures), partitions)
    }

    #[test]
    fn a_flush_out_of_transient_replays_keeps_its_run_for_the_timer() {
        // One more consecutive append failure than a round replays through.
        let core = lone_core(
            MeshConfig::for_tests(),
            failing_broker(TRANSIENT_ATTEMPTS + 1, 2),
        );
        let polled = [kar_queue::Record {
            offset: 0,
            appended_at: Duration::ZERO,
            payload: Arc::new(request(0, "a").1),
        }];
        core.settle.routed(0, &polled);
        let settles = core.settle.take(RequestId::from_raw(0));
        // The run uses up its replays: nothing landed, nothing settled — and
        // nothing was dropped: `finish()` has already recorded the request
        // as completed, so no retry would regenerate the response.
        let stalled_at = kar_types::mono_now();
        core.send_completion(1, response(0), settles);
        assert_eq!(core.broker.partition_len("topic", 1), 0);
        assert_eq!(core.settle_snapshot()[0].open, 1);
        assert_eq!(core.response_batch_stats(), (1, 0));
        // It waits out one heartbeat on the due-time heap: one more failure,
        // then the run goes out, and its ack settles the record.
        run_parked(&core);
        assert!(kar_types::mono_now() - stalled_at >= core.config.scaled_heartbeat_interval());
        assert_eq!(ids(&core, 1), vec![0]);
        assert_eq!(
            core.settle_snapshot()[0].open,
            0,
            "the ack settles the record"
        );
        assert_eq!(core.response_batch_stats(), (1, 1));
    }

    #[test]
    fn a_stalled_run_goes_out_ahead_of_the_next_completion() {
        let core = lone_core(
            MeshConfig::for_tests(),
            failing_broker(TRANSIENT_ATTEMPTS, 1),
        );
        core.send_completion(0, response(1), None);
        assert_eq!(core.broker.partition_len("topic", 0), 0);
        // The stalled run keeps its partition's claim: the next completion
        // joins the queue behind it, and both leave together.
        core.send_completion(0, response(2), None);
        assert_eq!(core.broker.partition_len("topic", 0), 0);
        run_parked(&core);
        assert_eq!(ids(&core, 0), vec![1, 2]);
        assert_eq!(core.response_batch_stats(), (2, 1));
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
        let mut run = Run::default();
        for id in first_id..first_id + count {
            run.push((id as usize) % partitions, request(id, "a").1);
        }
        run
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
        assert_eq!(run(0, 12, 4).partitions(), 4);
        assert_eq!(run(0, 12, 4).len(), 12);
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

    // ------------------------------------------------------------------
    // One-partition outboxes in the partition queue
    // ------------------------------------------------------------------

    use crate::component::{deliver, run_next_due};
    use crate::placement::{host_field, hosts_key};
    use kar_queue::PartitionSet;
    use kar_types::VirtualClock;

    /// The append latency of the outbox tests' broker.
    const ACK: Duration = Duration::from_millis(2);

    /// A lone core whose one partition acks appends `ACK` after submit, on a
    /// virtual clock installed on this thread (the test's stages run here,
    /// so each `ACK` is read off the clock exactly). It is live and
    /// announces `Ledger`, so its handlers' tells place onto partition 0.
    fn telling_core(config: BrokerConfig) -> (Arc<ComponentCore>, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        kar_types::install_virtual_clock(Arc::clone(&clock));
        let config = BrokerConfig {
            append_latency: ACK,
            ..config
        };
        let core = lone_core(MeshConfig::for_tests(), broker_with(config, 1));
        core.membership.publish(|members| {
            members.live.insert(core.id());
            members
                .topology
                .insert(core.id(), PartitionSet::contiguous(0, 1));
        });
        core.store
            .admin_hset(&hosts_key("Ledger"), &host_field(core.id()), Value::Null);
        (core, clock)
    }

    /// A root request to `Ledger/actor`.
    fn ledger(id: u64, actor: &str, method: &str, arg: Value) -> RequestMessage {
        let target = ActorRef::new("Ledger", actor);
        RequestMessage::root(RequestId::from_raw(id), target, method, vec![arg])
    }

    /// `Ledger/actor`'s durable state.
    fn state(core: &ComponentCore, actor: &str) -> HashMap<String, Value> {
        core.store
            .admin_hgetall(&format!("state/Ledger/{actor}"))
            .into_iter()
            .collect()
    }

    /// When the tell to `Ledger/target` was appended to partition 0.
    fn told_at(core: &ComponentCore, target: &str) -> Option<Duration> {
        let target = ActorRef::new("Ledger", target);
        core.broker
            .read_partition("topic", 0)
            .into_iter()
            .find(|record| {
                matches!(&*record.payload, Envelope::Request(request) if request.target == target)
            })
            .map(|record| record.appended_at)
    }

    #[test]
    fn outboxes_enqueued_under_an_ack_in_flight_leave_as_one_run() {
        const K: u64 = 4;
        let (core, _clock) = telling_core(BrokerConfig::default());
        // A response holds partition 0's claim, its run's ack due at 2 ms.
        core.send_completion(0, response(100), None);
        for i in 0..K {
            let teller = format!("w{i}");
            deliver(
                &core,
                ledger(i, &teller, "tell", Value::from(format!("t{i}"))),
            );
        }
        // Every handler has returned, and its outbox waits in the queue.
        for i in 0..K {
            assert!(
                state(&core, &format!("w{i}")).is_empty(),
                "w{i} flushed early"
            );
        }
        assert_eq!(core.batcher.queued(), (K as usize, K as usize));
        // The response's ack sends the K tells as one run...
        assert_eq!(run_next_due(&core), ACK);
        assert_eq!(core.batcher.queued(), (0, 0));
        for i in 0..K {
            assert_eq!(told_at(&core, &format!("t{i}")), Some(ACK));
            // ...and none of their state flushes leaves before its ack.
            assert!(
                state(&core, &format!("w{i}")).is_empty(),
                "w{i} flushed early"
            );
        }
        assert_eq!(run_next_due(&core), 2 * ACK);
        for i in 0..K {
            assert_eq!(
                state(&core, &format!("w{i}")).get("done"),
                Some(&Value::Int(1))
            );
        }
        run_parked(&core);
        assert_eq!(core.request_batch_stats(), (K, 1), "K tells, one round");
        assert_eq!(core.response_batch_stats(), (1, 1));
        kar_types::clear_virtual_clock();
    }

    #[test]
    fn an_outbox_enqueued_while_earlier_ones_resume_never_waits_them_out() {
        let (core, _clock) = telling_core(BrokerConfig::default());
        core.send_completion(0, response(100), None);
        // Two outboxes wait for the next run. Behind the first one's
        // handler its actor has another outbox to send; behind the
        // second's, a handler computing for 5 ms.
        deliver(&core, ledger(1, "x", "tell", Value::from("t1")));
        deliver(&core, ledger(2, "y", "tell", Value::from("t2")));
        deliver(&core, ledger(3, "x", "tell", Value::from("t3")));
        deliver(&core, ledger(4, "y", "slow", Value::Int(5)));
        assert_eq!(run_next_due(&core), ACK);
        // The run carrying t1 and t2 is acknowledged and both outboxes
        // resume, y's into its slow handler; x's next outbox leaves at once,
        // not once that handler is done.
        let slow = Duration::from_millis(5);
        assert_eq!(run_next_due(&core), 2 * ACK + slow);
        assert_eq!(told_at(&core, "t3"), Some(2 * ACK));
        run_parked(&core);
        assert_eq!(state(&core, "x").get("done"), Some(&Value::Int(1)));
        assert_eq!(core.request_batch_stats(), (3, 2));
        kar_types::clear_virtual_clock();
    }

    #[test]
    fn a_run_out_of_transient_replays_fails_its_outboxes_and_requeues_its_completions() {
        // Two runs' worth of consecutive append failures.
        let (core, _clock) = telling_core(failing_broker_config(2 * TRANSIENT_ATTEMPTS));
        // A response run stalls, keeping the claim for a heartbeat; an
        // outbox and another response queue behind it.
        core.send_completion(0, response(1), None);
        let mut teller = ledger(5, "w", "tell", Value::from("t"));
        teller.reply_to = Some(core.id());
        deliver(&core, teller);
        core.send_completion(0, response(2), None);
        assert_eq!(core.batcher.queued(), (3, 1));
        // The stalled run leaves with them and runs out of replays too.
        run_next_due(&core);
        assert_eq!(core.broker.partition_len("topic", 0), 0);
        run_parked(&core);
        // The outbox resumed with the error: the write behind its tell was
        // rolled back, the one before it flushed, and the handler failed
        // into an error response. The responses went out once the appends
        // worked again; the failed tell was not requeued.
        let state = state(&core, "w");
        assert_eq!(state.get("before"), Some(&Value::Int(1)));
        assert_eq!(state.get("done"), None, "a guarded write outlived its tell");
        assert_eq!(ids(&core, 0), vec![1, 2, 5]);
        let records = core.broker.read_partition("topic", 0);
        assert!(
            matches!(&*records[2].payload, Envelope::Response(r) if r.result.is_err()),
            "the outbox's handler did not fail"
        );
        assert_eq!(told_at(&core, "t"), None);
        assert_eq!(core.request_batch_stats(), (0, 0));
        assert_eq!(core.response_batch_stats(), (3, 1));
        kar_types::clear_virtual_clock();
    }

    #[test]
    fn kill_drops_queued_tells_and_waiting_outboxes_with_the_queued_responses() {
        let (core, _clock) = telling_core(BrokerConfig::default());
        // w1's outbox claims the idle partition: its run is in flight.
        // A response and w2's outbox queue behind it.
        deliver(&core, ledger(1, "w1", "tell", Value::from("t1")));
        core.send_completion(0, response(100), None);
        deliver(&core, ledger(2, "w2", "tell", Value::from("t2")));
        assert_eq!(core.batcher.queued(), (2, 1));
        core.kill();
        assert_eq!(core.batcher.queued(), (0, 0));
        run_parked(&core);
        // Only the run that left before the kill is in the log, and neither
        // handler ever reached its state flush.
        assert_eq!(core.broker.partition_len("topic", 0), 1);
        assert_eq!(told_at(&core, "t1"), Some(Duration::ZERO));
        assert!(state(&core, "w1").is_empty());
        assert!(state(&core, "w2").is_empty());
        kar_types::clear_virtual_clock();
    }
}
