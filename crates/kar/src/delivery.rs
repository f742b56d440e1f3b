//! Per-destination batching (group commit for the delivery plane): response
//! batching per destination partition ([`ResponseBatcher`]) and request
//! batching per destination component ([`RequestBatcher`]).
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
//! Failure semantics match the unbatched path: a flush that fails (the
//! component was fenced or killed mid-completion) drops the buffered
//! responses — exactly like a kill between `send_response` and the append —
//! and the callers' queue copies drive the retry.
//!
//! Settlement: a completion may name the request record it settles (see
//! [`crate::settle`]). Those records ride the partition queue beside the
//! envelopes and are closed only in the flush's acknowledged arm, so a
//! request record is never trimmed ahead of its durable completion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_queue::{PartitionSet, Producer};
use kar_types::{ComponentId, Envelope, KarError, KarResult, RecordOrigin, WaitSignal};

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
                Err(error)
                    if error.is_transient()
                        && transient_rounds + 1 < crate::faults::TRANSIENT_ATTEMPTS
                        && replay.is_some() =>
                {
                    transient_rounds += 1;
                    let mut state = queue.lock();
                    state
                        .pending
                        .splice(0..0, replay.expect("guarded by is_some"));
                    state.settles.extend(settles);
                }
                Err(_) => {
                    // Fenced or killed mid-completion (or transient replays
                    // exhausted): nothing was appended, the queue copies of
                    // the affected requests drive the retry. Drop whatever
                    // queued meanwhile too — the component is dead.
                    let mut state = queue.lock();
                    state.pending.clear();
                    state.settles.clear();
                    state.flushing = false;
                    return;
                }
            }
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

/// The pending queue of one destination *component* on the request leg.
#[derive(Default)]
struct DestinationQueue {
    /// `(routing key, envelope)` pairs awaiting the next keyed batch append.
    pending: Vec<(String, Envelope)>,
    /// True while some thread is flushing this destination.
    flushing: bool,
    /// Tickets issued to enqueuers; ticket N is the (N+1)-th envelope ever
    /// enqueued for this destination.
    issued: u64,
    /// Tickets whose envelope has been durably appended.
    completed: u64,
    /// Sticky failure: this producer was fenced/killed or the destination's
    /// partition set vanished. All parked and future sends fail fast.
    /// Transient append failures (injected gray faults) are *not* terminal:
    /// the flusher replays the round a bounded number of times before it
    /// concludes the substrate is genuinely down and poisons the queue.
    poisoned: bool,
}

/// One destination's queue plus the signal its waiters park on.
#[derive(Default)]
struct DestinationState {
    queue: Mutex<DestinationQueue>,
    /// Bumped whenever `completed` advances or the queue is poisoned.
    progress: WaitSignal,
}

/// Per-destination-component request batching: the request-leg mirror of
/// [`ResponseBatcher`].
///
/// The request leg differs from the response leg in two ways. First, sends
/// are *keyed*: each request hashes onto its destination's home set by actor
/// key, so a burst towards one component is flushed through
/// [`kar_queue::Producer::send_keyed_batch`] — one topic-lock traversal and
/// one durable ack per flush, fanned out to the set's partitions inside the
/// broker. Second, `send_request` has a durability contract (`ctx.tell`
/// returns *after* the request is durably enqueued), so enqueuers cannot
/// fire-and-forget: each takes a ticket and parks on the destination's
/// progress signal until its ticket is covered by a completed flush (or the
/// queue is poisoned by a failed one). The first enqueuer of an idle
/// destination becomes the flusher, exactly like the response leg.
#[derive(Default)]
pub(crate) struct RequestBatcher {
    destinations: Mutex<HashMap<ComponentId, Arc<DestinationState>>>,
    /// Envelopes enqueued since creation.
    enqueued: AtomicU64,
    /// Keyed batch appends performed; `enqueued / flushes` is the achieved
    /// request-leg amortization.
    flushes: AtomicU64,
}

impl RequestBatcher {
    pub(crate) fn new() -> Self {
        RequestBatcher::default()
    }

    fn destination(&self, component: ComponentId) -> Arc<DestinationState> {
        self.destinations
            .lock()
            .entry(component)
            .or_default()
            .clone()
    }

    /// Appends `envelope` (keyed by `key`) to `destination`'s queue, batched
    /// with concurrent sends towards the same destination. Returns once the
    /// append is durable. `set_of` resolves a component's current partition
    /// set — looked up at *flush* time, so a batch drained after a topology
    /// update routes over the fresh set.
    pub(crate) fn send(
        &self,
        producer: &Producer<Envelope>,
        topic: &str,
        set_of: impl Fn(ComponentId) -> Option<PartitionSet>,
        destination: ComponentId,
        key: String,
        envelope: Envelope,
    ) -> KarResult<()> {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let state = self.destination(destination);
        let ticket = {
            let mut queue = state.queue.lock();
            if queue.poisoned {
                return Err(Self::poison_error(destination));
            }
            let ticket = queue.issued;
            queue.issued += 1;
            queue.pending.push((key, envelope));
            if queue.flushing {
                // An in-flight flusher will drain this envelope on its next
                // round; park until it covers our ticket.
                ticket
            } else {
                queue.flushing = true;
                drop(queue);
                return self.flush(producer, topic, set_of, destination, &state, ticket);
            }
        };
        self.await_ticket(&state, destination, ticket)
    }

    /// Drains the destination queue in rounds until it is empty, appending
    /// each drained run as one keyed batch. Returns the fate of the caller's
    /// own ticket.
    fn flush(
        &self,
        producer: &Producer<Envelope>,
        topic: &str,
        set_of: impl Fn(ComponentId) -> Option<PartitionSet>,
        destination: ComponentId,
        state: &DestinationState,
        my_ticket: u64,
    ) -> KarResult<()> {
        // Consecutive transiently-failed rounds replayed so far. A gray
        // failure on one flush (an injected transient or dropped ack) must
        // not poison the destination forever; the round is re-queued and
        // re-sent instead. Duplicate records from an ack-lost append are
        // absorbed by request-id dedup at the consumer.
        let mut transient_rounds = 0u32;
        loop {
            let batch = {
                let mut queue = state.queue.lock();
                if queue.pending.is_empty() {
                    queue.flushing = false;
                    return Ok(());
                }
                std::mem::take(&mut queue.pending)
            };
            let count = batch.len() as u64;
            // A replay copy is only kept while the fault plane is armed: an
            // un-faulted in-process broker has no transient append errors,
            // so the ordinary hot path moves the batch without copying.
            let replay = producer.faults_armed().then(|| batch.clone());
            let appended = match set_of(destination) {
                Some(set) => producer
                    .send_keyed_batch(topic, &set, batch)
                    .map(|_offsets| ()),
                None => Err(KarError::internal(format!(
                    "no partition set recorded for {destination}"
                ))),
            };
            let error = match appended {
                Ok(()) => {
                    self.flushes.fetch_add(1, Ordering::Relaxed);
                    transient_rounds = 0;
                    let mut queue = state.queue.lock();
                    queue.completed += count;
                    drop(queue);
                    state.progress.bump();
                    continue;
                }
                Err(error) => error,
            };
            if error.is_transient() && transient_rounds + 1 < crate::faults::TRANSIENT_ATTEMPTS {
                if let Some(replay) = replay {
                    transient_rounds += 1;
                    // Restore the round at the front so envelopes still go
                    // out in ticket order ahead of newly queued ones, and
                    // let the loop re-drain it.
                    let mut queue = state.queue.lock();
                    queue.pending.splice(0..0, replay);
                    continue;
                }
            }
            // Fenced/killed mid-send, the destination is gone, or transient
            // replays are exhausted (the substrate is genuinely down):
            // terminal for this component. Poison the destination so parked
            // and future enqueuers fail fast instead of waiting out their
            // ticket.
            let completed = {
                let mut queue = state.queue.lock();
                queue.poisoned = true;
                queue.pending.clear();
                queue.flushing = false;
                queue.completed
            };
            state.progress.bump();
            // Our own envelope was in an earlier, successful round iff our
            // ticket is already covered.
            return if completed > my_ticket {
                Ok(())
            } else {
                Err(error)
            };
        }
    }

    /// Parks until `ticket` is covered by a completed flush or the
    /// destination is poisoned.
    fn await_ticket(
        &self,
        state: &DestinationState,
        destination: ComponentId,
        ticket: u64,
    ) -> KarResult<()> {
        loop {
            let seen = state.progress.current();
            {
                let queue = state.queue.lock();
                if queue.completed > ticket {
                    return Ok(());
                }
                if queue.poisoned {
                    return Err(Self::poison_error(destination));
                }
            }
            state.progress.wait(seen, Duration::from_millis(50));
        }
    }

    fn poison_error(destination: ComponentId) -> KarError {
        KarError::internal(format!(
            "request batching towards {destination} failed: producer fenced or destination gone"
        ))
    }

    /// Poisons every destination and wakes parked enqueuers (the component
    /// was killed: buffered requests die with it; waiters fail fast).
    pub(crate) fn clear(&self) {
        for state in self.destinations.lock().values() {
            let mut queue = state.queue.lock();
            queue.poisoned = true;
            queue.pending.clear();
            queue.flushing = false;
            drop(queue);
            state.progress.bump();
        }
    }

    /// `(envelopes enqueued, keyed batch appends performed)` since creation;
    /// the ratio is the request-batching amortization factor.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.enqueued.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_queue::{Broker, BrokerConfig};
    use kar_types::{RequestId, ResponseMessage, Value};
    use std::collections::HashSet;

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
        // ack: serialized that is >= 16 ms of acks; with group commit the
        // burst must finish in well under half that, and every response must
        // still land exactly once.
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            append_latency: Duration::from_millis(2),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 1).unwrap();
        let producer = Arc::new(broker.producer(ComponentId::from_raw(1)));
        let batcher = Arc::new(ResponseBatcher::new());
        let tracker = Arc::new(SettleTracker::new(&[]));
        let started = std::time::Instant::now();
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
        let elapsed = started.elapsed();
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
        assert!(
            elapsed < Duration::from_millis(14),
            "group commit did not amortize the acks: {elapsed:?}"
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

    use kar_types::{ActorRef, RequestMessage};

    fn request(id: u64, actor: &str) -> (String, Envelope) {
        let target = ActorRef::new("A", actor);
        let key = target.qualified_name();
        let message = RequestMessage::root(RequestId::from_raw(id), target, "m", Vec::new());
        (key, Envelope::Request(message))
    }

    fn keyed_setup(partitions: usize) -> (Broker<Envelope>, Producer<Envelope>, PartitionSet) {
        let broker: Broker<Envelope> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", partitions).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let set = PartitionSet::new((0..partitions).collect());
        (broker, producer, set)
    }

    #[test]
    fn request_batcher_is_durable_on_return_and_keyed() {
        let (broker, producer, set) = keyed_setup(4);
        let batcher = RequestBatcher::new();
        let destination = ComponentId::from_raw(9);
        for id in 0..12 {
            let (key, envelope) = request(id, &format!("a{}", id % 3));
            batcher
                .send(
                    &producer,
                    "t",
                    |_| Some(set.clone()),
                    destination,
                    key,
                    envelope,
                )
                .unwrap();
            // Durability on return: every send is visible once it returns.
            let total: usize = (0..4).map(|p| broker.read_partition("t", p).len()).sum();
            assert_eq!(total, (id + 1) as usize);
        }
        // Keyed routing: one actor's requests all land in one partition, so
        // each of the 3 actors occupies exactly one partition.
        let mut homes: HashMap<String, HashSet<usize>> = HashMap::new();
        for partition in 0..4 {
            for record in broker.read_partition("t", partition) {
                if let Envelope::Request(request) = record.payload.as_ref() {
                    homes
                        .entry(request.target.qualified_name())
                        .or_default()
                        .insert(partition);
                }
            }
        }
        assert_eq!(homes.len(), 3);
        assert!(homes.values().all(|partitions| partitions.len() == 1));
        let (enqueued, flushes) = batcher.stats();
        assert_eq!(enqueued, 12);
        assert!((1..=12).contains(&flushes));
    }

    #[test]
    fn concurrent_request_sends_share_keyed_batches() {
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            append_latency: Duration::from_millis(2),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 2).unwrap();
        let producer = Arc::new(broker.producer(ComponentId::from_raw(1)));
        let set = PartitionSet::new((0..2).collect());
        let batcher = Arc::new(RequestBatcher::new());
        let destination = ComponentId::from_raw(9);
        let started = std::time::Instant::now();
        let threads: Vec<_> = (0..8)
            .map(|id| {
                let producer = Arc::clone(&producer);
                let batcher = Arc::clone(&batcher);
                let set = set.clone();
                std::thread::spawn(move || {
                    let (key, envelope) = request(id, &format!("a{id}"));
                    batcher
                        .send(
                            &producer,
                            "t",
                            |_| Some(set.clone()),
                            destination,
                            key,
                            envelope,
                        )
                        .unwrap();
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let elapsed = started.elapsed();
        let total: usize = (0..2).map(|p| broker.read_partition("t", p).len()).sum();
        assert_eq!(total, 8, "every request must land exactly once");
        let (_, flushes) = batcher.stats();
        assert!(
            flushes < 8,
            "8 concurrent sends never shared a flush ({flushes} flushes)"
        );
        assert!(
            elapsed < Duration::from_millis(14),
            "request batching did not amortize the acks: {elapsed:?}"
        );
    }

    #[test]
    fn poisoned_request_batcher_fails_fast() {
        let (broker, producer, set) = keyed_setup(1);
        broker.fence(ComponentId::from_raw(1));
        let batcher = RequestBatcher::new();
        let destination = ComponentId::from_raw(9);
        let (key, envelope) = request(1, "a");
        assert!(batcher
            .send(
                &producer,
                "t",
                |_| Some(set.clone()),
                destination,
                key,
                envelope
            )
            .is_err());
        // Poison is sticky: later sends fail immediately instead of parking
        // on a ticket no flusher will ever cover.
        let (key, envelope) = request(2, "a");
        let started = std::time::Instant::now();
        assert!(batcher
            .send(
                &producer,
                "t",
                |_| Some(set.clone()),
                destination,
                key,
                envelope
            )
            .is_err());
        assert!(started.elapsed() < Duration::from_millis(40));
        assert_eq!(broker.partition_len("t", 0), 0);
    }
}
