//! Application components: the paired application + runtime sidecar process.
//!
//! Each component owns a dedicated queue **partition set** (the paper's
//! Kafka deployment assigns each component a set of partitions, §4.1):
//! producers hash requests onto the set's stable *home* partitions by actor
//! key, consumer *lanes* (units of consumer concurrency, one per home
//! partition) drain them, and recovery can
//! re-home a failed component's partition *ranges* onto survivors as
//! drain-only *adopted* partitions. The component announces the actor types
//! it hosts, admits each polled request inline, in record order, to its
//! per-actor mailbox (honouring the actor lock, reentrancy and tail-call
//! lock retention of §2.2–2.3 and §4.1) — the consumer lane is the only
//! queue between the log and the mailbox — sends responses back to callers'
//! queues (hashed onto the caller's partition set), and defers re-homed
//! requests until their pending callee settles (the happen-before guarantee
//! of §4.3).
//!
//! The component owns **no threads**. All of its partitions are pumped by
//! the mesh's fixed reactor pool
//! ([`crate::mesh`], `MeshConfig::reactor_threads`) through
//! [`ComponentCore::pump`], and its periodic duties (heartbeat, bookkeeping
//! aging, continuation timeouts, orphaned-response routing, partition
//! retirement) run on the mesh's single timer thread through
//! [`ComponentCore::tick`]. Handlers that issue nested calls park a
//! continuation instead of blocking a thread (see [`crate::continuation`]),
//! and an invocation that meets a modelled latency — a sidecar hop, the ack
//! of its outbox round, its state flush — parks the rest of itself as a
//! [`Stage`] on the mesh's due-time heap instead of sleeping on its reactor
//! (see [`crate::io`]); invocations for actors on distinct lanes still
//! *compute* in parallel up to the reactor-pool width at a time, while any
//! number of them wait for their I/O.
//!
//! Rebalance safety: admission verifies the *placement* of every request it
//! is about to execute (one cache hit in steady state) and forwards requests
//! whose actor is owned elsewhere — so a record landing on an adopted
//! partition after its actor was re-placed chases the current placement
//! instead of double-executing, and stale consumers of a re-homed partition
//! are cut off by the broker's per-partition ownership epochs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kar_types::mono_now;

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use kar_queue::{Broker, Consumer, PartitionSet, Producer, Record};
use kar_store::{Connection, Store};
use kar_types::ids::RequestIdGenerator;
use kar_types::RequestId;
use kar_types::{
    epoch_ms, ActorRef, Backoff, CallKind, Completion, ComponentId, Envelope, KarError, KarResult,
    NodeId, Payload, RecordOrigin, RequestMessage, ResponseMessage, RetryPolicy, RetryState,
    RetryVerdict, Value, WaitSignalGroup,
};

use crate::actor::{ActorFactory, Outcome};
use crate::aging::{AgingMap, AgingSet};
use crate::config::{CancellationPolicy, MeshConfig};
use crate::context::{state_key, ActorContext, Outbox};
use crate::continuation::{Continuation, ContinuationTable, ParkedContinuation};
use crate::delivery::{
    partitions_of, AckWait, FlushCtx, RequestRound, ResponseBatcher, Run, Settled,
};
use crate::faults::{retry_transient, TRANSIENT_ATTEMPTS};
use crate::io::DueHeap;
use crate::placement::{LiveSet, PlacementService};
use crate::retry::{BreakerRegistry, RetryBudget};
use crate::settle::SettleTracker;
use crate::state_cache::{PendingFlush, Savepoint, StateCache};

/// The mesh-wide dead-letter queue topic: one partition per component, keyed
/// by the dead-lettering component's raw id. Entries are full request
/// records (final [`RetryState`] included) — never consumed by components,
/// only read back through `Mesh::dlq_stats` / re-injected by
/// `Mesh::dlq_retry`.
pub(crate) const DLQ_TOPIC: &str = "kar-dlq";

/// Execution counters of one component, useful in tests and benchmarks.
#[derive(Debug, Default)]
pub struct ComponentStats {
    /// Invocations executed to completion (value, error, or tail call).
    pub executed: AtomicU64,
    /// Requests whose retry was postponed waiting for a pending callee.
    pub deferred: AtomicU64,
    /// Requests elided because their caller's component had failed (§4.4).
    pub cancelled: AtomicU64,
    /// Tail calls issued.
    pub tail_calls: AtomicU64,
    /// Requests forwarded because this component does not host the type.
    pub forwarded: AtomicU64,
    /// Policy retries scheduled (failed attempts re-appended with a bumped
    /// attempt count and a next-fire deadline).
    pub retries_scheduled: AtomicU64,
    /// Invocations moved to the dead-letter queue after exhausting their
    /// retry policy.
    pub dead_lettered: AtomicU64,
    /// Idle actors passivated (state flushed, slot and cached image
    /// dropped, tombstone recorded).
    pub passivations: AtomicU64,
    /// Passivated actors re-activated through the ordinary admission path.
    pub rehydrations: AtomicU64,
    /// New-actor activations deferred at an admission watermark (shed onto
    /// the delayed heap with shaped backoff, never dropped).
    pub admission_deferrals: AtomicU64,
}

/// The delayed-retry timer wheel of one component: scheduled retries wait
/// here — counted as locally pending, so reconciliation never re-homes a
/// duplicate — until their deadline fires and the mesh retry budget admits
/// them again.
#[derive(Default)]
struct DelayedRetries {
    heap: BinaryHeap<Reverse<u64>>,
    /// Entries keyed by deadline (the heap holds deadlines only; two
    /// requests sharing a millisecond ride the same key).
    by_deadline: HashMap<u64, Vec<RequestMessage>>,
    ids: HashSet<RequestId>,
}

/// Per-actor dispatch state: the in-memory instance, the actor lock, and the
/// in-memory mailbox of §4.1.
#[derive(Default)]
struct ActorSlot {
    instance: Option<Box<dyn crate::actor::Actor>>,
    busy: bool,
    busy_chain: Vec<RequestId>,
    awaiting_tail: Option<RequestId>,
    mailbox: VecDeque<RequestMessage>,
    /// Placement-check locality: the placement-cache epoch in which this
    /// actor's ownership by this component was last verified. While the
    /// stamp matches the current epoch, admission skips placement resolution
    /// entirely (not even a cache hit); a recovery-driven `clear_cache`
    /// bumps the epoch and thereby invalidates every stamp in O(1).
    verified_epoch: Option<u64>,
    /// Set while admission has deferred this actor's activation at a
    /// watermark: the id of the parked head request, waiting out its shaped
    /// backoff in the delayed heap. Later requests mailbox behind it (so
    /// per-actor FIFO holds across the deferral), and the passivation sweep
    /// never drops a slot with a deferral pending.
    activation_parked: Option<RequestId>,
    /// Consecutive deferrals of the parked head: each one grows the shaped
    /// backoff further.
    activation_deferrals: u32,
}

/// The admission decision for one polled request.
enum Admission {
    /// Admitted: run this invocation inline — `(request, holds_lock,
    /// reentrant)`.
    Run(RequestMessage, bool, bool),
    /// Admitted behind a busy actor: its mailbox drain runs it.
    Mailboxed,
    /// Not ours: forward to the current placement. A forward is a round of
    /// its own ([`Stage::Round`]): one that meets a stale placement parks,
    /// it never holds the lane.
    Forward(RequestMessage),
    /// Absorbed: duplicate, deferred, parked on the delayed heap, or
    /// dropped.
    Done,
}

/// What one run of a handler (or of a resumed continuation) left behind:
/// its outcome, and the tells still in its outbox.
struct Attempt {
    result: KarResult<Outcome>,
    outbox: Outbox,
}

impl Attempt {
    /// The handler running under `ctx` is done with it and produced `result`.
    fn finished(ctx: ActorContext<'_>, result: KarResult<Outcome>) -> Self {
        Attempt {
            result,
            outbox: ctx.into_outbox(),
        }
    }
}

/// What the invocation loop keeps across the steps of one invocation.
pub(crate) struct Frame {
    request: RequestMessage,
    /// Whether this invocation holds the actor lock (and so drains the
    /// actor's mailbox when it completes).
    holds_lock: bool,
    /// Whether it was admitted reentrantly (runs on a fresh activation).
    reentrant: bool,
}

/// Base delay of the shaped backoff a new-actor activation deferred at the
/// hard resident watermark waits out (wall clock, like retry policies — not
/// compressed by `MeshConfig::time_scale`).
const ACTIVATION_BACKOFF: Duration = Duration::from_millis(25);

/// How long a round that met an unresolved placement — the recorded one
/// points at a failed component and reconciliation has not rewritten it yet —
/// stays parked before its next attempt.
const PLACEMENT_RETRY: Duration = Duration::from_millis(5);

/// Shards of a component's placement cache: concurrent lanes resolving
/// placements contend only when they race on the same shard.
const PLACEMENT_CACHE_SHARDS: usize = 4;

/// The requests of one produce round on their way to their partitions: those
/// routed so far, and those whose target is still to be placed.
pub(crate) struct Placing {
    routed: Run,
    unplaced: std::vec::IntoIter<RequestMessage>,
    /// How many of the requests — the leading ones — are an invocation's
    /// tells.
    tells: usize,
    /// When an unresolved placement stops being waited for: one call timeout
    /// after the first attempt that met one (no clock is read before that).
    deadline: Option<Duration>,
}

/// What one placement attempt ([`ComponentCore::place_once`]) came to.
enum Placement {
    /// Every request has its partition.
    Routed(Run),
    /// A target's placement is stale: try again no later than `retry_at`.
    Unresolved { retry_at: Duration },
}

/// One produce round of the request leg on its way to its ack, with what
/// [`ComponentCore::count_round`] counts once it is acknowledged.
pub(crate) struct RoundInFlight {
    round: RequestRound,
    requests: u64,
    /// `(tells carried, partitions touched)` when the round carries tells.
    outbox: Option<(usize, usize)>,
}

impl RoundInFlight {
    /// Groups `run` — its first `tells` entries an invocation's outbox —
    /// into one round, not yet submitted.
    fn new(run: Run, tells: usize) -> Self {
        RoundInFlight {
            requests: run.len() as u64,
            outbox: (tells > 0).then(|| (tells, partitions_of(&run).len())),
            round: RequestRound::new(run),
        }
    }
}

/// What a produce round sent from a reactor is *for*: what runs once it is
/// over, durable or failed ([`ComponentCore::round_over`]). Travels by value
/// inside its [`Stage`], like everything else a step hands to the next.
#[allow(clippy::large_enum_variant)]
pub(crate) enum RoundThen {
    /// A finished handler's outbox: its state flush is submitted next, in
    /// the same frame that observes the ack.
    Outbox {
        frame: Frame,
        result: KarResult<Outcome>,
        /// [`Outbox::failed`] and [`Outbox::guarded`] of the flushed outbox.
        failed: Option<KarError>,
        guarded: Option<Savepoint>,
    },
    /// The round of an [`Outcome::CallThen`]: the handler's pending tells
    /// and, behind them, the nested request `nested`. Durable, the
    /// invocation stays parked on the response; failed, its continuation
    /// resumes with the error.
    Nested {
        nested: RequestId,
        /// The calling invocation and the rest of its handler, until the
        /// round is placed; in the continuation table from then on.
        caller: Option<ParkedContinuation>,
        /// Whether a failed round loses tells (see [`Outbox::failed`]).
        lost_tells: bool,
        guarded: Option<Savepoint>,
    },
    /// A request that already has a record, re-appended elsewhere: a forward
    /// to the actor's current host (no frame) or a tail-call successor to
    /// another actor (the frame of the invocation it completes). Once the
    /// copy is durable it is the record recovery works from, and `settles` —
    /// the record the request was polled from — is closed; then, never
    /// before the ack, the frame's mailbox moves on.
    Resend {
        settles: Option<RecordOrigin>,
        frame: Option<Frame>,
    },
}

/// One step of an invocation's pipeline, owned by whoever will run it next:
/// the invocation loop when the due time of the I/O ahead of it has come, the
/// mesh's due-time heap ([`crate::io`]) until then. Each variant names what
/// it is waiting *for*; what runs once that has happened is
/// [`ComponentCore::step`].
pub(crate) enum Stage {
    /// The invocation-start sidecar hop: the handler runs next.
    Start(Frame),
    /// The sidecar hop of a nested call's response — or nothing, when the
    /// nested call's round failed: the continuation runs next, with `input`,
    /// under a context that starts from `outbox`.
    Resume {
        parked: ParkedContinuation,
        input: KarResult<Value>,
        outbox: Outbox,
    },
    /// The sidecar hop of a produce round, or the repair of a placement one
    /// of its targets is waiting for: the round is placed and submitted next.
    Round { placing: Placing, then: RoundThen },
    /// The round's durable ack: what the round was for runs next.
    RoundAck {
        round: RoundInFlight,
        then: RoundThen,
    },
    /// The state flush's store round trip: the completion is sent next.
    StateFlush {
        frame: Frame,
        result: KarResult<Outcome>,
        pending: PendingFlush,
        acked: KarResult<()>,
        submits_left: u32,
    },
    /// The sidecar hop of the response: it is routed and enqueued next, and
    /// the request finished.
    Respond { frame: Frame, result: Payload },
    /// The durable ack of one response-batcher flush: its records settle
    /// next, and the partition's next run leaves.
    ResponseAck(AckWait),
}

/// What one step of the invocation loop leads to. The stage travels by
/// value: boxing it would put an allocation on the inline (zero-latency)
/// path, which only ever moves it from one stack slot to the next.
#[allow(clippy::large_enum_variant)]
enum Step {
    /// Run `Stage` once the due time (if any) has come.
    Next(Option<Duration>, Stage),
    /// The invocation is over, or parked elsewhere (a continuation).
    Done,
}

/// Acknowledged produce rounds of one component's request leg.
#[derive(Default)]
struct RoundStats {
    /// Requests sent, and the rounds that carried them
    /// (`request_batch_stats`).
    requests: AtomicU64,
    rounds: AtomicU64,
    /// Of those: rounds that carried at least one tell (outbox rounds), the
    /// tells they carried, and the most destination partitions one of them
    /// touched (for `Mesh::debug_report`).
    outbox_rounds: AtomicU64,
    outbox_records: AtomicU64,
    outbox_partitions_max: AtomicUsize,
}

/// One consumer lane: the unit of consumer — and dispatch — concurrency. A
/// reactor claims a lane with `try_lock` (a lane being swept on another
/// reactor is skipped, not waited for), admits every record it polls inline
/// and runs what admission decided while it holds the lane. So one actor's
/// records, which hash to one partition, are admitted in record order, and
/// the lane count is the component's dispatch concurrency. A handler may run
/// under a lane's lock: nothing else ever *waits* for one (`kill` and the
/// retirement sweep `try_lock`).
struct ConsumerLane {
    consumers: Mutex<Vec<Consumer<Envelope>>>,
}

/// The runtime core of one application component.
pub struct ComponentCore {
    pub(crate) id: ComponentId,
    pub(crate) node: NodeId,
    pub(crate) name: String,
    pub(crate) config: MeshConfig,
    pub(crate) topic: String,
    pub(crate) group: String,
    /// This component's partition set: the stable home range requests hash
    /// onto, plus partition ranges adopted from failed components during
    /// recovery (drained but never hash-routed to).
    pub(crate) partitions: RwLock<PartitionSet>,
    pub(crate) broker: Broker<Envelope>,
    pub(crate) store: Store,
    pub(crate) producer: Producer<Envelope>,
    /// Store connection used by the persistence API of hosted actors.
    pub(crate) conn: Connection,
    pub(crate) placement: PlacementService,
    /// The mesh-wide partition topology: every component's partition set,
    /// consulted to route requests and responses to their target component.
    pub(crate) topology: Arc<RwLock<HashMap<ComponentId, PartitionSet>>>,
    pub(crate) live: LiveSet,
    pub(crate) ids: Arc<RequestIdGenerator>,
    pub(crate) hosted: HashMap<String, ActorFactory>,
    pub(crate) stats: ComponentStats,
    /// Requests admitted from each home partition, in home order
    /// (`shard_loads`). Never reset: a dead component keeps answering.
    home_loads: Vec<(usize, AtomicU64)>,
    alive: AtomicBool,
    paused: AtomicBool,
    /// The mesh-wide reactor wake signal: bumped whenever this component
    /// gains work (an append to one of its partitions, a due retry, a
    /// timed-out continuation), so an idle reactor resumes sweeping.
    wakeup: Arc<WaitSignalGroup>,
    /// The mesh-wide due-time heap this component's invocations park on
    /// while a modelled I/O is in flight (see [`crate::io`]).
    io: Arc<DueHeap>,
    /// This component's consumer lanes. Starts at the pre-failure steady
    /// state (one lane per home partition), grows by one lane per adopted
    /// partition range, and
    /// shrinks back as adopted ranges are retired.
    lanes: Mutex<Vec<Arc<ConsumerLane>>>,
    /// Continuations parked on nested calls, keyed by the nested request id
    /// (see [`crate::continuation`]).
    continuations: ContinuationTable,
    /// Continuations whose deadline passed, moved here by the mesh timer and
    /// resumed with a timeout error by the next reactor sweep — application
    /// code never runs on the timer thread.
    timed_out: Mutex<Vec<(RequestId, ParkedContinuation)>>,
    /// Responses whose caller's component failed, parked until
    /// reconciliation re-places the caller actor (swept by the mesh timer;
    /// dropped at their deadline). Replaces the per-response routing thread.
    orphan_responses: Mutex<Vec<(ResponseMessage, Duration)>>,
    /// Set after the first failed heartbeat (the component was fenced or its
    /// group is gone): parity with the old dedicated heartbeat thread, which
    /// exited at that point and took the bookkeeping aging with it.
    heartbeats_stopped: AtomicBool,
    /// Per-partition offset of the next record this component's consumers
    /// will read; used by reconciliation to decide whether a request copy in
    /// a queue is still going to be processed. Grows when partitions are
    /// adopted.
    consumed_offsets: RwLock<HashMap<usize, Arc<AtomicU64>>>,
    /// Per-destination-partition response batching (group commit): bursts of
    /// completions towards one caller partition share a lock acquisition and
    /// a durable ack.
    responses: ResponseBatcher,
    round_stats: RoundStats,
    /// Broker-clock instants at which each currently-adopted partition was
    /// adopted; drives the retirement horizon (see `maybe_retire_partitions`).
    adopted_at: Mutex<HashMap<usize, Duration>>,
    /// Adopted partitions this component has retired (fenced, dropped from
    /// the reactor wake group, removed from the partition set).
    retired: Mutex<Vec<usize>>,
    actors: Mutex<HashMap<ActorRef, ActorSlot>>,
    pending_calls: Mutex<HashMap<RequestId, Sender<Arc<Payload>>>>,
    deferred: Mutex<HashMap<RequestId, Vec<RequestMessage>>>,
    /// Response ids seen by this component. Aged out alongside queue
    /// retention: a response old enough to leave the set has also expired
    /// from every queue, so no deferred retry can still be waiting on it.
    seen_responses: Mutex<AgingSet<RequestId>>,
    inflight: Mutex<HashSet<RequestId>>,
    /// Completed request ids (retry dedupe). Aged out alongside queue
    /// retention: a retry can only arrive from an unexpired queue record.
    completed: Mutex<AgingSet<RequestId>>,
    /// The per-activation actor-state cache: read-through on first touch,
    /// buffered writes flushed as one pipelined round trip strictly before
    /// each invocation's completion is sent.
    pub(crate) state_cache: StateCache,
    /// The mesh-wide retry token bucket (shared by every component): each
    /// *scheduled* retry admission spends one token; an empty bucket sheds
    /// the retry back onto its backoff timer (never dropped).
    budget: Arc<RetryBudget>,
    /// The mesh-wide per-actor-type circuit breakers (shared by every
    /// component): consulted before each invocation executes, fed after.
    breakers: Arc<BreakerRegistry>,
    /// Scheduled retries waiting out their next-fire deadline.
    delayed: Mutex<DelayedRetries>,
    /// Earliest deadline in `delayed` (epoch ms; `0` = empty): lets every
    /// reactor sweep and timer tick skip the heap lock while nothing is due.
    delayed_earliest: AtomicU64,
    /// The passivation clock: every admission stamps its actor here, and an
    /// actor idle for two generations (one to two compressed retention
    /// windows — the state cache's single-window interval, not the doubled
    /// bookkeeping one) becomes a passivation candidate. Lock order is
    /// actors → idle_actors everywhere.
    idle_actors: Mutex<AgingMap<ActorRef, ()>>,
    /// Passivation tombstones: consumed — and counted as a rehydration — by
    /// the actor's next admission, and rotated out on the bookkeeping clock
    /// so the set itself cannot leak.
    passivated: Mutex<AgingSet<ActorRef>>,
    /// Number of resident (activated, non-deferred) actor slots: what the
    /// resident watermarks compare against. Mutated under the actors lock.
    resident_count: AtomicUsize,
    /// Total mailboxed (admitted, waiting behind a busy actor) requests
    /// across all resident actors (`Mesh::mailboxed_requests`). Mutated
    /// under the actors lock.
    mailboxed: AtomicUsize,
    /// Transient consumer-poll failures survived (injected or real). The
    /// consumer stays subscribed and is retried on the next sweep; only a
    /// fencing error detaches it.
    poll_faults: AtomicU64,
    /// The mesh's gray-failure injector, consulted by the retry scheduler
    /// for clock-skew injection on its `epoch_ms` reads (`None` = no plan).
    faults: Option<Arc<kar_types::FaultInjector>>,
    /// Which records of the home partitions have settled, so their logs can
    /// be trimmed instead of retained for the whole retention window (see
    /// [`crate::settle`]).
    settle: SettleTracker,
}

#[allow(clippy::too_many_arguments)]
impl ComponentCore {
    pub(crate) fn new(
        id: ComponentId,
        node: NodeId,
        name: String,
        config: MeshConfig,
        topic: String,
        group: String,
        partitions: PartitionSet,
        broker: Broker<Envelope>,
        store: Store,
        topology: Arc<RwLock<HashMap<ComponentId, PartitionSet>>>,
        live: LiveSet,
        ids: Arc<RequestIdGenerator>,
        hosted: HashMap<String, ActorFactory>,
        io: Arc<DueHeap>,
        budget: Arc<RetryBudget>,
        breakers: Arc<BreakerRegistry>,
        faults: Option<Arc<kar_types::FaultInjector>>,
    ) -> Self {
        let producer = broker.producer(id);
        let conn = store.connect(id);
        let wakeup = Arc::clone(io.wakeup());
        let placement = PlacementService::new(
            store.connect(id),
            live.clone(),
            config.placement_cache,
            PLACEMENT_CACHE_SHARDS,
        );
        // The retry bookkeeping ages on the queue-retention clock: the broker
        // coordinator actively expires records past retention (even on idle
        // partitions), so an id old enough to rotate out of both generations
        // corresponds to records no queue can still deliver. Rotating at 2×
        // retention (membership 2–4 windows) leaves a full retention window
        // of safety margin over the queue horizon.
        let bookkeeping_interval = config.time_scale.compress(config.retention * 2);
        let home_loads = partitions
            .home()
            .iter()
            .map(|partition| (*partition, AtomicU64::new(0)))
            .collect();
        let consumed_offsets = partitions
            .all()
            .into_iter()
            .map(|partition| (partition, Arc::new(AtomicU64::new(0))))
            .collect();
        // State-cache eviction rides the *single* retention window (not the
        // doubled bookkeeping interval): a clean entry whose actor has been
        // idle for one to two windows is dropped and reloaded on next touch.
        let state_cache_interval = config.time_scale.compress(config.retention);
        let settle = SettleTracker::new(partitions.home());
        ComponentCore {
            id,
            node,
            name,
            config,
            topic,
            group,
            partitions: RwLock::new(partitions),
            broker,
            store,
            producer,
            conn,
            placement,
            topology,
            live,
            ids,
            hosted,
            stats: ComponentStats::default(),
            home_loads,
            alive: AtomicBool::new(true),
            paused: AtomicBool::new(false),
            wakeup,
            io,
            lanes: Mutex::new(Vec::new()),
            continuations: ContinuationTable::default(),
            timed_out: Mutex::new(Vec::new()),
            orphan_responses: Mutex::new(Vec::new()),
            heartbeats_stopped: AtomicBool::new(false),
            consumed_offsets: RwLock::new(consumed_offsets),
            responses: ResponseBatcher::new(),
            round_stats: RoundStats::default(),
            adopted_at: Mutex::new(HashMap::new()),
            retired: Mutex::new(Vec::new()),
            actors: Mutex::new(HashMap::new()),
            pending_calls: Mutex::new(HashMap::new()),
            deferred: Mutex::new(HashMap::new()),
            seen_responses: Mutex::new(AgingSet::new(bookkeeping_interval)),
            inflight: Mutex::new(HashSet::new()),
            completed: Mutex::new(AgingSet::new(bookkeeping_interval)),
            state_cache: StateCache::new(state_cache_interval),
            budget,
            breakers,
            delayed: Mutex::new(DelayedRetries::default()),
            delayed_earliest: AtomicU64::new(0),
            // The passivation clock shares the state cache's single-window
            // interval: an actor and its cached state image go cold
            // together, strictly inside the doubled dedup window — so a
            // rehydrated actor can never outlive its retry-dedup entries.
            idle_actors: Mutex::new(AgingMap::new(state_cache_interval)),
            passivated: Mutex::new(AgingSet::new(bookkeeping_interval)),
            resident_count: AtomicUsize::new(0),
            mailboxed: AtomicUsize::new(0),
            poll_faults: AtomicU64::new(0),
            faults,
            settle,
        }
    }

    /// The component's id.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// The node the component runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The component's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True until the component is killed or shut down.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// True if the component hosts at least one actor type (clients host
    /// none; recovery only re-homes partition ranges onto hosting
    /// components).
    pub(crate) fn hosts_any(&self) -> bool {
        !self.hosted.is_empty()
    }

    /// True while recovery has paused normal message processing.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    pub(crate) fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    pub(crate) fn resume(&self) {
        self.placement.clear_cache();
        // Conservative state-cache refresh after recovery: clean entries are
        // dropped (cheap to reload); entries with buffered writes belong to
        // invocations still executing here — placement never moves an actor
        // off a live component, so their image stays authoritative and their
        // upcoming flush must not be silently lost.
        self.state_cache.invalidate_clean();
        // Retirement-leak sweep: a later recovery may have fenced an adopted
        // partition *before* its retirement horizon (the range was re-homed
        // again). Its consumer was dropped on the failed poll, but its
        // `adopted_at` entry — keyed by a partition this component no longer
        // consumes — would otherwise linger forever. Drop every entry whose
        // partition is no longer in the adopted set.
        {
            let adopted: HashSet<usize> =
                self.partitions.read().adopted().iter().copied().collect();
            self.adopted_at
                .lock()
                .retain(|partition, _| adopted.contains(partition));
        }
        self.paused.store(false, Ordering::SeqCst);
        // Queued work accumulated during the pause (and repairs made by the
        // recovery) won't announce themselves: wake the reactors.
        self.wakeup.notify();
    }

    /// Abruptly terminates the component: in-memory state (actor instances,
    /// mailboxes, blocked calls) is dropped and every thread unwinds at its
    /// next interaction with the runtime. Queue contents and persisted actor
    /// state survive.
    pub(crate) fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.actors.lock().clear();
        // Passivation bookkeeping is in-memory state: the resident set died
        // with the slots, and a re-homed actor activates fresh on its
        // adopter (tombstones are a live-component counting aid, nothing
        // recovery depends on).
        self.resident_count.store(0, Ordering::SeqCst);
        self.mailboxed.store(0, Ordering::SeqCst);
        self.idle_actors.lock().clear();
        self.passivated.lock().clear();
        // Detach the consumers from the reactor wake group: partitions must
        // not keep notifying — or keep membership for — a dead component.
        let lanes: Vec<Arc<ConsumerLane>> = std::mem::take(&mut *self.lanes.lock());
        for lane in &lanes {
            self.detach_lane(lane);
        }
        // Parked continuations are in-memory state: dropped with the
        // process. The queue copies of their original requests drive the
        // retries on the adopters (§4.3).
        self.continuations.clear();
        self.timed_out.lock().clear();
        self.orphan_responses.lock().clear();
        // The in-memory state images die with the process; unflushed writes
        // are lost (no completion was sent for them).
        self.state_cache.invalidate_all();
        // Dropping the senders wakes every client thread blocked on a call.
        self.pending_calls.lock().clear();
        self.deferred.lock().clear();
        self.inflight.lock().clear();
        // Buffered (not yet appended) completions die with the process; the
        // affected requests' queue copies drive the retry.
        self.responses.clear();
        // So does everything parked on a modelled I/O: a thread killed
        // asleep inside an ack or a hop completed nothing either.
        self.io.forget(self);
        // Delayed retries are in-memory too: their durable queue copies
        // (each carrying the persisted RetryState) drive recovery, and the
        // adopter's admission re-parks them on the same schedule.
        {
            let mut delayed = self.delayed.lock();
            delayed.heap.clear();
            delayed.by_deadline.clear();
            delayed.ids.clear();
        }
        self.delayed_earliest.store(0, Ordering::SeqCst);
        self.settle.clear();
        // Reactors parked on the group re-check `is_alive` on wake.
        self.wakeup.notify();
    }

    /// Requests admitted from each home partition so far, in home order.
    /// Each home partition has one lane, so the spread between the busiest
    /// and the mean entry is the lanes' load imbalance.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.home_loads
            .iter()
            .map(|(_, load)| load.load(Ordering::Relaxed))
            .collect()
    }

    /// A snapshot of the placement cache's hit/miss/invalidation counters.
    pub fn placement_counters(&self) -> crate::placement::PlacementCounters {
        self.placement.counters()
    }

    /// Human-readable snapshot of this component's dispatch and actor state
    /// (consumed offsets, actor locks/mailboxes, deferred and inflight sets)
    /// — for debugging stuck requests.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let offsets: Vec<String> = {
            let consumed = self.consumed_offsets.read();
            let mut entries: Vec<(usize, u64)> = consumed
                .iter()
                .map(|(partition, slot)| (*partition, slot.load(Ordering::SeqCst)))
                .collect();
            entries.sort_unstable();
            entries
                .into_iter()
                .map(|(partition, offset)| format!("{partition}:{offset}"))
                .collect()
        };
        let _ = writeln!(
            out,
            "component {} ({}) alive={} paused={} partitions={} consumed=[{}]",
            self.id,
            self.name,
            self.is_alive(),
            self.is_paused(),
            self.partitions.read(),
            offsets.join(", "),
        );
        // The delivery plane: consumer threads, per-adoptee retirement
        // horizon (on the retention clock), retirements performed, and the
        // response-batching amortization achieved so far.
        {
            let delay = self.config.scaled_retirement_delay();
            let now = mono_now();
            let horizons: Vec<String> = {
                let adopted_at = self.adopted_at.lock();
                let mut entries: Vec<(usize, Duration)> = adopted_at
                    .iter()
                    .map(|(partition, adopted)| {
                        (
                            *partition,
                            delay.saturating_sub(now.saturating_sub(*adopted)),
                        )
                    })
                    .collect();
                entries.sort_unstable();
                entries
                    .into_iter()
                    .map(|(partition, left)| format!("{partition}:{left:.1?}"))
                    .collect()
            };
            let (enqueued, flushes) = self.response_batch_stats();
            let (req_enqueued, req_flushes) = self.request_batch_stats();
            let _ = writeln!(
                out,
                "  delivery: consumers={} retire_in=[{}] retired={:?} \
                 response_batches={flushes}/{enqueued} \
                 request_batches={req_flushes}/{req_enqueued} orphan_responses={}",
                self.consumer_thread_count(),
                horizons.join(", "),
                self.retired.lock(),
                self.orphan_responses.lock().len(),
            );
            let _ = writeln!(
                out,
                "  outbox: rounds={} records={} partitions_per_round_max={}",
                self.round_stats.outbox_rounds.load(Ordering::Relaxed),
                self.round_stats.outbox_records.load(Ordering::Relaxed),
                self.round_stats
                    .outbox_partitions_max
                    .load(Ordering::Relaxed),
            );
        }
        let _ = writeln!(
            out,
            "  continuations: parked={} parks_total={}",
            self.continuations.len(),
            self.continuations.parked_total(),
        );
        let (passivations, rehydrations, deferrals) = self.passivation_stats();
        let _ = writeln!(
            out,
            "  memory: resident={} mailboxed={} passivations={passivations} \
             rehydrations={rehydrations} admission_deferrals={deferrals}",
            self.resident_actors(),
            self.mailboxed_requests(),
        );
        match self.actors.try_lock() {
            Some(actors) => {
                for (actor, slot) in actors.iter() {
                    if !slot.busy && slot.awaiting_tail.is_none() && slot.mailbox.is_empty() {
                        continue;
                    }
                    let mailbox: Vec<u64> = slot.mailbox.iter().map(|r| r.id.as_u64()).collect();
                    let _ = writeln!(
                        out,
                        "  actor {}: busy={} awaiting_tail={:?} mailbox={mailbox:?}",
                        actor.qualified_name(),
                        slot.busy,
                        slot.awaiting_tail.map(|id| id.as_u64()),
                    );
                }
            }
            None => {
                let _ = writeln!(out, "  actors: <LOCK HELD>");
            }
        }
        match self.deferred.try_lock() {
            Some(deferred) => {
                for (callee, requests) in deferred.iter() {
                    let ids: Vec<u64> = requests.iter().map(|r| r.id.as_u64()).collect();
                    let _ = writeln!(out, "  deferred on callee {}: {ids:?}", callee.as_u64());
                }
            }
            None => {
                let _ = writeln!(out, "  deferred: <LOCK HELD>");
            }
        }
        match self.inflight.try_lock() {
            Some(inflight) => {
                let mut ids: Vec<u64> = inflight.iter().map(|id| id.as_u64()).collect();
                ids.sort_unstable();
                let _ = writeln!(out, "  inflight: {ids:?}");
            }
            None => {
                let _ = writeln!(out, "  inflight: <LOCK HELD>");
            }
        }
        match self.pending_calls.try_lock() {
            Some(calls) => {
                let mut waiting: Vec<u64> = calls.keys().map(|id| id.as_u64()).collect();
                waiting.sort_unstable();
                let _ = writeln!(out, "  blocked calls waiting: {waiting:?}");
            }
            None => {
                let _ = writeln!(out, "  blocked calls waiting: <LOCK HELD>");
            }
        }
        out
    }

    /// The home partition of `component` that `key` hashes to: how every
    /// request and response is routed onto a target component's partition
    /// set. Keys are actor qualified names (or the request id for responses
    /// to external clients), so one actor's records always land in one
    /// partition.
    fn partition_for(&self, component: ComponentId, key: &str) -> Option<usize> {
        self.topology
            .read()
            .get(&component)
            .and_then(|set| set.partition_for_key(key))
    }

    /// The home partition of this component that `actor`'s records hash to.
    fn own_partition_for(&self, actor: &ActorRef) -> Option<usize> {
        self.partitions
            .read()
            .partition_for_key(&actor.qualified_name())
    }

    /// The routing key of the response to `request`: the caller actor when
    /// there is one (so one actor's responses stay in one partition), the
    /// request id for external clients.
    fn response_key(request: &RequestMessage) -> String {
        match &request.caller_actor {
            Some(actor) => actor.qualified_name(),
            None => format!("req-{}", request.id.as_u64()),
        }
    }

    /// This component's current partition set (home + adopted).
    pub(crate) fn partition_set(&self) -> PartitionSet {
        self.partitions.read().clone()
    }

    /// Offset of the next record this component's consumers will read from
    /// `partition` (zero for partitions it does not consume).
    pub(crate) fn consumed_offset(&self, partition: usize) -> u64 {
        self.consumed_offsets
            .read()
            .get(&partition)
            .map_or(0, |slot| slot.load(Ordering::SeqCst))
    }

    /// True if request `id` is mailboxed, deferred, parked or executing at
    /// this component (used by reconciliation to decide whether a copy found
    /// in a failed queue is superseded or must be re-homed). A record polled
    /// but not yet admitted needs no entry here: its lane publishes the
    /// partition's consumed offset past it only once admission has put it in
    /// one of these places, so until then it still counts as queued.
    pub(crate) fn locally_pending(&self, id: RequestId) -> bool {
        if self.inflight.lock().contains(&id) {
            return true;
        }
        // Waiting out a retry backoff: the schedule is live here, a re-homed
        // second copy would race it.
        if self.delayed.lock().ids.contains(&id) {
            return true;
        }
        if self
            .deferred
            .lock()
            .values()
            .any(|requests| requests.iter().any(|r| r.id == id))
        {
            return true;
        }
        let actors = self.actors.lock();
        actors
            .values()
            .any(|slot| slot.awaiting_tail == Some(id) || slot.mailbox.iter().any(|r| r.id == id))
    }

    /// Blocks for one sidecar hop. Only for client threads, which may block.
    /// The invocation pipeline never calls this — it parks on
    /// [`Self::hop_due`] instead.
    fn sidecar_hop(&self) {
        let hop = self.config.latency.sidecar_hop;
        if !hop.is_zero() {
            kar_types::pace_sleep(hop);
        }
    }

    /// When a sidecar hop starting now is over (`None`: no hop latency is
    /// modelled, and no clock is read).
    fn hop_due(&self) -> Option<Duration> {
        let hop = self.config.latency.sidecar_hop;
        (!hop.is_zero()).then(|| mono_now() + hop)
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Starts routing `messages` — the first `tells` of them an invocation's
    /// outbox — into one produce round. `fresh` requests are marked
    /// single-copy here, the one place that can: a fresh id's first append is
    /// its only record. With a fault plan armed even that is not provable —
    /// an append whose ack is lost is replayed, leaving two records of one
    /// id — so no request is marked then; neither is a request that already
    /// has a record somewhere (a forward, a tail-call successor).
    ///
    /// The partitions are fixed ahead of an append that takes a durable ack,
    /// so a record can land where a topology update in between no longer
    /// routes. That window cannot be closed from the sender's side, and
    /// recovery does not rely on it being closed: a record in a failed
    /// component's partition is catalogued and re-homed by reconciliation,
    /// one appended after the placement rewrite is drained by the partition's
    /// adopter (adopted partitions stay drain-only for two retention windows
    /// for exactly this stale sender), and a record for an actor the consumer
    /// does not own is forwarded to its owner.
    fn placing(&self, mut messages: Vec<RequestMessage>, tells: usize, fresh: bool) -> Placing {
        let single_copy = fresh && !self.producer.faults_armed();
        for message in &mut messages {
            message.single_copy = single_copy;
        }
        Placing {
            routed: Vec::with_capacity(messages.len()),
            unplaced: messages.into_iter(),
            tells,
            deadline: None,
        }
    }

    /// One placement attempt: resolves, in order, the placement of every
    /// request of `placing` not routed yet and hashes it onto the hosting
    /// component's partitions — until one is unresolved: its recorded
    /// placement points at a failed component and reconciliation has not
    /// rewritten it yet. Never waits. A transient store failure during
    /// resolution is a gray failure on the submission path — the request
    /// record (and with it any retry policy) does not exist yet, so nothing
    /// downstream can absorb it — and is treated exactly like an unresolved
    /// placement, under the same call-timeout deadline.
    fn place_once(&self, placing: &mut Placing) -> KarResult<Placement> {
        while let Some(message) = placing.unplaced.as_slice().first() {
            if !self.is_alive() {
                return Err(KarError::Killed { component: self.id });
            }
            match self.placement.resolve_nowait(&message.target) {
                Ok(Some(component)) => {
                    let partition = self
                        .partition_for(component, &message.target.qualified_name())
                        .ok_or_else(|| {
                            KarError::internal(format!("no partition set recorded for {component}"))
                        })?;
                    let message = placing.unplaced.next().expect("peeked above");
                    placing.routed.push((partition, Envelope::Request(message)));
                }
                Err(error) if !error.is_transient() => return Err(error),
                Ok(None) | Err(_) => {
                    let now = mono_now();
                    let deadline = *placing
                        .deadline
                        .get_or_insert(now + self.config.call_timeout);
                    if now >= deadline {
                        return Err(KarError::Timeout {
                            request: message.id,
                            after_ms: self.config.call_timeout.as_millis() as u64,
                        });
                    }
                    return Ok(Placement::Unresolved {
                        retry_at: deadline.min(now + PLACEMENT_RETRY),
                    });
                }
            }
        }
        Ok(Placement::Routed(std::mem::take(&mut placing.routed)))
    }

    /// Sends `message` as one produce round and **waits** for it: for a stale
    /// placement to be repaired (bounded by the call timeout), then for the
    /// round's durable ack. Only for the edge threads of `external_call` /
    /// `external_tell`, which may block; a reactor sends its rounds through
    /// [`Stage::Round`], which parks instead.
    fn issue_outbox(&self, message: RequestMessage) -> KarResult<()> {
        let mut placing = self.placing(vec![message], 0, true);
        let run = loop {
            // Snapshot the repair signal before resolving: a repair landing
            // between the lookup and the wait wakes the waiter at once.
            let seen = self.placement.repair_epoch();
            match self.place_once(&mut placing)? {
                Placement::Routed(run) => break run,
                Placement::Unresolved { retry_at } => {
                    if kar_types::sim::active() {
                        kar_types::sim::step();
                    } else {
                        self.placement
                            .wait_for_repair(seen, retry_at.saturating_sub(mono_now()));
                    }
                }
            }
        };
        let mut round = RoundInFlight::new(run, 0);
        loop {
            if let Some(due) = round.round.submit(&self.producer, &self.topic) {
                kar_types::pace_until(due);
            }
            match self.settle_round(round) {
                Settled::Done(outcome) => return outcome,
                Settled::Replay(replay) => round = replay,
            }
        }
    }

    /// The ack of `round`'s latest submit is in: the round is over — and
    /// counted, if durable — or to be submitted again.
    fn settle_round(&self, round: RoundInFlight) -> Settled<RoundInFlight> {
        let RoundInFlight {
            round,
            requests,
            outbox,
        } = round;
        match round.settle() {
            Settled::Done(outcome) => {
                if outcome.is_ok() {
                    self.count_round(requests, outbox);
                }
                Settled::Done(outcome)
            }
            Settled::Replay(round) => Settled::Replay(RoundInFlight {
                round,
                requests,
                outbox,
            }),
        }
    }

    /// Counts one acknowledged round of the request leg.
    fn count_round(&self, requests: u64, outbox: Option<(usize, usize)>) {
        let stats = &self.round_stats;
        stats.requests.fetch_add(requests, Ordering::Relaxed);
        stats.rounds.fetch_add(1, Ordering::Relaxed);
        if let Some((records, touched)) = outbox {
            stats.outbox_rounds.fetch_add(1, Ordering::Relaxed);
            stats
                .outbox_records
                .fetch_add(records as u64, Ordering::Relaxed);
            stats
                .outbox_partitions_max
                .fetch_max(touched, Ordering::Relaxed);
        }
    }

    /// Runs `flush` against this component's response batcher. A flush whose
    /// ack is still to come parks as a [`Stage::ResponseAck`] on the mesh's
    /// due-time heap (and is handed straight back when the ack is due at
    /// once — every zero-latency preset, the deterministic one included).
    fn with_batcher<R>(
        self: &Arc<Self>,
        flush: impl FnOnce(&ResponseBatcher, &FlushCtx<'_>) -> R,
    ) -> R {
        let park = |due, wait| match self
            .io
            .park_unless_due(due, self, Stage::ResponseAck(wait))?
        {
            Stage::ResponseAck(wait) => Some(wait),
            _ => unreachable!("the heap hands back the stage it was given"),
        };
        flush(
            &self.responses,
            &FlushCtx {
                producer: &self.producer,
                topic: &self.topic,
                tracker: &self.settle,
                park: &park,
            },
        )
    }

    /// Appends `envelope` to `partition` of this component's topic, through
    /// the response batcher (one lock + one durable ack per burst towards
    /// the partition; nobody waits for the ack). `settles` is the request
    /// record this completion settles: it is closed once the append is
    /// acknowledged.
    fn send_completion(
        self: &Arc<Self>,
        partition: usize,
        envelope: Envelope,
        settles: Option<RecordOrigin>,
    ) {
        self.with_batcher(|batcher, ctx| batcher.enqueue(ctx, partition, envelope, settles));
    }

    /// Routes the response for `request` — its sidecar hop is behind it — to
    /// the queue of whoever is waiting for it: the component recorded in
    /// `reply_to` if it is still live, or the component currently hosting
    /// the caller actor otherwise (which is how responses survive the
    /// re-placement of their caller).
    fn route_response(self: &Arc<Self>, request: &RequestMessage, result: Payload) {
        // One materialization for the whole delivery path: the queue copy,
        // the delivered envelope, and the pending-call hand-off all share
        // this `Arc`ed payload.
        let mut response = ResponseMessage::new(request.id, request.caller, result)
            .with_routing(request.reply_to, request.caller_actor.clone());
        // Fast path: the caller's component is alive, deliver to the
        // partition of its set the response key hashes to (the routing the
        // broker's keyed producer API applies), batched per destination.
        if let Some(reply_to) = request.reply_to {
            if self.live.read().contains(&reply_to) {
                if let Some(partition) = self.partition_for(reply_to, &Self::response_key(request))
                {
                    // The response is the request's completion record: its
                    // ack settles the record the request was polled from.
                    // Executed from its *only* record, the response names
                    // that record as its origin, so its consumer can trim
                    // the response once the record itself is gone.
                    let settles = self.settle.take(request.id);
                    if request.single_copy {
                        response.origin = settles;
                    }
                    self.send_completion(partition, Envelope::Response(response), settles);
                    return;
                }
            }
        }
        // Slow path: the caller's component failed. Park the response until
        // reconciliation re-places the caller actor; the mesh timer sweeps
        // the parked list each tick and delivers to the caller's new home
        // (or drops the response at the call-timeout deadline). No thread is
        // spawned and no thread blocks.
        let deadline = mono_now() + self.config.call_timeout;
        self.orphan_responses.lock().push((response, deadline));
    }

    /// True if somebody can be waiting for `request`'s completion. A `tell`
    /// never is; neither is the terminal hop of a tail-call chain rooted at
    /// a `tell`, which inherits the tell's absent return address (no
    /// `reply_to`, no caller actor): its response could be routed nowhere.
    fn awaits_response(request: &RequestMessage) -> bool {
        request.kind.expects_response()
            && (request.reply_to.is_some() || request.caller_actor.is_some())
    }

    /// One non-blocking routing attempt for an orphaned response: the
    /// `reply_to` component if it is live again, else the current home of
    /// the caller actor if reconciliation has re-placed it. Routes off the
    /// response's own routing fields, so adopters that *consumed* an
    /// orphaned record can re-park it here too.
    fn try_response_partition(&self, response: &ResponseMessage) -> Option<usize> {
        let key = match &response.caller_actor {
            Some(actor) => actor.qualified_name(),
            None => format!("req-{}", response.id.as_u64()),
        };
        if let Some(reply_to) = response.reply_to {
            if self.live.read().contains(&reply_to) {
                return self.partition_for(reply_to, &key);
            }
        }
        if let Some(caller_actor) = &response.caller_actor {
            // A placement pointing at a dead component is a stale read taken
            // before reconciliation's rewrite: delivering there would strand
            // the response in a queue about to be flushed. Stay parked until
            // the sweep observes a live owner.
            if let Ok(Some(component)) = self.placement.resolve_nowait(caller_actor) {
                if self.live.read().contains(&component) {
                    return self.partition_for(component, &key);
                }
            }
            return None;
        }
        // reply_to points at a dead external client: deliver to its queue
        // anyway (harmless; the records expire with retention).
        response.reply_to.and_then(|c| self.partition_for(c, &key))
    }

    /// Mesh-timer sweep of the orphaned-response park list: responses whose
    /// caller became routable are delivered, unroutable ones stay parked
    /// until their deadline.
    fn sweep_orphan_responses(&self, now: Duration) {
        if self.orphan_responses.lock().is_empty() {
            return;
        }
        let pending = std::mem::take(&mut *self.orphan_responses.lock());
        let mut keep = Vec::new();
        for (response, deadline) in pending {
            match self.try_response_partition(&response) {
                Some(partition) => {
                    let _ =
                        self.producer
                            .send(&self.topic, partition, Envelope::Response(response));
                }
                None if now < deadline && self.is_alive() => {
                    keep.push((response, deadline));
                }
                // Past the deadline: drop, exactly like the old bounded wait.
                None => {}
            }
        }
        if !keep.is_empty() {
            self.orphan_responses.lock().extend(keep);
        }
    }

    // ------------------------------------------------------------------
    // Invocation entry points
    // ------------------------------------------------------------------

    /// A blocking root invocation issued by an external client (no caller).
    /// An explicit `policy` attaches a fresh retry schedule to the request
    /// record; without one, the callee falls back to its actor type's
    /// configured default on first failure.
    pub(crate) fn external_call(
        self: &Arc<Self>,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        policy: Option<RetryPolicy>,
    ) -> KarResult<Value> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        let id = self.ids.fresh();
        let message = RequestMessage {
            id,
            caller: None,
            target: target.clone(),
            method: method.to_owned(),
            args,
            kind: CallKind::Call,
            lineage: Vec::new(),
            pending_callee: None,
            caller_actor: None,
            reply_to: Some(self.id),
            retry: policy.map(|p| Box::new(RetryState::fresh(p, epoch_ms()))),
            single_copy: false,
        };
        self.sidecar_hop();
        let receiver = self.register_pending(id);
        if let Err(error) = self.issue_outbox(message) {
            // The caller gets the error now, not a response later.
            self.pending_calls.lock().remove(&id);
            return Err(error);
        }
        self.wait_for_response(id, receiver)
    }

    /// An asynchronous root invocation issued by an external client: durably
    /// enqueued when this returns.
    pub(crate) fn external_tell(
        self: &Arc<Self>,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
    ) -> KarResult<()> {
        let message = self.tell_message(target, method, args)?;
        self.sidecar_hop();
        self.issue_outbox(message)
    }

    /// Builds the request of an asynchronous invocation under a fresh id
    /// (no caller, no return address).
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Killed` if this component has been killed.
    pub(crate) fn tell_message(
        &self,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
    ) -> KarResult<RequestMessage> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        Ok(RequestMessage {
            id: self.ids.fresh(),
            caller: None,
            target: target.clone(),
            method: method.to_owned(),
            args,
            kind: CallKind::Tell,
            lineage: Vec::new(),
            pending_callee: None,
            caller_actor: None,
            reply_to: None,
            retry: None,
            single_copy: false,
        })
    }

    fn register_pending(&self, id: RequestId) -> crossbeam::channel::Receiver<Arc<Payload>> {
        let (tx, rx) = bounded(1);
        self.pending_calls.lock().insert(id, tx);
        rx
    }

    fn wait_for_response(
        &self,
        id: RequestId,
        receiver: crossbeam::channel::Receiver<Arc<Payload>>,
    ) -> KarResult<Value> {
        // Only edge threads wait here (an invocation's nested call parks a
        // continuation instead), and any reactor can deliver the response.
        let deadline = mono_now() + self.config.call_timeout;
        let outcome = if kar_types::sim::active() {
            // Simulation: the driver thread owns every lane, so parking on
            // the channel would deadlock the whole mesh. Drive the seeded
            // scheduler instead; time only advances when the scheduler says
            // so, making the timeout below a *virtual* deadline.
            loop {
                match receiver.try_recv() {
                    Ok(payload) => break Ok(payload),
                    Err(crossbeam::channel::TryRecvError::Disconnected) => {
                        break Err(RecvTimeoutError::Disconnected)
                    }
                    Err(crossbeam::channel::TryRecvError::Empty) => {
                        if mono_now() >= deadline {
                            break Err(RecvTimeoutError::Timeout);
                        }
                        kar_types::sim::step();
                    }
                }
            }
        } else {
            receiver.recv_timeout(deadline.saturating_sub(mono_now()))
        };
        self.pending_calls.lock().remove(&id);
        match outcome {
            Ok(payload) => {
                self.sidecar_hop();
                // The only payload copy on the response path: the caller
                // takes ownership here (the queue copy keeps its reference
                // until retention expires it).
                Arc::try_unwrap(payload).unwrap_or_else(|shared| (*shared).clone())
            }
            Err(RecvTimeoutError::Timeout) => Err(KarError::Timeout {
                request: id,
                after_ms: self.config.call_timeout.as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => Err(KarError::Killed { component: self.id }),
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn handle_response(self: &Arc<Self>, response: ResponseMessage) {
        // Record the response and drain its deferred retries under one
        // deferred-map lock: admission's check-and-defer takes the same lock,
        // so a retry can never park itself against a response that has
        // already been processed (lost wakeup).
        let deferred = {
            let deferred_map = self.deferred.lock();
            self.seen_responses.lock().insert(response.id);
            deferred_map.contains_key(&response.id)
        };
        let mut consumed = deferred;
        // A continuation parked on this response resumes inline, on the
        // reactor that polled the response record. The claim is exclusive,
        // so a duplicate response (a retried callee) cannot resume it twice.
        if let Some(parked) = self.continuations.take(response.id) {
            let input: KarResult<Value> = (*response.result).clone();
            consumed = true;
            self.resume_continuation(parked, input);
        }
        if let Some(sender) = self.pending_calls.lock().remove(&response.id) {
            // Hand the blocked caller the shared payload — no deep copy; the
            // caller materializes an owned value once, at the API boundary.
            consumed = true;
            let _ = sender.send(Arc::clone(&response.result));
        }
        // Unblock any re-homed caller whose retry was waiting for this callee
        // to settle (happen-before), admitting each inline. They leave the
        // deferred map one at a time, so those not admitted yet still count
        // as locally pending while an earlier one runs; none can join it
        // now that the response is seen.
        if deferred {
            while let Some(mut request) = self.take_deferred(response.id) {
                request.pending_callee = None;
                self.dispatch(request);
            }
        }
        if consumed {
            return;
        }
        // Nothing here wanted this response, and it was not even addressed
        // here: it was appended to a failed caller's partition (just before
        // the failure fenced it) and consumed by this component as that
        // partition's adopter. The caller's re-homed retry is deferred — or
        // about to be — wherever the caller actor is placed NOW, which need
        // not be the component that adopted this partition. Chase the
        // placement, exactly like request forwarding: deliver the response
        // to the current owner's queue (its own `handle_response` wakes the
        // deferral through its seen-responses set). Unroutable yet — park
        // alongside the sender-side orphans for the timer sweep to retry.
        match response.reply_to {
            None => {}
            Some(reply_to) if reply_to == self.id => {}
            Some(_) => {
                // A dead external client's response (no caller actor) stays
                // dropped: nobody can ever wait on it again.
                let Some(caller_actor) = response.caller_actor.clone() else {
                    return;
                };
                match self.placement.resolve_nowait(&caller_actor) {
                    // Placement followed the partition here: the response is
                    // recorded in this component's seen set, which is the
                    // set the owner's deferral checks.
                    Ok(Some(owner)) if owner == self.id => {}
                    Ok(Some(owner)) => {
                        if let Some(partition) =
                            self.partition_for(owner, &caller_actor.qualified_name())
                        {
                            let _ = self.producer.send(
                                &self.topic,
                                partition,
                                Envelope::Response(response),
                            );
                        }
                    }
                    _ => {
                        let deadline = mono_now() + self.config.call_timeout;
                        self.orphan_responses.lock().push((response, deadline));
                    }
                }
            }
        }
    }

    /// Takes the oldest request deferred on `callee`'s response, if any.
    fn take_deferred(&self, callee: RequestId) -> Option<RequestMessage> {
        let mut deferred = self.deferred.lock();
        let waiting = deferred.get_mut(&callee)?;
        let request = waiting.remove(0);
        if waiting.is_empty() {
            deferred.remove(&callee);
        }
        Some(request)
    }

    /// Admits `request` and carries out what admission decided, inline.
    fn dispatch(self: &Arc<Self>, request: RequestMessage) {
        let admission = self.admit_request(request);
        self.carry_out(admission);
    }

    /// Runs an admitted invocation, or sends a forward as a round of its own.
    fn carry_out(self: &Arc<Self>, admission: Admission) {
        match admission {
            Admission::Run(request, holds_lock, reentrant) => {
                Arc::clone(self).run_invocation(request, holds_lock, reentrant);
            }
            Admission::Forward(request) => {
                if let Step::Next(due, stage) = self.resend(request, None) {
                    Arc::clone(self).invocation_loop(due, stage);
                }
            }
            Admission::Mailboxed | Admission::Done => {}
        }
    }

    /// Admission control for one request: dedupes retries, defers
    /// happen-before-annotated retries, flags mis-routed requests for
    /// forwarding, and applies the actor-lock rules of §2.2–§4.1. Never
    /// blocks, and sends nothing: a forward is handed back to the caller,
    /// which sends it as a round of its own.
    ///
    /// Deduplication is a *claim*, taken first: two copies of one id can be
    /// admitted at the same moment (from a home lane and an adopted lane, or
    /// from a lane and the retry pump), and only the one whose insert into
    /// `inflight` — checked against `completed` under the same lock — wins
    /// goes on. A run or mailboxed request keeps the claim until it
    /// finishes; every other outcome releases it.
    fn admit_request(self: &Arc<Self>, request: RequestMessage) -> Admission {
        if !self.is_alive() {
            return Admission::Done;
        }
        let id = request.id;
        {
            let mut inflight = self.inflight.lock();
            if self.completed.lock().contains(&id) || !inflight.insert(id) {
                return Admission::Done;
            }
        }
        let admission = self.admit_claimed(request);
        if matches!(admission, Admission::Forward(_) | Admission::Done) {
            self.inflight.lock().remove(&id);
        }
        admission
    }

    /// [`Self::admit_request`] past the claim.
    fn admit_claimed(self: &Arc<Self>, mut request: RequestMessage) -> Admission {
        // Retry-orchestration gate: a *scheduled* retry copy (attempt ≥ 1)
        // waits out its next-fire deadline in the delayed heap and spends a
        // mesh retry-budget token to start; a shed re-queues it on its own
        // backoff (never dropped). Checked before the ownership resolve —
        // the schedule is request-carried, so an adopter that polled a
        // re-homed copy parks it on the very same deadline.
        if request
            .retry
            .as_ref()
            .is_some_and(|retry| retry.attempt > 0)
        {
            match self.gate_scheduled_retry(request) {
                Some(due_now) => request = due_now,
                None => return Admission::Done,
            }
        }
        // Mis-routed request (placement changed): forward to the current host.
        if !self.hosted.contains_key(request.target.actor_type()) {
            self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
            return Admission::Forward(request);
        }
        // Rebalance guard: hosting the *type* is not owning the *actor*. A
        // record can reach this component for an actor placed elsewhere —
        // e.g. it landed in a partition this component adopted from a failed
        // component, or placement moved while the record was in flight.
        // Executing it here would race the copy processed by the placement's
        // owner (the two components' retry dedupe sets are disjoint), so
        // verify ownership and forward otherwise. `resolve_nowait` also
        // (re-)places actors with no recorded placement, which is exactly
        // right for records salvaged from a flushed queue. A transient
        // placement error (a gray store fault) is handled like a stale
        // placement; any other means this component is being fenced/killed:
        // drop; the queue copy drives the retry.
        //
        // Placement-check locality: a slot stamped "ownership verified in
        // epoch E" skips even the one placement-cache hit while E is still
        // the current cache epoch — recovery's `clear_cache` bumps the epoch,
        // invalidating every stamp at once. The stamp is read *before*
        // resolving (mirroring the cache's insert-with-pre-read-epoch rule),
        // so a clear racing the resolution leaves the slot already-stale.
        let stamp = self.placement.ownership_stamp();
        let slot_verified = stamp.is_some()
            && self
                .actors
                .lock()
                .get(&request.target)
                .is_some_and(|slot| slot.verified_epoch == stamp);
        if slot_verified {
            self.placement.note_slot_hit();
        } else {
            match self.placement.resolve_nowait(&request.target) {
                Ok(Some(owner)) if owner == self.id => {}
                Ok(_) => {
                    // Owned elsewhere, or a stale placement awaiting repair:
                    // the forward re-resolves (parking on a stale placement)
                    // and appends to the owner's queue.
                    self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    return Admission::Forward(request);
                }
                Err(error) if error.is_transient() => return Admission::Forward(request),
                Err(_) => return Admission::Done,
            }
        }
        // Happen-before: a retried caller waits for its pending callee. The
        // deferred lock is held across the seen-response check and the park,
        // mirroring handle_response, so the callee's response cannot slip in
        // between them and leave this retry parked forever. Checked strictly
        // AFTER ownership: only the placement owner may park the retry,
        // because the callee's response chases the caller's *placement* — a
        // deferral on a mere partition adopter would never be woken.
        if let Some(callee) = request.pending_callee {
            {
                let mut deferred_map = self.deferred.lock();
                if !self.seen_responses.lock().contains(&callee) {
                    self.stats.deferred.fetch_add(1, Ordering::Relaxed);
                    deferred_map.entry(callee).or_default().push(request);
                    return Admission::Done;
                }
            }
            request.pending_callee = None;
        }
        let mut actors = self.actors.lock();
        // Admission watermark: a request that would *activate a new actor*
        // while the resident set is at the hard watermark is deferred with
        // shaped backoff on the delayed-retry heap: shed, never dropped, and
        // counted as locally pending so reconciliation never re-homes a
        // duplicate. Requests for already-resident actors
        // are never deferred (their memory is already paid for), so the hot
        // head keeps executing at full speed while the cold tail waits.
        if !actors.contains_key(&request.target) {
            if self.admission_overloaded() {
                let deadline = self.shape_activation_deferral(request.id, 0);
                let slot = actors.entry(request.target.clone()).or_default();
                slot.verified_epoch = stamp;
                slot.activation_parked = Some(request.id);
                drop(actors);
                self.stats
                    .admission_deferrals
                    .fetch_add(1, Ordering::Relaxed);
                self.park_delayed_at(request, deadline);
                return Admission::Done;
            }
            // A new resident. A standing tombstone makes this a rehydration
            // — the actor re-enters through this ordinary activation path,
            // indistinguishable from a first activation.
            self.resident_count.fetch_add(1, Ordering::Relaxed);
            if self.passivated.lock().remove(&request.target) {
                self.stats.rehydrations.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = actors.entry(request.target.clone()).or_default();
        slot.verified_epoch = stamp;
        if let Some(parked) = slot.activation_parked {
            if parked == request.id {
                // The head of a deferred activation is back from the
                // delayed heap. If the pressure has drained, activate;
                // otherwise re-shape (the backoff grows with each deferral)
                // and re-park — never drop.
                if self.admission_overloaded() {
                    slot.activation_deferrals = slot.activation_deferrals.saturating_add(1);
                    let deferrals = slot.activation_deferrals;
                    drop(actors);
                    let deadline = self.shape_activation_deferral(request.id, deferrals);
                    self.stats
                        .admission_deferrals
                        .fetch_add(1, Ordering::Relaxed);
                    self.park_delayed_at(request, deadline);
                    return Admission::Done;
                }
                slot.activation_parked = None;
                slot.activation_deferrals = 0;
                slot.busy = true;
                slot.busy_chain = request.chain();
                self.resident_count.fetch_add(1, Ordering::Relaxed);
                self.touch_idle(&request.target);
                if self.passivated.lock().remove(&request.target) {
                    self.stats.rehydrations.fetch_add(1, Ordering::Relaxed);
                }
                return Admission::Run(request, true, false);
            }
            // A sibling of a deferred activation: mailbox behind the parked
            // head, preserving per-actor FIFO across the deferral (the head
            // is admitted again from the delayed heap; the mailbox drains
            // behind it in arrival order).
            slot.mailbox.push_back(request);
            self.mailboxed.fetch_add(1, Ordering::Relaxed);
            return Admission::Mailboxed;
        }
        self.touch_idle(&request.target);
        if slot.awaiting_tail == Some(request.id) {
            // Continuation of a tail call to self: it owns the lock already.
            slot.awaiting_tail = None;
            slot.busy_chain = request.chain();
            Admission::Run(request, true, false)
        } else if slot.busy {
            let reentrant = request
                .lineage
                .iter()
                .any(|id| slot.busy_chain.contains(id));
            if reentrant {
                // Reentrant nested call: bypass the mailbox (§2.2).
                Admission::Run(request, false, true)
            } else {
                // Move the request into the mailbox — no payload clone.
                slot.mailbox.push_back(request);
                self.mailboxed.fetch_add(1, Ordering::Relaxed);
                Admission::Mailboxed
            }
        } else {
            slot.busy = true;
            slot.busy_chain = request.chain();
            Admission::Run(request, true, false)
        }
    }

    fn run_invocation(self: Arc<Self>, request: RequestMessage, holds_lock: bool, reentrant: bool) {
        let frame = Frame {
            request,
            holds_lock,
            reentrant,
        };
        let hop = self.hop_due();
        self.invocation_loop(hop, Stage::Start(frame));
    }

    /// Resumes a parked continuation with the nested call's result — one
    /// sidecar hop later — then re-enters the invocation loop exactly where
    /// the handler left off (flush, outcome handling, mailbox drain).
    fn resume_continuation(self: &Arc<Self>, parked: ParkedContinuation, input: KarResult<Value>) {
        let hop = self.hop_due();
        let outbox = Outbox::default();
        Arc::clone(self).invocation_loop(
            hop,
            Stage::Resume {
                parked,
                input,
                outbox,
            },
        );
    }

    /// Runs a stage the due-time heap held until its time came.
    pub(crate) fn resume_stage(self: &Arc<Self>, stage: Stage) {
        match stage {
            Stage::ResponseAck(wait) => {
                if self.is_alive() {
                    self.with_batcher(|batcher, ctx| batcher.acked(ctx, wait));
                }
            }
            stage => Arc::clone(self).invocation_loop(None, stage),
        }
    }

    /// The handler of `frame` returned an [`Outcome::CallThen`]: its nested
    /// request leaves one sidecar hop from now, in one round with the tells
    /// pending in the handler's `outbox`, behind them. The order is place,
    /// park, append: resolution can wait out a stale placement for a whole
    /// call timeout, and a continuation parked meanwhile would be timed out —
    /// and resumed under a context that knows nothing of the pending tells —
    /// while the round still holds them; and once the request is durable its
    /// response can arrive on another reactor at once, and must find the
    /// continuation in the table.
    fn nested_round(
        self: &Arc<Self>,
        frame: Frame,
        outbox: Outbox,
        target: ActorRef,
        method: String,
        args: Vec<Value>,
        policy: Option<RetryPolicy>,
        then: Continuation,
    ) -> Step {
        let nested_id = self.ids.fresh();
        let nested = RequestMessage {
            id: nested_id,
            caller: Some(frame.request.id),
            target,
            method,
            args,
            kind: CallKind::Call,
            lineage: frame.request.chain(),
            pending_callee: None,
            caller_actor: Some(frame.request.target.clone()),
            reply_to: Some(self.id),
            retry: policy.map(|p| Box::new(RetryState::fresh(p, epoch_ms()))),
            single_copy: false,
        };
        let Outbox {
            mut tells,
            failed,
            guarded,
        } = outbox;
        let caller = ParkedContinuation {
            request: frame.request,
            holds_lock: frame.holds_lock,
            reentrant: frame.reentrant,
            // Set when the continuation is parked.
            deadline: Duration::ZERO,
            then,
        };
        // A round that failed earlier in the handler fails this one too: the
        // invocation cannot complete over the tells it lost.
        if let Some(error) = failed {
            return Self::nested_round_failed(caller, error, true, guarded);
        }
        let records = tells.len();
        tells.push(nested);
        Step::Next(
            self.hop_due(),
            Stage::Round {
                placing: self.placing(tells, records, true),
                then: RoundThen::Nested {
                    nested: nested_id,
                    caller: Some(caller),
                    lost_tells: records > 0,
                    guarded,
                },
            },
        )
    }

    /// The round of `caller`'s nested call failed with `error` and appended
    /// nothing, so no response will ever arrive: the continuation resumes
    /// with the error, at once. It may swallow the error; if the round lost
    /// tells its invocation must still not complete over them, so its
    /// context starts from a failed outbox.
    fn nested_round_failed(
        caller: ParkedContinuation,
        error: KarError,
        lost_tells: bool,
        guarded: Option<Savepoint>,
    ) -> Step {
        let outbox = Outbox {
            tells: Vec::new(),
            failed: lost_tells.then(|| error.clone()),
            guarded,
        };
        Step::Next(
            None,
            Stage::Resume {
                parked: caller,
                input: Err(error),
                outbox,
            },
        )
    }

    /// The invocation state machine: runs `stage` once `due` has come, then
    /// whatever each step leads to — the handler, its outbox round, its
    /// state flush, its completion, the next invocation in the actor's
    /// mailbox — for as long as no step has to wait. A step that meets a due
    /// time still in the future parks the rest of the invocation on the
    /// mesh's due-time heap and returns: the reactor and the lane it was
    /// sweeping go back to the pool, while the actor stays busy and the
    /// request in flight. Also returns, for good,
    /// when the handler parks a continuation ([`Outcome::CallThen`]).
    fn invocation_loop(self: Arc<Self>, mut due: Option<Duration>, mut stage: Stage) {
        loop {
            if !self.is_alive() {
                return;
            }
            let Some(ready) = self.io.park_unless_due(due, &self, stage) else {
                return;
            };
            match self.step(ready) {
                Step::Next(next_due, next) => {
                    due = next_due;
                    stage = next;
                }
                Step::Done => return,
            }
        }
    }

    /// Runs what `stage` was waiting to run: the I/O it names has completed.
    fn step(self: &Arc<Self>, stage: Stage) -> Step {
        match stage {
            Stage::Start(frame) => {
                if self.config.cancellation == CancellationPolicy::Cancel
                    && self.should_cancel(&frame.request)
                {
                    self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                    let cancelled = KarError::Cancelled {
                        request: frame.request.id,
                    };
                    return self.respond(frame, Err(cancelled));
                }
                // The circuit breaker sits at the execute boundary: an open
                // breaker fails the attempt fast (the retryable
                // `CircuitOpen` flows into the ordinary failure
                // orchestration); a closed one feeds its health window from
                // the outcome. Self-failures (killed / fenced mid-run) say
                // nothing about the actor type's health, and fast-fails are
                // not recorded — an open breaker must not feed itself.
                let actor_type = frame.request.target.actor_type();
                let attempt = match self.breakers.admit(actor_type) {
                    Ok(()) => {
                        let attempt = self.execute(&frame.request, frame.reentrant);
                        if !matches!(
                            attempt.result,
                            Err(KarError::Killed { .. } | KarError::Fenced { .. })
                        ) {
                            self.breakers.record(actor_type, attempt.result.is_ok());
                        }
                        attempt
                    }
                    Err(error) => Attempt {
                        result: Err(error),
                        outbox: Outbox::default(),
                    },
                };
                self.handler_returned(frame, attempt)
            }
            Stage::Resume {
                parked,
                input,
                outbox,
            } => {
                let ParkedContinuation {
                    request,
                    holds_lock,
                    reentrant,
                    then,
                    ..
                } = parked;
                let attempt = {
                    let mut ctx = ActorContext::new(self, &request, request.target.clone(), outbox);
                    let result = then.resume(&mut ctx, input);
                    Attempt::finished(ctx, result)
                };
                let frame = Frame {
                    request,
                    holds_lock,
                    reentrant,
                };
                self.handler_returned(frame, attempt)
            }
            Stage::Round { mut placing, then } => match self.place_once(&mut placing) {
                Ok(Placement::Routed(run)) => {
                    let round = RoundInFlight::new(run, placing.tells);
                    self.submit_round(round, then)
                }
                // Parked again: a stale placement never holds a reactor, a
                // lane or — for a forward — an actor.
                Ok(Placement::Unresolved { retry_at }) => {
                    Step::Next(Some(retry_at), Stage::Round { placing, then })
                }
                Err(error) => self.round_over(then, Err(error)),
            },
            Stage::RoundAck { round, then } => match self.settle_round(round) {
                Settled::Done(outcome) => self.round_over(then, outcome),
                // The ack was lost: the whole round again.
                Settled::Replay(round) => self.submit_round(round, then),
            },
            Stage::StateFlush {
                frame,
                result,
                pending,
                acked,
                submits_left,
            } => {
                let key = state_key(&frame.request.target);
                match self.state_cache.finish_flush(&key, pending, acked) {
                    Ok(()) => self.complete(frame, result),
                    // The ack was lost; the batch is idempotent: again.
                    Err(error) if error.is_transient() && submits_left > 0 => {
                        self.submit_state_flush(frame, result, submits_left)
                    }
                    Err(error) if error.is_transient() => self.complete(frame, Err(error)),
                    Err(_) => Step::Done,
                }
            }
            Stage::Respond { frame, result } => {
                // Completed before the response can be seen: a copy of the
                // request polled once the caller has its answer is a
                // duplicate.
                self.finish(&frame.request);
                self.route_response(&frame.request, result);
                self.next_in_mailbox(frame)
            }
            Stage::ResponseAck(_) => unreachable!("resumed by the batcher, not the loop"),
        }
    }

    /// A handler — or a resumed continuation — returned `attempt`.
    fn handler_returned(self: &Arc<Self>, frame: Frame, attempt: Attempt) -> Step {
        let Attempt { result, outbox } = attempt;
        match result {
            // A parked nested call suspends the handler mid-invocation: no
            // state is flushed and nothing completes — the original request
            // stays in-flight (and in its queue copy), the actor stays
            // locked, and recovery treats the parked invocation exactly like
            // one executing on a killed thread. Its pending tells leave with
            // the nested request.
            Ok(Outcome::CallThen {
                target,
                method,
                args,
                policy,
                then,
            }) => self.nested_round(frame, outbox, target, method, args, policy, then),
            // Outbox → state flush → completion, never state first.
            other => self.flush_outbox(frame, outbox, other),
        }
    }

    /// Settles what a finished handler left in its outbox, strictly before
    /// its state is flushed and before any completion: the pending tells
    /// leave as one round, one sidecar hop from now. Skipped for an attempt
    /// that was killed or fenced (it publishes nothing).
    fn flush_outbox(
        self: &Arc<Self>,
        frame: Frame,
        outbox: Outbox,
        result: KarResult<Outcome>,
    ) -> Step {
        let Outbox {
            tells,
            failed,
            guarded,
        } = outbox;
        if (tells.is_empty() && failed.is_none())
            || matches!(
                result,
                Err(KarError::Killed { .. } | KarError::Fenced { .. })
            )
        {
            return self.flush_state(frame, result);
        }
        if tells.is_empty() {
            // Nothing left to send, but a round flushed mid-handler failed.
            return self.outbox_settled(frame, result, Ok(()), failed, guarded);
        }
        let records = tells.len();
        Step::Next(
            self.hop_due(),
            Stage::Round {
                placing: self.placing(tells, records, true),
                then: RoundThen::Outbox {
                    frame,
                    result,
                    failed,
                    guarded,
                },
            },
        )
    }

    /// Submits (or, its ack lost, re-submits) a placed round. The
    /// continuation of a nested call is parked first: the response to a
    /// durable request can arrive before this returns.
    fn submit_round(self: &Arc<Self>, mut round: RoundInFlight, mut then: RoundThen) -> Step {
        if let RoundThen::Nested { nested, caller, .. } = &mut then {
            if let Some(mut caller) = caller.take() {
                caller.deadline = mono_now() + self.config.call_timeout;
                self.continuations.park(*nested, caller);
            }
        }
        let due = round.round.submit(&self.producer, &self.topic);
        Step::Next(due, Stage::RoundAck { round, then })
    }

    /// A round sent from this reactor is over — durable, or failed with
    /// nothing appended (placement included): on to what it was for.
    fn round_over(self: &Arc<Self>, then: RoundThen, outcome: KarResult<()>) -> Step {
        match then {
            RoundThen::Outbox {
                frame,
                result,
                failed,
                guarded,
            } => self.outbox_settled(frame, result, outcome, failed, guarded),
            RoundThen::Nested {
                nested,
                caller,
                lost_tells,
                guarded,
            } => {
                // Durable: the invocation stays parked on the response (the
                // tells are durable too, so the writes buffered behind them
                // may be: `guarded` is dropped).
                let Err(error) = outcome else {
                    return Step::Done;
                };
                // Never placed, or parked and to be taken back — unless a
                // racing timer claimed it as timed out first: the timeout
                // path owns the resume then.
                match caller.or_else(|| self.continuations.take(nested)) {
                    Some(caller) => Self::nested_round_failed(caller, error, lost_tells, guarded),
                    None => Step::Done,
                }
            }
            RoundThen::Resend { settles, frame } => {
                if outcome.is_ok() {
                    self.settle.close_all(settles.as_slice());
                }
                // A tail call to a different actor releases the lock: on to
                // the mailbox, the successor's ack behind it.
                frame.map_or(Step::Done, |frame| self.next_in_mailbox(frame))
            }
        }
    }

    /// The outbox round is over — `flushed` says how. If it — or an earlier
    /// round of this invocation, flushed mid-handler (`failed`) — failed,
    /// the error replaces an `Ok` result and the state writes the handler
    /// buffered behind the lost tells are rolled back (`guarded`), so the
    /// state flush that follows cannot persist a guard for a tell that never
    /// left; a killed or fenced round replaces any result, steering the
    /// invocation into the no-completion arm. The state flush is submitted
    /// right here, in the frame that observed the round's ack.
    fn outbox_settled(
        self: &Arc<Self>,
        frame: Frame,
        result: KarResult<Outcome>,
        flushed: KarResult<()>,
        failed: Option<KarError>,
        guarded: Option<Savepoint>,
    ) -> Step {
        let result = match failed.map_or(flushed, Err) {
            Ok(()) => result,
            Err(error @ (KarError::Killed { .. } | KarError::Fenced { .. })) => Err(error),
            Err(error) => {
                if let Some(savepoint) = guarded {
                    self.state_cache
                        .rollback(&state_key(&frame.request.target), savepoint);
                }
                result.and(Err(error))
            }
        };
        self.flush_state(frame, result)
    }

    /// Flush-before-respond: the invocation's buffered state writes become
    /// durable (one pipelined round trip) before ANY completion — response,
    /// error response, or tail-call continuation — is sent. The flush batch
    /// is idempotent (pure sets/deletes), so a *transient* store failure —
    /// including a gray failure whose ack was lost after the batch applied —
    /// is replayed locally a bounded number of times; past that, the
    /// transient error is escalated into the ordinary failure arm of
    /// [`Self::complete`], where retry orchestration (queue copy + dedup)
    /// takes over. A fenced or killed flush means this component died
    /// mid-completion: nothing is sent, and the queue copy drives the retry
    /// from the last durable state.
    fn flush_state(self: &Arc<Self>, frame: Frame, result: KarResult<Outcome>) -> Step {
        if matches!(
            result,
            Err(KarError::Killed { .. } | KarError::Fenced { .. })
        ) {
            return self.complete(frame, result);
        }
        self.submit_state_flush(frame, result, TRANSIENT_ATTEMPTS)
    }

    /// Submits the state flush, replaying at once a submit refused with a
    /// transient fault (nothing was applied) while `submits_left` allows.
    fn submit_state_flush(
        self: &Arc<Self>,
        frame: Frame,
        result: KarResult<Outcome>,
        mut submits_left: u32,
    ) -> Step {
        let key = state_key(&frame.request.target);
        loop {
            submits_left -= 1;
            match self.state_cache.submit_flush(&self.conn, &key) {
                Ok(None) => return self.complete(frame, result),
                Ok(Some((pending, Completion { due, result: acked }))) => {
                    return Step::Next(
                        due,
                        Stage::StateFlush {
                            frame,
                            result,
                            pending,
                            acked,
                            submits_left,
                        },
                    );
                }
                Err(error) if error.is_transient() && submits_left > 0 => {}
                Err(error) if error.is_transient() => return self.complete(frame, Err(error)),
                Err(_) => return Step::Done,
            }
        }
    }

    /// The invocation's outbox and state are durable: completes it as
    /// `result` says.
    fn complete(self: &Arc<Self>, frame: Frame, result: KarResult<Outcome>) -> Step {
        let request = &frame.request;
        match result {
            Ok(Outcome::Value(value)) => {
                self.stats.executed.fetch_add(1, Ordering::Relaxed);
                self.respond(frame, Ok(value))
            }
            Ok(Outcome::CallThen { .. }) => unreachable!("parked when the handler returned"),
            Ok(Outcome::TailCall {
                target,
                method,
                args,
            }) => {
                self.stats.executed.fetch_add(1, Ordering::Relaxed);
                self.stats.tail_calls.fetch_add(1, Ordering::Relaxed);
                let same_actor = target == request.target;
                let tail = RequestMessage {
                    id: request.id,
                    caller: request.caller,
                    target,
                    method,
                    args,
                    kind: CallKind::TailCall,
                    lineage: request.lineage.clone(),
                    pending_callee: None,
                    caller_actor: request.caller_actor.clone(),
                    reply_to: request.reply_to,
                    // A tail call continues the same logical request,
                    // so it inherits the caller's retry *policy* — as
                    // a fresh schedule for the new stage (a stage is
                    // never admitted as a scheduled-retry copy). A
                    // policy-covered call stays covered across its
                    // §2.3 read/commit decomposition; the callee's
                    // defaults still apply when the caller set none.
                    retry: request
                        .retry
                        .as_ref()
                        .map(|state| Box::new(RetryState::fresh(state.policy.clone(), epoch_ms()))),
                    // The successor is a second record of this id.
                    single_copy: false,
                };
                self.inflight.lock().remove(&request.id);
                if same_actor && frame.holds_lock {
                    // Retain the actor lock across the tail call: the
                    // continuation bypasses the mailbox when its queue
                    // copy arrives (§4.1). It is sent straight to the
                    // actor's own home partition here — the hash the
                    // continuation's copy would take anyway — through
                    // the same per-destination batching as responses,
                    // so a continuation produced while another
                    // completion's ack is in flight rides its flush.
                    {
                        let mut actors = self.actors.lock();
                        if let Some(slot) = actors.get_mut(&request.target) {
                            slot.awaiting_tail = Some(request.id);
                        }
                    }
                    if let Some(partition) = self.own_partition_for(&request.target) {
                        // The successor is this record's completion.
                        let settles = self.settle.take(request.id);
                        self.send_completion(partition, Envelope::Request(tail), settles);
                    }
                    return Step::Done;
                }
                self.resend(tail, Some(frame))
            }
            Err(KarError::Killed { .. } | KarError::Fenced { .. }) => {
                // The invocation was interrupted by a failure: no
                // response, no completion; retry orchestration takes
                // over during reconciliation.
                Step::Done
            }
            Err(error) => {
                self.stats.executed.fetch_add(1, Ordering::Relaxed);
                // Policy-orchestrated failure: schedule a retry copy
                // (in which case nothing completes here — the copy
                // carries the schedule), or settle the failure as
                // final (respond + finish), possibly via the DLQ.
                match self.orchestrate_failure(request, error) {
                    Some(error) => self.respond(frame, Err(error)),
                    None => self.next_in_mailbox(frame),
                }
            }
        }
    }

    /// Completes `frame`'s request with `result`: the response leaves one
    /// sidecar hop from now ([`Stage::Respond`]) — if anybody can be waiting
    /// for one — and the request is finished.
    fn respond(self: &Arc<Self>, frame: Frame, result: Payload) -> Step {
        if Self::awaits_response(&frame.request) {
            return Step::Next(self.hop_due(), Stage::Respond { frame, result });
        }
        self.finish(&frame.request);
        self.next_in_mailbox(frame)
    }

    /// `frame`'s invocation is over: processes the next queued invocation
    /// for its actor, or releases the actor lock.
    fn next_in_mailbox(self: &Arc<Self>, mut frame: Frame) -> Step {
        if !frame.holds_lock {
            return Step::Done;
        }
        let mut actors = self.actors.lock();
        let Some(slot) = actors.get_mut(&frame.request.target) else {
            return Step::Done;
        };
        if slot.awaiting_tail.is_some() {
            return Step::Done;
        }
        match slot.mailbox.pop_front() {
            Some(next) => {
                self.mailboxed.fetch_sub(1, Ordering::Relaxed);
                slot.busy_chain = next.chain();
                drop(actors);
                frame.request = next;
                frame.reentrant = false;
                Step::Next(self.hop_due(), Stage::Start(frame))
            }
            None => {
                slot.busy = false;
                slot.busy_chain.clear();
                // The mailbox ran dry: restart the actor's idle clock
                // from the end of its activity, not from its last
                // admission.
                self.touch_idle(&frame.request.target);
                Step::Done
            }
        }
    }

    fn should_cancel(&self, request: &RequestMessage) -> bool {
        if request.caller.is_none() {
            return false;
        }
        // §4.4: check the list of live components; if the caller's component
        // is not listed, elide execution and send a synthetic response. The
        // caller's component is approximated by its reply_to component or by
        // the current placement of the caller actor.
        if let Some(reply_to) = request.reply_to {
            return !self.live.read().contains(&reply_to);
        }
        false
    }

    fn make_instance(
        &self,
        ctx: &mut ActorContext<'_>,
        request: &RequestMessage,
    ) -> KarResult<Box<dyn crate::actor::Actor>> {
        let factory = self
            .hosted
            .get(request.target.actor_type())
            .ok_or_else(|| {
                KarError::internal(format!(
                    "component {} does not host actor type {}",
                    self.id,
                    request.target.actor_type()
                ))
            })?;
        let mut instance = factory();
        instance.activate(ctx)?;
        Ok(instance)
    }

    /// Runs `request`'s handler — activating the actor first if it has no
    /// instance — under one context, so whatever `activate` and `invoke`
    /// told leaves in one outbox.
    fn execute(self: &Arc<Self>, request: &RequestMessage, reentrant: bool) -> Attempt {
        let mut ctx = ActorContext::new(self, request, request.target.clone(), Outbox::default());
        let result = self.run_handler(&mut ctx, request, reentrant);
        Attempt::finished(ctx, result)
    }

    fn run_handler(
        &self,
        ctx: &mut ActorContext<'_>,
        request: &RequestMessage,
        reentrant: bool,
    ) -> KarResult<Outcome> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        // Reentrant invocations run on a fresh activation of the actor (the
        // cached instance is checked out by the suspended ancestor frame);
        // durable state is shared through the persistence API.
        let mut instance = if reentrant {
            self.make_instance(ctx, request)?
        } else {
            let taken = {
                let mut actors = self.actors.lock();
                actors
                    .get_mut(&request.target)
                    .and_then(|slot| slot.instance.take())
            };
            match taken {
                Some(instance) => instance,
                None => self.make_instance(ctx, request)?,
            }
        };
        let result = instance.invoke(ctx, &request.method, &request.args);
        if !reentrant && self.is_alive() {
            let mut actors = self.actors.lock();
            if let Some(slot) = actors.get_mut(&request.target) {
                slot.instance = Some(instance);
            }
        }
        result
    }

    fn finish(&self, request: &RequestMessage) {
        self.completed.lock().insert(request.id);
        self.inflight.lock().remove(&request.id);
        if !Self::awaits_response(request) {
            // A finished tell (or tell-rooted tail-call chain) leaves no
            // completion record to wait for. Its outbox round has been
            // acknowledged by now — the flush precedes every completion —
            // so the record is never trimmed ahead of the tells it produced.
            self.settle.settle_now(request.id);
        }
    }

    /// Re-appends `request` elsewhere — a forward to the actor's current
    /// host, or a tail-call successor to another actor, whose invocation
    /// `frame` it completes — as a round of its own ([`RoundThen::Resend`]).
    /// The copy is never single-copy: the request already has a record, the
    /// one it was polled from, which settles once the copy is durable.
    fn resend(self: &Arc<Self>, request: RequestMessage, frame: Option<Frame>) -> Step {
        let settles = self.settle.take(request.id);
        Step::Next(
            None,
            Stage::Round {
                placing: self.placing(vec![request], 0, false),
                then: RoundThen::Resend { settles, frame },
            },
        )
    }

    // ------------------------------------------------------------------
    // Retry orchestration (the policy layer over the queue-copy mechanism)
    // ------------------------------------------------------------------

    /// Handles a failed attempt of `request` under its governing policy (the
    /// request-carried schedule, or the actor type's configured default
    /// starting fresh at first failure). Returns the error when the failure
    /// is final — the caller responds and finishes — or `None` when a retry
    /// copy was durably re-appended, in which case the caller must **not**
    /// call [`ComponentCore::finish`]: marking the id completed would make
    /// admission dedupe the retry copy away.
    fn orchestrate_failure(
        self: &Arc<Self>,
        request: &RequestMessage,
        error: KarError,
    ) -> Option<KarError> {
        let now = self.retry_epoch_now();
        let state = match request.retry.clone() {
            Some(state) => *state,
            None => match self.config.retry_policy_for(request.target.actor_type()) {
                Some(policy) => RetryState::fresh(policy.clone(), now),
                None => return Some(error),
            },
        };
        match state.after_failure(request.id.as_u64(), &error, now) {
            RetryVerdict::Retry(next) => {
                let mut copy = request.clone();
                copy.retry = Some(Box::new(next));
                copy.pending_callee = None;
                copy.single_copy = false;
                // Release the in-flight claim BEFORE the durable re-append:
                // admission dedupes against in-flight ids, so the opposite
                // order would swallow the copy. A crash inside this window
                // is safe — the original queue copy still drives recovery,
                // schedule state included.
                self.inflight.lock().remove(&request.id);
                // The copy supersedes the record this attempt was polled
                // from, which settles once the copy is durable (taken first:
                // the copy may be routed before the append even returns).
                let settles = self.settle.take(request.id);
                // The re-append is replayed through transient gray failures:
                // an ack-lost replay appends a second copy, which the
                // delayed-heap/in-flight id dedup collapses at admission.
                let appended = self
                    .own_partition_for(&request.target)
                    .is_some_and(|partition| {
                        let envelope = Envelope::Request(copy);
                        retry_transient(TRANSIENT_ATTEMPTS, || {
                            self.producer.send(&self.topic, partition, envelope.clone())
                        })
                        .is_ok()
                    });
                if appended {
                    self.settle.close_all(settles.as_slice());
                    self.stats.retries_scheduled.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    // Fenced mid-append: nothing was scheduled; settle the
                    // failure here (the original queue copy drives recovery).
                    Some(error)
                }
            }
            RetryVerdict::Exhausted(final_state) => {
                self.dead_letter(request, &final_state, &error);
                Some(error)
            }
        }
    }

    /// Admission gate for a scheduled retry copy: park it until its
    /// next-fire deadline, then spend a mesh retry-budget token to start it.
    /// A shed re-queues the retry on its own backoff delay — never dropped —
    /// until the policy's attempt-start grace expires, at which point the
    /// shed counts as a timed-out attempt (advancing the schedule toward the
    /// DLQ instead of stalling it forever). Returns the request when it may
    /// proceed to ordinary admission *now*, `None` when it was parked or
    /// settled.
    fn gate_scheduled_retry(
        self: &Arc<Self>,
        mut request: RequestMessage,
    ) -> Option<RequestMessage> {
        let now = self.retry_epoch_now();
        let seed = request.id.as_u64();
        let due = request.retry.as_ref().is_some_and(|retry| retry.due(now));
        if due {
            if self.budget.try_take() {
                return Some(request);
            }
            let rescheduled = request
                .retry
                .as_mut()
                .is_some_and(|retry| retry.reschedule_shed(seed, now));
            if !rescheduled {
                // Budget starvation outlived the attempt-start grace: count
                // a timed-out attempt against the schedule.
                let state = request.retry.clone().expect("gated request has a schedule");
                let grace_ms = state
                    .policy
                    .attempt_timeout
                    .map_or(0, |grace| grace.as_millis() as u64);
                let error = KarError::Timeout {
                    request: request.id,
                    after_ms: grace_ms,
                };
                match state.after_failure(seed, &error, now) {
                    RetryVerdict::Retry(next) => request.retry = Some(Box::new(next)),
                    RetryVerdict::Exhausted(final_state) => {
                        self.dead_letter(&request, &final_state, &error);
                        // Never admitted to its actor: it holds no lock.
                        let frame = Frame {
                            request,
                            holds_lock: false,
                            reentrant: false,
                        };
                        if let Step::Next(due, stage) = self.respond(frame, Err(error)) {
                            Arc::clone(self).invocation_loop(due, stage);
                        }
                        return None;
                    }
                }
            }
        }
        self.park_delayed(request);
        None
    }

    /// Parks one scheduled retry in the delayed heap (deduping by id — two
    /// copies of one schedule collapse to the earlier park).
    fn park_delayed(&self, request: RequestMessage) {
        let not_before = request.retry.as_ref().map_or(0, |r| r.not_before_ms);
        self.park_delayed_at(request, not_before);
    }

    /// Parks `request` until `not_before` (epoch ms), deduping by id. Also
    /// the parking spot for watermark-deferred activations: they ride the
    /// same heap, the same pump, and the same `locally_pending` coverage as
    /// scheduled retries — without touching the request's own retry state.
    fn park_delayed_at(&self, request: RequestMessage, not_before: u64) {
        let mut delayed = self.delayed.lock();
        if !delayed.ids.insert(request.id) {
            return;
        }
        delayed.heap.push(Reverse(not_before));
        delayed
            .by_deadline
            .entry(not_before)
            .or_default()
            .push(request);
        let earliest = self.delayed_earliest.load(Ordering::Relaxed);
        if earliest == 0 || not_before < earliest {
            // Published under the heap lock: pump_retries re-reads it under
            // the same lock before trusting it.
            self.delayed_earliest.store(not_before, Ordering::Relaxed);
        }
    }

    /// The retry clock's reading, if the earliest delayed retry is due by
    /// it. The fast path, nothing delayed, is one atomic load.
    fn retry_due(&self) -> Option<u64> {
        let earliest = self.delayed_earliest.load(Ordering::Relaxed);
        if earliest == 0 {
            return None;
        }
        let now = self.retry_epoch_now();
        (now >= earliest).then_some(now)
    }

    /// Admits the delayed retries whose deadline has passed, inline (their
    /// budget spend happens at admission). Runs on every reactor sweep,
    /// never on the timer: admission can run a handler.
    fn pump_retries(self: &Arc<Self>) -> bool {
        let Some(now) = self.retry_due() else {
            return false;
        };
        let mut due: Vec<RequestMessage> = Vec::new();
        {
            let mut delayed = self.delayed.lock();
            while let Some(&Reverse(deadline)) = delayed.heap.peek() {
                if deadline > now {
                    break;
                }
                delayed.heap.pop();
                if let Some(batch) = delayed.by_deadline.remove(&deadline) {
                    due.extend(batch);
                }
            }
            let next = delayed.heap.peek().map_or(0, |Reverse(d)| *d);
            self.delayed_earliest.store(next, Ordering::Relaxed);
        }
        let did = !due.is_empty();
        for request in due {
            // A due retry counts as locally pending until its own admission
            // claims it, not just until the earlier ones have run.
            self.delayed.lock().ids.remove(&request.id);
            self.dispatch(request);
        }
        did
    }

    /// Moves a schedule-exhausted request to the mesh dead-letter queue,
    /// exactly once per request id: a full copy of the final request record
    /// (terminal [`RetryState`] included, `not_before_ms` re-stamped as the
    /// dead-letter time) is appended to this component's [`DLQ_TOPIC`]
    /// partition for provenance, and a durable store index entry — which
    /// outlives queue retention — feeds `Mesh::dlq_stats` / `dlq_retry`.
    fn dead_letter(&self, request: &RequestMessage, state: &RetryState, error: &KarError) {
        // The done-marker claim is the exactly-once gate; the unique token
        // plus read-back in `claim_marker` keeps it exact even when the
        // admin store path drops acks. A store unreachable past the bounded
        // retries skips dead-lettering (best effort — the failure still
        // settles below either way).
        let marker = format!("dlq/done/{}", request.id.as_u64());
        let token = Value::from(format!(
            "dead-letter-{}-{}",
            self.id.as_u64(),
            self.ids.fresh().as_u64()
        ));
        if !matches!(
            crate::faults::claim_marker(&self.store, &marker, &token),
            Ok(true)
        ) {
            return;
        }
        let now = epoch_ms();
        let mut final_state = state.clone();
        final_state.not_before_ms = now;
        let mut entry = request.clone();
        entry.retry = Some(Box::new(final_state.clone()));
        let partition = self.id.as_u64() as usize;
        if self
            .broker
            .ensure_partitions(DLQ_TOPIC, partition + 1)
            .is_ok()
        {
            // Provenance append, replayed through gray failures. An ack-lost
            // replay can duplicate the record in the provenance topic, which
            // is tolerated: `dlq_stats`/`dlq_retry` read the store index,
            // never this topic.
            let entry = Envelope::Request(entry);
            let _ = retry_transient(TRANSIENT_ATTEMPTS, || {
                self.broker
                    .admin_append(DLQ_TOPIC, partition, entry.clone())
            });
        }
        let record = Value::map([
            ("component", Value::Int(self.id.as_u64() as i64)),
            (
                "target_type",
                Value::Str(request.target.actor_type().to_owned()),
            ),
            (
                "target_id",
                Value::Str(request.target.actor_id().to_owned()),
            ),
            ("method", Value::Str(request.method.clone())),
            ("args", Value::List(request.args.clone())),
            ("attempts", Value::Int(i64::from(final_state.attempt))),
            ("last_error", Value::Str(error.to_string())),
            ("started_ms", Value::Int(final_state.started_ms as i64)),
            ("dead_lettered_ms", Value::Int(now as i64)),
        ]);
        // The index entry feeds `dlq_stats`/`dlq_retry`; the write is
        // idempotent, so the bounded replay absorbs dropped acks.
        let _ = retry_transient(TRANSIENT_ATTEMPTS, || {
            self.store.admin_set_checked(
                &format!("dlq/entry/{}", request.id.as_u64()),
                record.clone(),
            )
        });
        self.stats.dead_lettered.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of scheduled retries currently waiting out their backoff.
    pub fn delayed_retries(&self) -> usize {
        self.delayed.lock().ids.len()
    }

    /// `(retries scheduled, invocations dead-lettered)` by this component's
    /// failure orchestration.
    pub fn retry_orchestration_stats(&self) -> (u64, u64) {
        (
            self.stats.retries_scheduled.load(Ordering::Relaxed),
            self.stats.dead_lettered.load(Ordering::Relaxed),
        )
    }

    // ------------------------------------------------------------------
    // Reactor surface (no threads of its own)
    // ------------------------------------------------------------------

    /// Prepares the component for the reactor pool: builds one consumer
    /// lane per home partition. Spawns nothing; the mesh registers the
    /// component with its reactors afterwards.
    pub(crate) fn start(&self) {
        let home = self.partitions.read().home().to_vec();
        let lanes = home.into_iter().map(|p| self.make_lane(vec![p]));
        self.lanes.lock().extend(lanes);
    }

    /// Builds one consumer lane over `partitions`, wiring every consumer
    /// into the mesh reactor wake group (an append to any of them wakes an
    /// idle reactor).
    fn make_lane(&self, partitions: Vec<usize>) -> Arc<ConsumerLane> {
        let consumers: Vec<Consumer<Envelope>> = partitions
            .iter()
            .filter_map(|partition| self.broker.consumer(self.id, &self.topic, *partition).ok())
            .collect();
        for consumer in &consumers {
            consumer.join_wait_group(&self.wakeup);
        }
        Arc::new(ConsumerLane {
            consumers: Mutex::new(consumers),
        })
    }

    /// Drops `lane` from the lane list (its consumers are all gone).
    fn remove_lane(&self, lane: &Arc<ConsumerLane>) {
        self.lanes.lock().retain(|l| !Arc::ptr_eq(l, lane));
    }

    /// Detaches `lane`'s consumers from the reactor wake group and drops
    /// them (the component was killed) — unless a reactor holds the lane, in
    /// which case that reactor does it once it lets go of the lane.
    fn detach_lane(&self, lane: &ConsumerLane) {
        if let Some(mut consumers) = lane.consumers.try_lock() {
            for consumer in consumers.iter() {
                consumer.leave_wait_group(&self.wakeup);
            }
            consumers.clear();
        }
    }

    /// One reactor sweep over this component: poll ready consumer lanes
    /// (admitting what they poll), admit due retries, resume timed-out
    /// continuations. Returns true if any work was done. Safe to call from
    /// any number of reactors concurrently — lanes are claimed individually.
    /// `wake_at` is lowered to the earliest instant a record already in one
    /// of this component's partitions becomes readable: the sweeping reactor
    /// must not sleep past it (no append will announce it).
    pub(crate) fn pump(self: &Arc<Self>, wake_at: &mut Option<Duration>) -> bool {
        if !self.is_alive() || self.is_paused() {
            return false;
        }
        let mut did = self.pump_consumers(wake_at);
        did |= self.pump_retries();
        did |= self.pump_timeouts();
        if self.settle.sweep_due() {
            self.trim_settled();
        }
        did
    }

    /// Trims every home partition up to its settled prefix (see
    /// [`crate::settle`]). Not counted as reactor progress: a trim makes no
    /// record deliverable.
    fn trim_settled(&self) {
        let trims = self
            .settle
            .sweep(|partition| self.broker.log_start(&self.topic, partition));
        for (partition, watermark) in trims {
            // A fenced trim means this component was declared failed: the
            // records now belong to reconciliation.
            if let Ok(count) = self.producer.trim_before(&self.topic, partition, watermark) {
                self.settle.trimmed(partition, count);
            }
        }
    }

    /// Polls every claimable consumer lane once. `Consumer::ready()` is a
    /// lock-free check, so sweeping a large idle topology costs two atomic
    /// loads per partition — this is what lets one fixed reactor pool drive
    /// 100× the partitions.
    fn pump_consumers(self: &Arc<Self>, wake_at: &mut Option<Duration>) -> bool {
        let lanes: Vec<Arc<ConsumerLane>> = self.lanes.lock().clone();
        let mut did = false;
        for lane in lanes {
            let Some(mut consumers) = lane.consumers.try_lock() else {
                // Another reactor is sweeping this lane; its partitions stay
                // serialized, exactly like the old one-thread-per-lane model.
                continue;
            };
            let mut index = 0;
            while index < consumers.len() && self.is_alive() && !self.is_paused() {
                if !consumers[index].ready() {
                    if let Some(visible_at) = consumers[index].next_visible_at() {
                        *wake_at = Some(wake_at.map_or(visible_at, |at| at.min(visible_at)));
                    }
                    index += 1;
                    continue;
                }
                match consumers[index].poll(64) {
                    Ok(records) => {
                        if !records.is_empty() {
                            did = true;
                            self.route_records(consumers[index].partition(), records);
                        }
                        index += 1;
                    }
                    Err(error) if error.is_fenced() => {
                        // Fenced: the partition was reassigned (or the
                        // component is gone). Detach it from the wake group
                        // and — if it was adopted — from the retirement
                        // clock, so a re-homed-again range cannot leak an
                        // `adopted_at` entry.
                        consumers[index].leave_wait_group(&self.wakeup);
                        let partition = consumers[index].partition();
                        self.adopted_at.lock().remove(&partition);
                        consumers.remove(index);
                    }
                    Err(_) => {
                        // Transient poll failure (a gray fault at the
                        // consumer_poll site, or a store brownout surfacing
                        // through the broker): the subscription is still
                        // valid, so keep the consumer and retry on the next
                        // sweep. Dropping it here would silently orphan the
                        // partition until reconciliation noticed.
                        self.poll_faults.fetch_add(1, Ordering::Relaxed);
                        index += 1;
                    }
                }
            }
            let empty = consumers.is_empty();
            drop(consumers);
            if !self.is_alive() {
                // `kill` skips a lane some reactor holds — this one, when a
                // handler it ran killed its own component. Checked after
                // letting go: a kill that found the lane held happened
                // before this check, so one of the two detaches it.
                self.detach_lane(&lane);
                return did;
            }
            if empty {
                self.remove_lane(&lane);
            }
            if self.is_paused() {
                return did;
            }
        }
        did
    }

    /// Resumes continuations the mesh timer flagged as timed out — on a
    /// reactor, so application code never runs on the timer thread.
    fn pump_timeouts(self: &Arc<Self>) -> bool {
        let expired = std::mem::take(&mut *self.timed_out.lock());
        if expired.is_empty() {
            return false;
        }
        for (nested, parked) in expired {
            let error = KarError::Timeout {
                request: nested,
                after_ms: self.config.call_timeout.as_millis() as u64,
            };
            self.resume_continuation(parked, Err(error));
        }
        true
    }

    /// One mesh-timer tick: heartbeat, bookkeeping aging, continuation
    /// deadlines, orphaned-response routing, partition retirement, trimming
    /// of settled log prefixes. Called at
    /// the scaled heartbeat interval by the mesh's single timer thread.
    pub(crate) fn tick(self: &Arc<Self>, now: Duration) {
        if !self.is_alive() {
            return;
        }
        if !self.heartbeats_stopped.load(Ordering::Relaxed) {
            if self.broker.heartbeat(&self.group, self.id).is_err() {
                self.heartbeats_stopped.store(true, Ordering::Relaxed);
            } else {
                self.age_retry_bookkeeping();
            }
        }
        // Continuations past their deadline are *flagged* here and resumed
        // with a timeout error on a reactor: an application continuation
        // that misbehaves must not stall every component's heartbeat.
        let expired = self.continuations.take_expired(now);
        if !expired.is_empty() {
            self.timed_out.lock().extend(expired);
            self.wakeup.notify();
        }
        // Retry deadlines are also checked here: on a quiet mesh no reactor
        // may be sweeping when a backoff expires. Only checked — admitting
        // the retry can run its handler, which happens on a reactor.
        if self.retry_due().is_some() {
            self.wakeup.notify();
        }
        self.sweep_orphan_responses(now);
        // Response runs whose flush ran out of transient replays.
        self.with_batcher(|batcher, ctx| batcher.retry_stalled(ctx));
        self.sweep_retirement();
        self.sweep_passivation(now);
        // Survivors stop trimming while the leader catalogues the logs.
        if !self.is_paused() {
            self.trim_settled();
        }
    }

    /// Mesh-timer retirement sweep: retires adopted partitions past their
    /// horizon and drops lanes whose consumers are all gone, returning the
    /// lane count to its pre-failure steady state. A lane a reactor holds —
    /// possibly running a long handler — is retired on a later tick: waiting
    /// for it would stall every component's heartbeat.
    fn sweep_retirement(&self) {
        let lanes: Vec<Arc<ConsumerLane>> = self.lanes.lock().clone();
        for lane in lanes {
            let Some(mut consumers) = lane.consumers.try_lock() else {
                continue;
            };
            self.maybe_retire_partitions(&mut consumers);
            let empty = consumers.is_empty();
            drop(consumers);
            if empty {
                self.remove_lane(&lane);
            }
        }
    }

    /// Takes over consuming `adopted` partitions re-homed from a failed
    /// component: records their consumed offsets and adoption times (the
    /// retirement clock starts here), extends this component's partition set
    /// (adopted partitions are drained but never hash-routed to, so request
    /// routing is unaffected) and adds a consumer lane for the range — no
    /// thread is spawned; the existing reactors pick the lane up on their
    /// next sweep. Called by the reconciliation leader after it fenced the
    /// partitions' previous owners.
    pub(crate) fn adopt_partitions(self: &Arc<Self>, adopted: Vec<usize>) {
        if adopted.is_empty() || !self.is_alive() {
            return;
        }
        {
            let mut offsets = self.consumed_offsets.write();
            for partition in &adopted {
                offsets
                    .entry(*partition)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
            }
        }
        {
            let now = mono_now();
            let mut adopted_at = self.adopted_at.lock();
            for partition in &adopted {
                adopted_at.insert(*partition, now);
            }
        }
        self.partitions.write().adopt(adopted.iter().copied());
        self.lanes.lock().push(self.make_lane(adopted));
        // The new lane's partitions may already hold salvaged records.
        self.wakeup.notify();
    }

    /// Retires adopted partitions whose retirement horizon has passed and
    /// whose log is fully drained: fences the partition (any straggling
    /// consumer of an older assignment fails its next poll), detaches it
    /// from the reactor wake group, drops its consumer, and shrinks the
    /// partition set — locally, in the shared topology, and in the broker's
    /// assignment table and group view.
    ///
    /// Safety of the horizon: adopted partitions are never hash-routed to,
    /// so after recovery rewrote placement the only records that could still
    /// land there were appends already in flight at adoption time. Those
    /// expire after one retention window; the horizon is two windows (the
    /// same clock the aged retry bookkeeping uses), so an empty log at the
    /// horizon is empty forever.
    fn maybe_retire_partitions(&self, consumers: &mut Vec<Consumer<Envelope>>) {
        let delay = self.config.scaled_retirement_delay();
        let now = mono_now();
        let mut index = 0;
        while index < consumers.len() {
            let partition = consumers[index].partition();
            let due = self
                .adopted_at
                .lock()
                .get(&partition)
                .is_some_and(|adopted| now.saturating_sub(*adopted) >= delay);
            if !due || self.broker.partition_len(&self.topic, partition) != 0 {
                index += 1;
                continue;
            }
            self.retire_partition(partition);
            consumers[index].leave_wait_group(&self.wakeup);
            consumers.remove(index);
        }
    }

    /// The bookkeeping half of retirement: fence, shrink every map that
    /// records the adoption, and log the retirement.
    fn retire_partition(&self, partition: usize) {
        let _ = self.broker.fence_partition(&self.topic, partition);
        self.partitions.write().retire_adopted(partition);
        self.adopted_at.lock().remove(&partition);
        self.consumed_offsets.write().remove(&partition);
        // Shrink the shared topology and propagate the SAME set to the
        // broker's assignment table and group view while still holding the
        // topology lock: recovery's adoption path does the same, so the two
        // sides can never write each other's stale clone into the broker
        // tables (a retirement racing a fresh adoption would otherwise
        // resurrect the retired partition — or drop the adopted one — from
        // the assignment table).
        let mut topology = self.topology.write();
        if let Some(set) = topology.get_mut(&self.id) {
            set.retire_adopted(partition);
            let merged = set.clone();
            let _ = self
                .broker
                .assign_partitions(&self.topic, self.id, merged.clone());
            self.broker
                .update_member_partitions(&self.group, self.id, merged);
        }
        drop(topology);
        self.retired.lock().push(partition);
    }

    /// Admits one polled batch, in record order, on the lane that polled it:
    /// a response is handled, a request admitted and then run, forwarded or
    /// left where admission put it. The partition's consumed offset passes a
    /// request only once admission has placed it — in flight, in a mailbox,
    /// deferred or parked — and before it runs, so reconciliation always
    /// sees a record as still queued or locally pending, never neither, and
    /// sees what its handler sent only once the record is consumed.
    fn route_records(self: &Arc<Self>, partition: usize, records: Vec<Record<Arc<Envelope>>>) {
        self.settle.routed(partition, &records);
        let consumed = self.consumed_offsets.read().get(&partition).cloned();
        let publish = |offset: u64| {
            if let Some(slot) = &consumed {
                slot.fetch_max(offset + 1, Ordering::SeqCst);
            }
        };
        let mut admitted = 0;
        for record in records {
            let offset = record.offset;
            // The poll shared these payloads with the partition log
            // (zero-copy); each delivered envelope is materialized exactly
            // once here — the only payload copy on the delivery path.
            match record.into_payload() {
                Envelope::Request(request) => {
                    let admission = self.admit_request(request);
                    publish(offset);
                    admitted += 1;
                    self.carry_out(admission);
                }
                Envelope::Response(response) => {
                    publish(offset);
                    self.handle_response(response);
                }
            }
        }
        if let Some((_, load)) = self.home_loads.iter().find(|(p, _)| *p == partition) {
            load.fetch_add(admitted, Ordering::Relaxed);
        }
    }

    /// Rotates the aged retry-bookkeeping sets — and ages out idle clean
    /// actor-state cache entries — if their retention interval elapsed
    /// (piggybacked on the mesh timer's heartbeat tick).
    fn age_retry_bookkeeping(&self) {
        let now = mono_now();
        self.completed.lock().maybe_rotate(now);
        self.seen_responses.lock().maybe_rotate(now);
        // Passivation tombstones rotate on the same doubled clock as the
        // dedup sets: a tombstone that was never consumed by a rehydration
        // ages out instead of leaking.
        self.passivated.lock().maybe_rotate(now);
        self.state_cache.maybe_age(now);
    }

    /// Sizes of the retry-bookkeeping sets: (completed ids, seen response
    /// ids). Both are aged out alongside queue retention; tests assert they
    /// shrink once the retention window passes.
    pub fn retry_bookkeeping_len(&self) -> (usize, usize) {
        (
            self.completed.lock().len(),
            self.seen_responses.lock().len(),
        )
    }

    // ------------------------------------------------------------------
    // Idle-actor passivation & admission watermarks
    // ------------------------------------------------------------------

    /// Number of resident (activated, in-memory) actors.
    pub fn resident_actors(&self) -> usize {
        self.resident_count.load(Ordering::Relaxed)
    }

    /// Per home partition: records still open and records trimmed so far
    /// (for `Mesh::debug_report`).
    pub(crate) fn settle_snapshot(&self) -> Vec<crate::settle::SettleSnapshot> {
        self.settle.snapshot()
    }

    /// Transient consumer-poll failures this component has survived.
    pub(crate) fn poll_fault_count(&self) -> u64 {
        self.poll_faults.load(Ordering::Relaxed)
    }

    /// The retry scheduler's view of the epoch clock: `epoch_ms` plus any
    /// injected clock skew (the `retry_clock` fault site). Skew simulates a
    /// component whose local clock drifts from the queue substrate's —
    /// backoff deadlines computed here fire early (positive skew) or late
    /// (negative), which the orchestration layer must tolerate because a
    /// re-homed retry is re-scheduled by a *different* component's clock.
    fn retry_epoch_now(&self) -> u64 {
        let now = epoch_ms();
        let Some(injector) = &self.faults else {
            return now;
        };
        let skew = injector.epoch_skew_ms();
        if skew >= 0 {
            now.saturating_add(skew as u64)
        } else {
            now.saturating_sub(skew.unsigned_abs())
        }
    }

    /// `(passivations, rehydrations, admission deferrals)` performed by
    /// this component so far.
    pub fn passivation_stats(&self) -> (u64, u64, u64) {
        (
            self.stats.passivations.load(Ordering::Relaxed),
            self.stats.rehydrations.load(Ordering::Relaxed),
            self.stats.admission_deferrals.load(Ordering::Relaxed),
        )
    }

    /// Total requests currently mailboxed behind busy resident actors.
    pub fn mailboxed_requests(&self) -> usize {
        self.mailboxed.load(Ordering::Relaxed)
    }

    /// True while admission must defer new-actor activations: the resident
    /// set is at the hard watermark.
    fn admission_overloaded(&self) -> bool {
        self.config
            .resident_hard_limit()
            .is_some_and(|hard| self.resident_count.load(Ordering::Relaxed) >= hard)
    }

    /// The shaped-backoff deadline (epoch ms) of a deferred new-actor
    /// activation: the same backoff shape as the retry orchestration —
    /// exponential growth with deterministic jitter derived from the
    /// request id — on the [`ACTIVATION_BACKOFF`] base, capped at 16× the
    /// base. `deferrals` counts prior deferrals of the same activation, so
    /// a head that keeps finding the watermark crossed backs off further
    /// each time.
    fn shape_activation_deferral(&self, id: RequestId, deferrals: u32) -> u64 {
        let backoff = Backoff::Exponential {
            base: ACTIVATION_BACKOFF,
            multiplier: 2.0,
            max: ACTIVATION_BACKOFF * 16,
            jitter: 0.2,
        };
        let delay = backoff
            .delay_for(deferrals.saturating_add(1), id.as_u64())
            .max(Duration::from_millis(1));
        epoch_ms() + delay.as_millis() as u64
    }

    /// Stamps `actor` as recently used on the passivation clock. Called at
    /// admission and when an actor's mailbox runs dry, always while the
    /// actors lock is held (lock order actors → idle_actors everywhere).
    fn touch_idle(&self, actor: &ActorRef) {
        let mut idle = self.idle_actors.lock();
        if idle.get_refresh(actor).is_none() {
            idle.insert(actor.clone(), ());
        }
    }

    /// Heartbeat-driven passivation sweep (timer thread). Advances the idle
    /// clock and passivates every actor idle for one to two retention
    /// windows; past the soft resident watermark it turns *eager*, evicting
    /// the coldest actors first until the resident set is back under the
    /// watermark. Candidates are only suggestions — [`Self::try_passivate`]
    /// re-verifies quiescence under the actors lock before dropping
    /// anything.
    fn sweep_passivation(self: &Arc<Self>, now: Duration) {
        if !self.is_alive() || self.is_paused() {
            return;
        }
        let rotated = self.idle_actors.lock().advance_due(now);
        let excess = self.config.resident_soft_limit().map_or(0, |limit| {
            self.resident_count
                .load(Ordering::Relaxed)
                .saturating_sub(limit)
        });
        if !rotated && excess == 0 {
            return;
        }
        let candidates: Vec<ActorRef> = {
            let idle = self.idle_actors.lock();
            let generation = idle.generation();
            let mut stamped = idle.stamped_entries();
            drop(idle);
            // Coldest first. The fully-stale prefix is always eligible;
            // under soft-watermark pressure the next-coldest entries extend
            // it until the excess is covered.
            stamped.sort_unstable_by_key(|&(_, _, stamp)| stamp);
            let stale = stamped
                .iter()
                .take_while(|&&(_, _, stamp)| stamp.saturating_add(2) <= generation)
                .count();
            let take = stale.max(excess.min(stamped.len()));
            stamped
                .into_iter()
                .take(take)
                .map(|(actor, _, _)| actor)
                .collect()
        };
        for actor in &candidates {
            if !self.is_alive() || self.is_paused() {
                return;
            }
            self.try_passivate(actor);
        }
    }

    /// Passivates one actor if it is truly quiescent: flushes its state,
    /// then — re-verifying under the actors lock — drops its slot
    /// (instance, mailbox, slot stamp), its cached state image, its cached
    /// placement and its idle stamp, and records a
    /// tombstone. The next request re-activates the actor through the
    /// ordinary placement/admission path, exactly like a first activation.
    /// Returns true if the actor was passivated.
    fn try_passivate(self: &Arc<Self>, actor: &ActorRef) -> bool {
        // Cheap pre-check under the actors lock: anything non-quiescent is
        // skipped without touching the store.
        {
            let actors = self.actors.lock();
            match actors.get(actor) {
                None => {
                    // Killed, or already passivated: drop the orphaned idle
                    // stamp so it cannot stay a candidate forever.
                    drop(actors);
                    self.idle_actors.lock().remove(actor);
                    return false;
                }
                Some(slot) if !Self::quiescent(slot) => return false,
                Some(_) => {}
            }
        }
        // Flush outside every lock: the store round trip must not stall
        // admissions. A flush failure means this component is being fenced
        // or killed — leave the slot alone; kill drops it wholesale.
        let key = state_key(actor);
        if self.state_cache.flush(&self.conn, &key).is_err() {
            return false;
        }
        // Decide-and-drop under the actors lock. An admission between the
        // flush and here flips `busy` (or queues mail) under this same
        // lock, so the re-check cannot miss it; a state write since the
        // flush leaves the cache entry dirty and `passivate` refuses —
        // either way the slot survives untouched.
        let mut actors = self.actors.lock();
        if !actors.get(actor).is_some_and(Self::quiescent) {
            return false;
        }
        if !self.state_cache.passivate(&key) {
            return false;
        }
        actors.remove(actor);
        self.resident_count.fetch_sub(1, Ordering::Relaxed);
        self.idle_actors.lock().remove(actor);
        self.passivated.lock().insert(actor.clone());
        drop(actors);
        // Outside the actors lock — the placement cache is not ordered after
        // it. Keeps the cache bounded by the *resident* set; the placement
        // record in the store is untouched (the actor is still placed here,
        // just not in memory).
        self.placement.forget(actor);
        self.stats.passivations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// True while an actor slot has no running invocation (`busy` also
    /// covers parked continuations and reentrant frames), no retained
    /// tail-call lock, nothing mailboxed, and no deferred activation
    /// pending.
    fn quiescent(slot: &ActorSlot) -> bool {
        !slot.busy
            && slot.awaiting_tail.is_none()
            && slot.mailbox.is_empty()
            && slot.activation_parked.is_none()
    }

    // ------------------------------------------------------------------
    // Actor-state persistence (the `ctx.state()` backend)
    // ------------------------------------------------------------------

    /// Number of actor states currently cached.
    pub fn cached_state_count(&self) -> usize {
        self.state_cache.len()
    }

    /// Number of clean actor-state cache entries evicted after idling for a
    /// retention window.
    pub fn state_cache_evictions(&self) -> u64 {
        self.state_cache.eviction_count()
    }

    /// Number of live consumer lanes (units of consumer concurrency; no
    /// thread is dedicated to a lane — the fixed reactor pool sweeps them).
    /// Grows when recovery re-homes a partition range onto this component,
    /// and returns to the pre-failure steady state once the adopted range is
    /// retired.
    pub fn consumer_thread_count(&self) -> usize {
        self.lanes.lock().len()
    }

    /// Number of continuations currently parked on nested calls.
    pub fn parked_continuations(&self) -> usize {
        self.continuations.len()
    }

    /// Total number of continuation parks since the component started: each
    /// one is a nested call that did *not* block a thread.
    pub fn continuation_parks(&self) -> u64 {
        self.continuations.parked_total()
    }

    /// `(requests sent, rounds acknowledged)` on this component's request
    /// leg. The ratio is its amortization: an invocation's outbox sends all
    /// its tells in one round.
    pub fn request_batch_stats(&self) -> (u64, u64) {
        let stats = &self.round_stats;
        (
            stats.requests.load(Ordering::Relaxed),
            stats.rounds.load(Ordering::Relaxed),
        )
    }

    /// The adopted partitions this component has retired so far, in
    /// retirement order.
    pub fn retired_partitions(&self) -> Vec<usize> {
        self.retired.lock().clone()
    }

    /// `(completions enqueued, batch appends performed)` by the response
    /// batcher. The ratio is the per-destination amortization the batching
    /// achieves.
    pub fn response_batch_stats(&self) -> (u64, u64) {
        self.responses.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_stats_default_to_zero() {
        let stats = ComponentStats::default();
        assert_eq!(stats.executed.load(Ordering::Relaxed), 0);
        assert_eq!(stats.deferred.load(Ordering::Relaxed), 0);
        assert_eq!(stats.cancelled.load(Ordering::Relaxed), 0);
        assert_eq!(stats.tail_calls.load(Ordering::Relaxed), 0);
        assert_eq!(stats.forwarded.load(Ordering::Relaxed), 0);
    }
}
