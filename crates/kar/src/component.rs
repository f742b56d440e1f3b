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
//! `ComponentCore::pump`, and its periodic duties (heartbeat, bookkeeping
//! aging, continuation deadlines, partition retirement, passivation) run on
//! the mesh's single timer thread through `ComponentCore::tick`. Handlers
//! that issue nested calls park a continuation instead of blocking a thread
//! (see [`crate::continuation`]), and an invocation that meets a modelled
//! latency — a sidecar hop, its state load, the ack of its outbox round, its
//! state flush — parks the rest of itself as a `Stage` on the mesh's
//! due-time heap instead of sleeping on its reactor (see `crate::io`);
//! invocations for actors on distinct lanes still *compute* in parallel up
//! to the reactor-pool width at a time, while any number of them wait for
//! their I/O. Whatever else a component waits on a clock for — a scheduled
//! retry, a deferred activation, an orphaned response, a timed-out
//! continuation, a response run out of transient replays — is a stage on
//! the same heap: a component keeps no timer of its own.
//!
//! Rebalance safety: admission verifies the *placement* of every request it
//! is about to execute (one cache hit in steady state) and forwards requests
//! whose actor is owned elsewhere — so a record landing on an adopted
//! partition after its actor was re-placed chases the current placement
//! instead of double-executing, and stale consumers of a re-homed partition
//! are cut off by the broker's per-partition ownership epochs.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kar_types::mono_now;

use kar_queue::{Broker, PartitionSet, Producer, Record};
use kar_store::{Connection, Store};
use kar_types::ids::RequestIdGenerator;
use kar_types::RequestId;
use kar_types::{
    epoch_ms, ActorRef, CallKind, Completion, ComponentId, Envelope, KarError, KarResult, NodeId,
    Payload, RecordOrigin, RequestMessage, ResponseMessage, RetryPolicy, RetryState, RetryVerdict,
    SharedRequest, Value, WaitSignalGroup,
};

use crate::actor::{ActorFactory, Outcome};
use crate::client::{answer_floor, Answer, CallSlot};
use crate::config::{CancellationPolicy, MeshConfig};
use crate::context::{state_key, ActorContext, Outbox};
use crate::continuation::{Continuation, ParkedContinuation};
use crate::delivery::{Flusher, PartitionBatcher, QueuedRun, RequestRound, Run};
use crate::faults::{retry_transient, TRANSIENT_ATTEMPTS};
use crate::io::DueHeap;
use crate::lanes::Lanes;
use crate::ledger::RequestLedger;
use crate::membership::MembershipView;
use crate::placement::{
    component_to_value, no_host, placement_key, Lookup, PlacementService, Resolution, RouteKey,
};
use crate::resident::{ResidentSet, SlotAdmission};
use crate::retry::{BreakerRegistry, RetryBudget};
use crate::settle::SettleTracker;
use crate::state_cache::{Acked, Savepoint, StateImage};

/// The mesh-wide dead-letter queue topic: one partition per component, keyed
/// by the dead-lettering component's raw id. Entries are full request
/// records (final [`RetryState`] included) — never consumed by components,
/// only read back through `Mesh::dlq_stats` / re-injected by
/// `Mesh::dlq_retry`.
pub(crate) const DLQ_TOPIC: &str = "kar-dlq";

/// Execution counters of one component, useful in tests and benchmarks.
#[derive(Debug, Default)]
pub struct ComponentStats {
    /// Requests forwarded because this component does not host the type.
    pub forwarded: AtomicU64,
    /// Policy retries scheduled (failed attempts re-appended with a bumped
    /// attempt count and a next-fire deadline).
    pub retries_scheduled: AtomicU64,
    /// Invocations moved to the dead-letter queue after exhausting their
    /// retry policy.
    pub dead_lettered: AtomicU64,
    /// Actors passivated — idle ones by the heartbeat sweep, the coldest by
    /// an admission past the soft watermark (slot and state image dropped,
    /// tombstone recorded).
    pub passivations: AtomicU64,
    /// Of the idle sweep's passivations: those that dropped a loaded state
    /// image (`Mesh::state_cache_evictions`).
    pub state_evictions: AtomicU64,
    /// Passivated actors re-activated through the ordinary admission path.
    pub rehydrations: AtomicU64,
    /// New-actor activations deferred at the hard watermark, with nothing
    /// to evict, or during their placement's release (parked on the
    /// due-time heap with shaped backoff, never dropped).
    pub admission_deferrals: AtomicU64,
    /// Placement records of passivated actors released once their
    /// tombstones aged out.
    pub placements_released: AtomicU64,
}

/// The admission decision for one polled request. Only `Forward` and `Done`
/// give up the request's admission claim (its `inflight` entry); a request
/// that stays here keeps it until it finishes, so reconciliation finds
/// every such request with one lookup.
pub(crate) enum Admission {
    /// Admitted: run this invocation inline.
    Run(Frame),
    /// An activation, claim kept and its actor's slot held: its ownership
    /// is read next, in one round trip with its state ([`Stage::Own`]).
    Activate(SharedRequest, Verify),
    /// Waiting here, claim kept: in a mailbox behind a busy actor, deferred
    /// on its pending callee, or parked on the due-time heap as a
    /// [`Stage::Admit`] (a scheduled retry, a deferred activation) — or
    /// settled on the spot, in which case its completion releases the claim.
    Parked,
    /// Not ours: forward to the current placement. A forward is a round of
    /// its own ([`Stage::Round`]): one that meets a stale placement parks,
    /// it never holds the lane.
    Forward(SharedRequest),
    /// Absorbed: a duplicate, or dropped (the queue copy drives the retry).
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
    request: SharedRequest,
    /// Whether this invocation holds the actor lock (and so drains the
    /// actor's mailbox when it completes).
    holds_lock: bool,
    /// Whether it was admitted reentrantly (runs on a fresh activation).
    reentrant: bool,
    /// The actor's state image, taken from its slot at admission: loaded
    /// ahead of the handler, read by its `ctx.state()`, flushed ahead of
    /// the completion.
    image: StateImage,
}

impl Frame {
    /// An invocation of `request` on its actor's state `image`: holding the
    /// actor lock, or `reentrant` beside the chain that holds it (§2.2).
    pub(crate) fn admitted(request: SharedRequest, image: StateImage, reentrant: bool) -> Self {
        Frame {
            request,
            holds_lock: !reentrant,
            reentrant,
            image,
        }
    }
}

/// What an activation's admission read before its ownership read is
/// submitted: the cache epoch its slot is stamped with, and the release
/// rounds settled so far (see [`ResidentSet::lookup`]).
#[derive(Clone, Copy)]
pub(crate) struct Verify {
    stamp: Option<u64>,
    settled: u64,
}

/// How long a round that met an unresolved placement — the recorded one
/// points at a failed component and reconciliation has not rewritten it yet —
/// stays parked before its next attempt; and how long an activation waits
/// for its placement's release to settle.
pub(crate) const PLACEMENT_RETRY: Duration = Duration::from_millis(5);

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
    /// The placements of the targets not routed yet, once a cache miss sent
    /// them to the store: in flight, or answered.
    lookup: Option<Box<Lookup>>,
}

/// What one placement attempt ([`ComponentCore::place_once`]) came to.
enum Placement {
    /// Every request has its partition.
    Routed(Run),
    /// The lookup of the targets the cache missed is in flight: try again
    /// once its round trip is acknowledged, at `due`.
    Looking { due: Duration },
    /// A target's placement is stale: try again no later than `retry_at`.
    Unresolved { retry_at: Duration },
}

/// One produce round on its way to its ack, with what
/// [`ComponentCore::count_round`] counts once it is acknowledged.
pub(crate) struct RoundInFlight {
    round: RequestRound,
    /// Requests of the request leg it carries (`request_batch_stats`): none
    /// for a response run or a retry copy, which are counted elsewhere.
    requests: u64,
    /// `(tells carried, partitions touched)` when the round carries tells.
    outbox: Option<(usize, usize)>,
}

impl RoundInFlight {
    /// Groups `run` — its first `tells` entries an invocation's outbox —
    /// into one round of the request leg, not yet submitted.
    fn new(run: Run, tells: usize) -> Self {
        RoundInFlight {
            requests: run.len() as u64,
            outbox: (tells > 0).then(|| (tells, run.partitions())),
            round: RequestRound::new(run),
        }
    }

    /// `envelopes` bound for one partition — a partition queue's run, a
    /// retry copy — as one round. Its last `tells` envelopes are outbox
    /// tells, counted on the request leg; the others are counted elsewhere.
    fn batch(partition: usize, envelopes: Vec<Envelope>, tells: usize) -> Self {
        RoundInFlight {
            round: RequestRound::batch(partition, envelopes),
            requests: tells as u64,
            outbox: (tells > 0).then_some((tells, 1)),
        }
    }
}

/// A finished handler waiting for its outbox round: its state flush is
/// submitted next, in the frame that observes the ack — the round's own
/// ([`RoundThen::Outbox`]) or, for an outbox that touches one partition,
/// that of the partition queue's run that carried its tells
/// ([`RoundThen::Flush`]).
pub(crate) struct OutboxWaiter {
    frame: Frame,
    result: KarResult<Outcome>,
    /// [`Outbox::failed`] and [`Outbox::guarded`] of the flushed outbox.
    failed: Option<KarError>,
    guarded: Option<Savepoint>,
}

/// What a produce round sent from a reactor is *for*: what runs once it is
/// over, durable or failed ([`ComponentCore::round_over`]). Travels by value
/// inside its [`Stage`], like everything else a step hands to the next.
#[allow(clippy::large_enum_variant)]
pub(crate) enum RoundThen {
    /// A finished handler's outbox that touches several partitions.
    Outbox(OutboxWaiter),
    /// The round of an [`Outcome::CallThen`]: the handler's pending tells
    /// and, behind them, the nested request `nested`. Durable, the
    /// invocation stays parked on the response; failed, its continuation
    /// resumes with the error.
    Nested {
        nested: RequestId,
        /// The calling invocation and the rest of its handler, until the
        /// round is placed; in the ledger from then on.
        caller: Option<ParkedContinuation>,
        /// Whether a failed round loses tells (see [`Outbox::failed`]).
        lost_tells: bool,
        guarded: Option<Savepoint>,
    },
    /// Requests that already have a record, re-appended elsewhere: a forward
    /// to the actor's current host (no frame; several, in order, when a
    /// held activation leaves with its mailbox) or a tail-call successor to
    /// another actor (the frame of the invocation it completes). Once the
    /// copies are durable they are the records recovery works from, and
    /// `settles` — the records the requests were polled from — are closed;
    /// then, never before the ack, the frame's mailbox moves on.
    Resend {
        settles: Vec<RecordOrigin>,
        frame: Option<Frame>,
    },
    /// A failed attempt's retry copy, appended to the actor's own home
    /// partition (no placement lookup). Durable, it carries the schedule:
    /// `settles` — the record the attempt was polled from — is closed, and
    /// only then does the frame's mailbox move on (the actor lock is held
    /// until the ack). Failed, the attempt's `error` completes the request.
    Retry {
        frame: Frame,
        error: KarError,
        settles: Option<RecordOrigin>,
    },
    /// One run of a destination partition's queue, sent by the flush
    /// `flusher` claims: `completions` completions and the tells of the
    /// outboxes in `waiters`. Durable, the records in `settles` close, the
    /// partition's next run leaves, and then the waiters resume.
    Flush {
        flusher: Flusher,
        completions: usize,
        settles: Vec<RecordOrigin>,
        waiters: Vec<OutboxWaiter>,
    },
}

/// One step of an invocation's pipeline, owned by whoever will run it next:
/// the invocation loop when the due time of the I/O ahead of it has come, the
/// mesh's due-time heap ([`crate::io`]) until then. Each variant names what
/// it is waiting *for*; what runs once that has happened is
/// [`ComponentCore::step`].
pub(crate) enum Stage {
    /// The invocation-start sidecar hop: the actor's state image is loaded
    /// next, if it is not, then the handler runs.
    Start(Frame),
    /// An activation's sidecar hop, then its ownership read — the actor's
    /// placement record and state hash in one round trip — in flight: once
    /// it says the actor is ours, the activation is admitted to its held
    /// slot and the handler runs on the state read; otherwise it and
    /// everything mailboxed behind it are forwarded. A record found absent
    /// is claimed first, by the same lookup, and the state is then loaded
    /// ahead of the handler as any cold invocation's is.
    Own {
        request: SharedRequest,
        verify: Verify,
        lookup: Option<Lookup>,
    },
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
    /// A store round trip of the frame's state image — its load ahead of
    /// the handler, or its flush ahead of the completion: what `op` was for
    /// runs next, or the round trip is replayed while `submits_left` allows.
    StateIo {
        frame: Frame,
        op: ImageOp,
        acked: KarResult<Acked>,
        submits_left: u32,
    },
    /// The sidecar hop of the response: it is routed and enqueued next, and
    /// the request finished.
    Respond { frame: Frame, result: Payload },
    /// A partition queue whose run ran out of transient replays, its
    /// completions back at the head of the still-claimed queue for one
    /// heartbeat: the queue's run is sent next.
    Flush(Flusher),
    /// A request holding its admission claim, waiting to be admitted again
    /// past it: a scheduled retry until its next-fire deadline, or an
    /// activation deferred at the hard resident watermark until its shaped
    /// backoff is over.
    Admit(SharedRequest),
    /// A response whose caller's component failed: routed next, if
    /// reconciliation has re-placed the caller by now; dropped at
    /// `deadline`.
    Orphan {
        response: ResponseMessage,
        deadline: Duration,
    },
}

/// What a state image's store round trip is for, and so what runs next.
pub(crate) enum ImageOp {
    /// The load of the actor's durable hash: the handler.
    Load,
    /// The flush of the handler's buffered writes: its completion, `result`.
    Flush(KarResult<Outcome>),
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

/// The runtime core of one application component.
pub struct ComponentCore {
    pub(crate) id: ComponentId,
    pub(crate) node: NodeId,
    pub(crate) name: String,
    pub(crate) config: MeshConfig,
    pub(crate) topic: String,
    pub(crate) group: String,
    /// This component's home partitions: the stable range its requests hash
    /// onto. Ranges it adopts from failed components are drained by its
    /// lanes and published in its topology entry, never hash-routed to.
    pub(crate) home: PartitionSet,
    pub(crate) broker: Broker<Envelope>,
    pub(crate) store: Store,
    pub(crate) producer: Producer<Envelope>,
    /// Store connection used by the persistence API of hosted actors.
    pub(crate) conn: Connection,
    pub(crate) placement: PlacementService,
    /// The mesh's membership: the live set and every component's partition
    /// set, consulted to route requests and responses to their target
    /// component.
    pub(crate) membership: Arc<MembershipView>,
    pub(crate) ids: Arc<RequestIdGenerator>,
    pub(crate) hosted: HashMap<String, ActorFactory>,
    pub(crate) stats: ComponentStats,
    /// Requests admitted from each home partition, in home order
    /// (`shard_loads`). Never reset: a dead component keeps answering.
    home_loads: Vec<(usize, AtomicU64)>,
    alive: AtomicBool,
    paused: AtomicBool,
    /// The mesh-wide reactor wake signal: bumped whenever this component
    /// gains work (an append to one of its partitions, a resume after
    /// recovery, a stage parked sooner than any other), so an idle reactor
    /// resumes sweeping.
    pub(crate) wakeup: Arc<WaitSignalGroup>,
    /// The mesh-wide due-time heap this component's invocations park on
    /// while a modelled I/O is in flight (see [`crate::io`]).
    io: Arc<DueHeap>,
    /// The consumer lanes draining this component's partitions, each with
    /// its consumed offsets (see [`crate::lanes`]).
    pub(crate) lanes: Lanes,
    /// Set after the first failed heartbeat (the component was fenced or its
    /// group is gone): parity with the old dedicated heartbeat thread, which
    /// exited at that point and took the bookkeeping aging with it.
    heartbeats_stopped: AtomicBool,
    /// Per-destination-partition group commit: bursts of completions — and
    /// of one-partition outboxes — towards one partition share a lock
    /// acquisition and a durable ack.
    pub(crate) batcher: PartitionBatcher,
    round_stats: RoundStats,
    /// The resident set: every activated actor's slot, and the passivation
    /// bookkeeping of those that left it (see [`crate::resident`]).
    pub(crate) resident: ResidentSet,
    /// Every id-keyed table of the retry orchestration — claims, seen
    /// responses, deferred retries, parked continuations and blocked edge
    /// callers — under one lock (see [`crate::ledger`]).
    pub(crate) ledger: RequestLedger,
    /// The mesh-wide retry token bucket (shared by every component): each
    /// *scheduled* retry admission spends one token; an empty bucket sheds
    /// the retry back onto its backoff timer (never dropped).
    budget: Arc<RetryBudget>,
    /// The mesh-wide per-actor-type circuit breakers (shared by every
    /// component): consulted before each invocation executes, fed after.
    breakers: Arc<BreakerRegistry>,
    /// The mesh's gray-failure injector, consulted by the retry scheduler
    /// for clock-skew injection on its `epoch_ms` reads (`None` = no plan).
    faults: Option<Arc<kar_types::FaultInjector>>,
    /// Which records of the home partitions have settled, so their logs can
    /// be trimmed instead of retained for the whole retention window (see
    /// [`crate::settle`]).
    pub(crate) settle: SettleTracker,
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
        home: PartitionSet,
        broker: Broker<Envelope>,
        store: Store,
        membership: Arc<MembershipView>,
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
            Arc::clone(&membership),
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
        let home_loads = home
            .home()
            .iter()
            .map(|partition| (*partition, AtomicU64::new(0)))
            .collect();
        // The passivation clock rides the *single* retention window: an
        // actor — and its state image with it — goes cold strictly inside the
        // doubled dedup window, so a rehydrated actor can never outlive its
        // retry-dedup entries.
        let idle_interval = config.time_scale.compress(config.retention);
        let settle = SettleTracker::new(home.home());
        let resident = ResidentSet::new(idle_interval, bookkeeping_interval, &config);
        ComponentCore {
            id,
            node,
            name,
            config,
            topic,
            group,
            home,
            broker,
            store,
            producer,
            conn,
            placement,
            membership,
            ids,
            hosted,
            stats: ComponentStats::default(),
            home_loads,
            alive: AtomicBool::new(true),
            paused: AtomicBool::new(false),
            wakeup,
            io,
            lanes: Lanes::default(),
            heartbeats_stopped: AtomicBool::new(false),
            batcher: PartitionBatcher::default(),
            round_stats: RoundStats::default(),
            resident,
            ledger: RequestLedger::new(bookkeeping_interval),
            budget,
            breakers,
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
        // Conservative state refresh after recovery: images no invocation
        // holds and with no buffered writes are unloaded in place, and the
        // next invocation reloads them ahead of its handler. The others
        // belong to invocations still running or parked here — placement
        // never moves an actor off a live component, so they stay
        // authoritative — and a handler never sees its image unloaded.
        self.resident.unload_idle_images();
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
        // The resident set is in-memory state: a re-homed actor activates
        // fresh on its adopter.
        self.resident.clear();
        // Detach the consumers from the reactor wake group: partitions must
        // not keep notifying — or keep membership for — a dead component.
        self.lanes.detach(&self.wakeup);
        // Claims, deferred retries and parked continuations are in-memory
        // state: dropped with the process. The queue copies of their
        // requests drive the retries on the adopters (§4.3). Every client
        // thread blocked on a call wakes to the kill.
        for (id, slot) in self.ledger.clear() {
            slot.answer(id, Answer::Killed);
        }
        // Buffered (not yet appended) completions and tells die with the
        // process, and so do the handlers waiting on those tells; the
        // affected requests' queue copies drive the retry.
        self.batcher.clear();
        // So does everything parked on the due-time heap: a thread killed
        // asleep inside an ack or a hop completed nothing either. Scheduled
        // retries and deferred activations go with it: their durable queue
        // copies (each carrying the persisted RetryState) drive recovery,
        // and the adopter's admission re-parks them on the same schedule.
        self.io.forget(self);
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
    /// (lanes and their consumed offsets, actor locks/mailboxes, deferred
    /// and inflight sets) — for debugging stuck requests.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "component {} ({}) alive={} paused={}",
            self.id,
            self.name,
            self.is_alive(),
            self.is_paused(),
        );
        // The delivery plane: lanes, retirements and batching.
        self.lanes.debug(self, &mut out);
        let (enqueued, flushes) = self.response_batch_stats();
        let (req_enqueued, req_flushes) = self.request_batch_stats();
        let _ = writeln!(
            out,
            "  delivery: response_batches={flushes}/{enqueued} \
             request_batches={req_flushes}/{req_enqueued} orphan_responses={}",
            self.io
                .count(self, |stage| matches!(stage, Stage::Orphan { .. })),
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
        let (parked, parks) = self.ledger.continuations();
        let _ = writeln!(out, "  continuations: parked={parked} parks_total={parks}");
        let (passivations, rehydrations, deferrals) = self.passivation_stats();
        let _ = writeln!(
            out,
            "  memory: resident={} mailboxed={} passivations={passivations} \
             rehydrations={rehydrations} admission_deferrals={deferrals} \
             placements_released={}",
            self.resident.count(),
            self.resident.mailboxed(),
            self.stats.placements_released.load(Ordering::Relaxed),
        );
        self.resident.debug_actors(&mut out);
        self.ledger.debug(&mut out);
        out
    }

    /// The home partition of `component` that `key` routes to: how every
    /// request and response is routed onto a target component's partition
    /// set, so one actor's records always land in one partition.
    fn partition_for(&self, component: ComponentId, key: RouteKey<'_>) -> Option<usize> {
        self.membership
            .read(|members| members.partition_for(component, key))
    }

    /// [`ComponentCore::partition_for`], for a live `component` only.
    fn live_partition_for(&self, component: ComponentId, key: RouteKey<'_>) -> Option<usize> {
        self.membership
            .read(|members| members.live_partition_for(component, key))
    }

    /// The home partition of this component that `actor`'s records hash to.
    fn own_partition_for(&self, actor: &ActorRef) -> Option<usize> {
        RouteKey::Actor(actor).partition_in(&self.home)
    }

    /// This component's partition set as the membership publishes it (home
    /// plus adopted ranges); its home range alone once it has no entry (it
    /// died and its ranges were re-homed).
    pub(crate) fn partition_set(&self) -> PartitionSet {
        self.membership
            .read(|members| members.topology.get(&self.id).cloned())
            .unwrap_or_else(|| self.home.clone())
    }

    /// True if request `id` is executing, mailboxed, deferred on its pending
    /// callee or parked on the due-time heap at this component (used by
    /// reconciliation to decide whether a copy found in a failed queue is
    /// superseded or must be re-homed). Each of those holds its admission
    /// claim, so one lookup under the ledger lock finds them all — a parked
    /// continuation's original request included. A record polled but
    /// not yet admitted needs no entry here: its lane publishes the
    /// partition's consumed offset past it only once admission has claimed
    /// it, so until then it still counts as queued.
    pub(crate) fn locally_pending(&self, id: RequestId) -> bool {
        if self.ledger.in_flight(id) {
            return true;
        }
        // A tail call to the same actor gives up its claim when it
        // completes, and its successor can still sit in the response
        // batcher — neither in the log nor claimed. The lock it retains
        // names it.
        self.resident.awaits_tail(id)
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
            routed: Run::default(),
            unplaced: messages.into_iter(),
            tells,
            deadline: None,
            lookup: None,
        }
    }

    /// One placement attempt: routes, in order, every request of `placing`
    /// not routed yet onto the hosting component's partitions — until one
    /// is unresolved: its recorded placement points at a failed component
    /// and reconciliation has not rewritten it yet. Never waits. At the
    /// first cache miss, every target still to be routed that the cache
    /// cannot answer goes to the store in one [`Lookup`]: one round trip
    /// reads their records and their types' hosts, and one more claims a
    /// host for those never placed. The attempt is then
    /// [`Placement::Looking`] until the lookup's acknowledgement is due, and
    /// the next attempt settles it. A transient store failure during
    /// resolution is a gray failure on the submission path — the request
    /// record (and with it any retry policy) does not exist yet, so nothing
    /// downstream can absorb it — and is treated exactly like an unresolved
    /// placement, under the same call-timeout deadline.
    fn place_once(&self, placing: &mut Placing) -> KarResult<Placement> {
        if let Some(lookup) = &mut placing.lookup {
            match self.placement.settle_lookup(lookup) {
                Ok(true) => {}
                Ok(false) => return self.looking(placing),
                Err(error) if !error.is_transient() => return Err(error),
                Err(_) => return self.unresolved(placing),
            }
        }
        while let Some(message) = placing.unplaced.as_slice().first() {
            if !self.is_alive() {
                return Err(KarError::Killed { component: self.id });
            }
            let target = &message.target;
            let answer = match &placing.lookup {
                Some(lookup) => lookup.answer(target),
                None => self.placement.cached(target).map(Resolution::Placed),
            };
            match answer {
                Some(Resolution::Placed(component)) => {
                    let partition = self
                        .partition_for(component, RouteKey::Actor(target))
                        .ok_or_else(|| {
                            KarError::internal(format!("no partition set recorded for {component}"))
                        })?;
                    let message = placing.unplaced.next().expect("peeked above");
                    placing.routed.push(partition, Envelope::Request(message));
                }
                Some(Resolution::NoHost) => return Err(no_host(target)),
                Some(Resolution::Stale) => return self.unresolved(placing),
                None => {
                    // The first miss: it and every later target the cache
                    // cannot answer go to the store together.
                    let targets = placing.unplaced.as_slice().iter().map(|m| &m.target);
                    let known = |actor: &ActorRef| {
                        (actor != target)
                            .then(|| self.placement.cached(actor))
                            .flatten()
                    };
                    let lookup = match self.placement.submit_lookup(targets, known, true, |_| {}) {
                        Ok(lookup) => lookup,
                        Err(error) if !error.is_transient() => return Err(error),
                        Err(_) => return self.unresolved(placing),
                    };
                    placing.lookup = Some(Box::new(lookup));
                    return self.looking(placing);
                }
            }
        }
        placing.lookup = None;
        Ok(Placement::Routed(std::mem::take(&mut placing.routed)))
    }

    /// `placing`'s lookup has a round trip in flight: wait for its ack — or,
    /// when no latency is modelled, settle it now.
    fn looking(&self, placing: &mut Placing) -> KarResult<Placement> {
        match placing.lookup.as_ref().and_then(|lookup| lookup.due()) {
            Some(due) => Ok(Placement::Looking { due }),
            None => self.place_once(placing),
        }
    }

    /// The next target of `placing` is unresolved: try again after a
    /// placement retry — a new lookup — until one call timeout after the
    /// first attempt that met an unresolved placement.
    fn unresolved(&self, placing: &mut Placing) -> KarResult<Placement> {
        placing.lookup = None;
        let now = mono_now();
        let deadline = *placing
            .deadline
            .get_or_insert(now + self.config.call_timeout);
        if now >= deadline {
            let request = placing.unplaced.as_slice().first().map(|m| m.id);
            return Err(KarError::Timeout {
                request: request.expect("an unresolved placement has a request"),
                after_ms: self.config.call_timeout.as_millis() as u64,
            });
        }
        Ok(Placement::Unresolved {
            retry_at: deadline.min(now + PLACEMENT_RETRY),
        })
    }

    /// Sends `message` as one produce round and **waits** for it: for the
    /// lookup of its target's placement, for a stale placement to be
    /// repaired (bounded by the call timeout), then for the round's durable
    /// ack. Only for the edge threads of `external_call` / `external_tell`,
    /// which may block; a reactor sends its rounds through [`Stage::Round`],
    /// which parks instead.
    fn issue_outbox(&self, message: RequestMessage) -> KarResult<()> {
        let mut placing = self.placing(vec![message], 0, true);
        let run = loop {
            // Snapshot the repair signal before resolving: a repair landing
            // between the lookup and the wait wakes the waiter at once.
            let seen = self.placement.repair_epoch();
            match self.place_once(&mut placing)? {
                Placement::Routed(run) => break run,
                Placement::Looking { due } => kar_types::pace_until(due),
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
            if let Some(outcome) = self.settle_round(&mut round) {
                return outcome;
            }
        }
    }

    /// The ack of `round`'s latest submit is in: the round's outcome — and
    /// the round counted, if durable — or `None` when it is to be submitted
    /// again.
    fn settle_round(&self, round: &mut RoundInFlight) -> Option<KarResult<()>> {
        let outcome = round.round.settle()?;
        if outcome.is_ok() {
            self.count_round(round.requests, round.outbox);
        }
        Some(outcome)
    }

    /// Counts one acknowledged round of the request leg (nothing for a
    /// round that carries no request of it).
    fn count_round(&self, requests: u64, outbox: Option<(usize, usize)>) {
        if requests == 0 {
            return;
        }
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

    /// Appends `envelope` to `partition` of this component's topic, through
    /// the partition batcher (one lock + one durable ack per burst towards
    /// the partition; nobody waits for the ack). `settles` is the request
    /// record this completion settles: it is closed once the append is
    /// acknowledged. The first completion towards an idle partition sends
    /// the run, as a round that parks on its ack (at zero latency the whole
    /// flush runs inline, here).
    pub(crate) fn send_completion(
        self: &Arc<Self>,
        partition: usize,
        envelope: Envelope,
        settles: Option<RecordOrigin>,
    ) {
        if let Some(flusher) = self.batcher.enqueue(partition, envelope, settles) {
            if let Step::Next(due, stage) = self.flush(flusher) {
                Arc::clone(self).invocation_loop(due, stage);
            }
        }
    }

    /// Sends the pending run of `flusher`'s partition as one produce round
    /// ([`RoundThen::Flush`]), or releases the claim when nothing is pending.
    fn flush(self: &Arc<Self>, flusher: Flusher) -> Step {
        let Some(QueuedRun {
            envelopes,
            completions,
            settles,
            waiters,
        }) = flusher.next_run()
        else {
            return Step::Done;
        };
        let tells = envelopes.len() - completions;
        let round = RoundInFlight::batch(flusher.partition(), envelopes, tells);
        let then = RoundThen::Flush {
            flusher,
            completions,
            settles,
            waiters,
        };
        self.submit_round(round, then)
    }

    /// Routes the response for `request` — its sidecar hop is behind it — to
    /// the queue of whoever is waiting for it: the component recorded in
    /// `reply_to` if it is still live, or the component currently hosting
    /// the caller actor otherwise (which is how responses survive the
    /// re-placement of their caller).
    fn route_response(self: &Arc<Self>, request: &RequestMessage, result: Payload) {
        // One materialization for the whole delivery path: the queue copy,
        // the delivered envelope, and the blocked caller's hand-off all share
        // this `Arc`ed payload.
        let mut response = ResponseMessage::new(request.id, request.caller, result)
            .with_routing(request.reply_to, request.caller_actor.clone());
        // Fast path: the caller's component is alive, deliver to the
        // partition of its set the response key hashes to (the routing the
        // broker's keyed producer API applies), batched per destination.
        if let Some(reply_to) = request.reply_to {
            let key = RouteKey::response(request.caller_actor.as_ref(), request.id);
            if let Some(partition) = self.live_partition_for(reply_to, key) {
                // The response is the request's completion record: its ack
                // settles the record the request was polled from. Executed
                // from its *only* record, the response names that record as
                // its origin, so its consumer can trim the response once the
                // record itself is gone.
                let settles = self.settle.take(request.id);
                if request.single_copy {
                    response.origin = settles;
                }
                self.send_completion(partition, Envelope::Response(response), settles);
                return;
            }
        }
        // Slow path: the caller's component failed. Park the response until
        // reconciliation re-places the caller actor.
        self.park_orphan(response);
    }

    /// Parks `response` as a [`Stage::Orphan`]: it is routed to its caller's
    /// new home once reconciliation has re-placed the caller actor, and
    /// dropped if that takes longer than the call timeout.
    fn park_orphan(self: &Arc<Self>, response: ResponseMessage) {
        let now = mono_now();
        let deadline = now + self.config.call_timeout;
        self.io
            .park(now, self, Stage::Orphan { response, deadline });
    }

    /// One routing attempt for an orphaned response ([`Stage::Orphan`]):
    /// handed to the partition batcher once its caller is routable, parked
    /// again one heartbeat interval later until `deadline`, dropped past it.
    fn route_orphan(self: &Arc<Self>, response: ResponseMessage, deadline: Duration) {
        if let Some(partition) = self.try_response_partition(&response) {
            self.send_completion(partition, Envelope::Response(response), None);
        } else if mono_now() < deadline {
            self.park_for(
                self.config.scaled_heartbeat_interval(),
                Stage::Orphan { response, deadline },
            );
        }
    }

    /// Parks `stage` on the due-time heap for `delay` — at least a
    /// millisecond, so a stage that parks itself again never runs twice in
    /// one sweep.
    fn park_for(self: &Arc<Self>, delay: Duration, stage: Stage) {
        let due = mono_now() + delay.max(Duration::from_millis(1));
        self.io.park(due, self, stage);
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
        let key = RouteKey::response(response.caller_actor.as_ref(), response.id);
        if let Some(reply_to) = response.reply_to {
            if self.membership.read(|members| members.is_live(reply_to)) {
                return self.partition_for(reply_to, key);
            }
        }
        if let Some(caller_actor) = &response.caller_actor {
            // A placement pointing at a dead component is a stale read taken
            // before reconciliation's rewrite: delivering there would strand
            // the response in a queue about to be flushed. Stay parked until
            // an attempt observes a live owner.
            if let Ok(Some(component)) = self.placement.resolve_nowait(caller_actor) {
                return self.live_partition_for(component, key);
            }
            return None;
        }
        // reply_to points at a dead external client: deliver to its queue
        // anyway (harmless; the records expire with retention).
        response.reply_to.and_then(|c| self.partition_for(c, key))
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
        let slot = CallSlot::waiting_for(id);
        self.ledger.await_call(id, Arc::clone(&slot));
        if let Err(error) = self.issue_outbox(message) {
            // The caller gets the error now, not a response later.
            self.ledger.forget_call(id);
            slot.release();
            return Err(error);
        }
        self.wait_for_response(id, slot)
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

    /// Waits for the answer to the call `id` in `slot`, for at most the
    /// call timeout.
    fn wait_for_response(&self, id: RequestId, slot: Arc<CallSlot>) -> KarResult<Value> {
        // Only edge threads wait here (an invocation's nested call parks a
        // continuation instead), and any reactor can deliver the response.
        let deadline = mono_now() + self.config.call_timeout;
        let answer = if kar_types::sim::active() {
            // Simulation: the driver thread owns every lane, so parking on
            // the slot would deadlock the whole mesh. Drive the seeded
            // scheduler instead; time only advances when the scheduler says
            // so, making the timeout below a *virtual* deadline.
            loop {
                if let Some(answer) = slot.try_answer() {
                    break Some(answer);
                }
                if mono_now() >= deadline {
                    break None;
                }
                kar_types::sim::step();
            }
        } else {
            slot.wait(
                deadline.saturating_sub(mono_now()),
                answer_floor(&self.config.latency),
            )
        };
        self.ledger.forget_call(id);
        slot.release();
        match answer {
            Some(Answer::Response(payload)) => {
                self.sidecar_hop();
                // The response's one payload copy: the caller takes
                // ownership here (the queue copy keeps its reference until
                // the record is trimmed or expires).
                Arc::try_unwrap(payload).unwrap_or_else(|shared| (*shared).clone())
            }
            Some(Answer::Killed) => Err(KarError::Killed { component: self.id }),
            None => Err(KarError::Timeout {
                request: id,
                after_ms: self.config.call_timeout.as_millis() as u64,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn handle_response(self: &Arc<Self>, response: &ResponseMessage) {
        // Record the response and take everything waiting on it under the
        // ledger lock: admission's check-and-defer takes the same lock, so a
        // retry can never park itself against a response that has already
        // been processed (lost wakeup), and the continuation and the caller
        // slot are taken exactly once, so a duplicate response (a retried
        // callee) cannot resume or answer twice. A deferred retry holds its
        // admission claim, so it stays locally pending until it runs.
        let (continuation, caller, deferred) = self.ledger.respond(response.id);
        let consumed = continuation.is_some() || caller.is_some() || !deferred.is_empty();
        // A parked continuation resumes inline, on the reactor that polled
        // the response record.
        if let Some(parked) = continuation {
            let input: KarResult<Value> = (*response.result).clone();
            self.resume_continuation(parked, input);
        }
        if let Some(slot) = caller {
            // Hand the blocked caller the shared payload — no deep copy; the
            // caller materializes an owned value once, at the API boundary.
            slot.answer(response.id, Answer::Response(Arc::clone(&response.result)));
        }
        // Unblock any re-homed caller whose retry was waiting for this callee
        // to settle (happen-before), admitting each inline past its claim;
        // none can join them now that the response is seen.
        for mut request in deferred {
            request.make_mut().pending_callee = None;
            let admission = self.admit_held(request);
            self.carry_out(admission);
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
        // placement, exactly like request forwarding: park the response as an
        // orphan, which delivers it to the current owner's queue (its own
        // `handle_response` wakes the deferral through its seen-responses
        // set) once that owner is live.
        match response.reply_to {
            None => {}
            Some(reply_to) if reply_to == self.id => {}
            Some(_) => {
                // A dead external client's response (no caller actor) stays
                // dropped: nobody can ever wait on it again.
                let Some(caller_actor) = &response.caller_actor else {
                    return;
                };
                // Placement followed the partition here: the response is
                // recorded in this component's seen set, which is the set the
                // owner's deferral checks.
                let owned_here = matches!(
                    self.placement.resolve_nowait(caller_actor),
                    Ok(Some(owner)) if owner == self.id
                );
                if !owned_here {
                    self.park_orphan(response.clone());
                }
            }
        }
    }

    /// Runs an admitted invocation, or sends a forward as a round of its own.
    pub(crate) fn carry_out(self: &Arc<Self>, admission: Admission) {
        match admission {
            Admission::Run(frame) => {
                let hop = self.hop_due();
                Arc::clone(self).invocation_loop(hop, Stage::Start(frame));
            }
            Admission::Activate(request, verify) => {
                let hop = self.hop_due();
                let lookup = None;
                Arc::clone(self).invocation_loop(
                    hop,
                    Stage::Own {
                        request,
                        verify,
                        lookup,
                    },
                );
            }
            Admission::Forward(request) => {
                if let Step::Next(due, stage) = self.resend(vec![request.into_owned()], None) {
                    Arc::clone(self).invocation_loop(due, stage);
                }
            }
            Admission::Parked | Admission::Done => {}
        }
    }

    /// Admission control for one request: dedupes retries, defers
    /// happen-before-annotated retries, flags mis-routed requests for
    /// forwarding, and applies the actor-lock rules of §2.2–§4.1. Never
    /// blocks, and sends nothing: a forward is handed back to the caller,
    /// which sends it as a round of its own.
    ///
    /// Deduplication is a *claim*, taken first: two copies of one id can be
    /// admitted at the same moment (from a home lane and an adopted lane),
    /// and only the one whose ledger claim — checked against the completed
    /// ids under the same lock — wins goes on. Whatever is run or
    /// [`Admission::Parked`] keeps the claim until it finishes, so a second
    /// copy arriving meanwhile is a duplicate; a forward or a drop releases
    /// it.
    pub(crate) fn admit_request(self: &Arc<Self>, request: SharedRequest) -> Admission {
        if !self.is_alive() {
            return Admission::Done;
        }
        if !self.ledger.claim(request.id) {
            return Admission::Done;
        }
        self.admit_held(request)
    }

    /// Admission of a request that holds its claim already — freshly taken,
    /// or kept while it was deferred or parked: releases the claim unless
    /// the request stays here.
    fn admit_held(self: &Arc<Self>, request: SharedRequest) -> Admission {
        let id = request.id;
        let admission = self.admit_claimed(request);
        if matches!(admission, Admission::Forward(_) | Admission::Done) {
            self.ledger.release(id);
        }
        admission
    }

    /// [`Self::admit_request`] past the claim.
    fn admit_claimed(self: &Arc<Self>, mut request: SharedRequest) -> Admission {
        // Retry-orchestration gate: a *scheduled* retry copy (attempt ≥ 1)
        // waits out its next-fire deadline on the due-time heap and spends a
        // mesh retry-budget token to start; a shed re-parks it on its own
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
                None => return Admission::Parked,
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
        //
        // An activation — no resident slot — reads its placement record
        // from the store, as a stage: the placement of a passivated actor
        // is released once its tombstone ages out, so only the record can
        // say it is still placed here. Its slot is held meanwhile, siblings
        // mailboxed behind it, and the release rounds settled so far are
        // read under the same lock, before the read is submitted: the
        // activation defers if a round releasing its actor settles
        // meanwhile.
        let stamp = self.placement.ownership_stamp();
        let (resident, settled) = self.resident.lookup(&request.target);
        if stamp.is_some() && resident == Some(stamp) {
            self.placement.note_slot_hit();
        } else if resident.is_none() {
            return match self.resident.hold(request) {
                Some(head) => Admission::Activate(head, Verify { stamp, settled }),
                None => Admission::Parked,
            };
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
        // Happen-before: a retried caller waits for its pending callee,
        // checked strictly AFTER ownership: only the placement owner may park
        // the retry, because the callee's response chases the caller's
        // *placement* — a deferral on a mere partition adopter would never be
        // woken.
        if let Some(callee) = request.pending_callee {
            match self.defer_on_callee(callee, request) {
                Some(due_now) => request = due_now,
                None => return Admission::Parked,
            }
        }
        self.admit_to_slot(request, stamp, settled)
    }

    /// Parks `request` — a retried caller — until its pending `callee`'s
    /// response is seen, unless it is already: then hands it back, its
    /// annotation cleared. The ledger checks the seen mark and parks under
    /// one lock, the lock `handle_response` records the response under, so
    /// the callee's response cannot slip in between them and leave this
    /// retry parked forever.
    fn defer_on_callee(&self, callee: RequestId, request: SharedRequest) -> Option<SharedRequest> {
        let mut due_now = self.ledger.defer(callee, request)?;
        due_now.make_mut().pending_callee = None;
        Some(due_now)
    }

    /// Admits `request`, its ownership verified in epoch `stamp` after
    /// `settled` release rounds, to its actor's slot: runs, mailboxes or
    /// defers it.
    fn admit_to_slot(
        self: &Arc<Self>,
        request: SharedRequest,
        stamp: Option<u64>,
        settled: u64,
    ) -> Admission {
        let (admission, evicted) = self.resident.admit(request, stamp, settled, &self.stats);
        // Outside the resident lock: the placement cache is not ordered
        // after it.
        if let Some(actor) = evicted {
            self.placement.forget(&actor);
        }
        match admission {
            SlotAdmission::Run(frame) => Admission::Run(frame),
            SlotAdmission::Mailboxed => Admission::Parked,
            SlotAdmission::Deferred(request, wait) => {
                self.park_for(wait, Stage::Admit(request));
                Admission::Parked
            }
        }
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
        if !self.is_alive() {
            return;
        }
        match stage {
            // Recovery is cataloguing the queues: like the consumer lanes,
            // admit nothing new until it is over.
            Stage::Admit(request) if self.is_paused() => {
                self.park_for(
                    self.config.scaled_heartbeat_interval(),
                    Stage::Admit(request),
                );
            }
            Stage::Admit(request) => {
                let admission = self.admit_held(request);
                self.carry_out(admission);
            }
            Stage::Orphan { response, deadline } => self.route_orphan(response, deadline),
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
            image: frame.image,
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
            Stage::Start(frame) => self.start_invocation(frame),
            Stage::Own {
                request,
                verify,
                lookup,
            } => self.own(request, verify, lookup),
            Stage::Resume {
                parked,
                input,
                outbox,
            } => {
                let ParkedContinuation {
                    request,
                    holds_lock,
                    reentrant,
                    image,
                    then,
                    ..
                } = parked;
                let attempt = {
                    let mut ctx = ActorContext::new(self, &request, &image, outbox);
                    let result = then.resume(&mut ctx, input);
                    Attempt::finished(ctx, result)
                };
                let frame = Frame {
                    request,
                    holds_lock,
                    reentrant,
                    image,
                };
                self.handler_returned(frame, attempt)
            }
            Stage::Round { mut placing, then } => match self.place_once(&mut placing) {
                Ok(Placement::Routed(run)) => match (run, then) {
                    // A finished handler's tells for one partition join its
                    // queue: they leave with whatever else is bound there.
                    (Run::Batch(partition, tells), RoundThen::Outbox(waiter)) => {
                        match self.batcher.enqueue_outbox(partition, tells, waiter) {
                            Some(flusher) => self.flush(flusher),
                            None => Step::Done,
                        }
                    }
                    (run, then) => {
                        let round = RoundInFlight::new(run, placing.tells);
                        self.submit_round(round, then)
                    }
                },
                // Parked on the lookup's ack, or until the next attempt: a
                // miss or a stale placement never holds a reactor, a lane or
                // — for a forward — an actor.
                Ok(Placement::Looking { due: at } | Placement::Unresolved { retry_at: at }) => {
                    Step::Next(Some(at), Stage::Round { placing, then })
                }
                Err(error) => self.round_over(then, Err(error), Vec::new()),
            },
            Stage::RoundAck { mut round, then } => match self.settle_round(&mut round) {
                Some(outcome) => self.round_over(then, outcome, round.round.into_kept()),
                // The ack was lost: the whole round again.
                None => self.submit_round(round, then),
            },
            Stage::StateIo {
                frame,
                op,
                acked,
                submits_left,
            } => match frame.image.finish(acked) {
                Ok(()) => self.state_io_done(frame, op),
                // The ack was lost; a load or a flush batch is idempotent:
                // again.
                Err(error) if error.is_transient() && submits_left > 0 => {
                    self.submit_state_io(frame, op, submits_left)
                }
                Err(error) if error.is_transient() => self.complete(frame, Err(error)),
                Err(_) => Step::Done,
            },
            Stage::Respond { frame, result } => {
                // Completed before the response can be seen: a copy of the
                // request polled once the caller has its answer is a
                // duplicate.
                self.finish(&frame.request);
                self.route_response(&frame.request, result);
                self.next_in_mailbox(frame)
            }
            Stage::Flush(flusher) => self.flush(flusher),
            Stage::Admit(_) | Stage::Orphan { .. } => {
                unreachable!("resumed by resume_stage, not the loop")
            }
        }
    }

    /// An invocation's start, its sidecar hop behind it: a nested call whose
    /// caller's component failed is cancelled (§4.4); otherwise the state
    /// image is loaded, if it is not, and the handler runs.
    fn start_invocation(self: &Arc<Self>, frame: Frame) -> Step {
        if self.config.cancellation == CancellationPolicy::Cancel
            && self.should_cancel(&frame.request)
        {
            let cancelled = KarError::Cancelled {
                request: frame.request.id,
            };
            return self.respond(frame, Err(cancelled));
        }
        self.submit_state_io(frame, ImageOp::Load, TRANSIENT_ATTEMPTS)
    }

    /// The activation `request`'s ownership read: submitted once its hop is
    /// over, then settled once acknowledged — the activation runs if the
    /// record says the actor is ours, and is forwarded otherwise.
    fn own(
        self: &Arc<Self>,
        request: SharedRequest,
        verify: Verify,
        lookup: Option<Lookup>,
    ) -> Step {
        let Some(mut lookup) = lookup else {
            return self.submit_ownership_read(request, verify);
        };
        match self.placement.settle_lookup(&mut lookup) {
            Ok(false) => {
                let due = lookup.due();
                let lookup = Some(lookup);
                Step::Next(
                    due,
                    Stage::Own {
                        request,
                        verify,
                        lookup,
                    },
                )
            }
            Ok(true) if lookup.answer(&request.target) == Some(Resolution::Placed(self.id)) => {
                let loaded = lookup.take_riders().pop().and_then(|read| read.into_hash());
                self.activate(request, verify, loaded)
            }
            // Owned elsewhere, a stale placement awaiting repair, or a
            // transient store failure: the forward re-resolves (parking on a
            // stale placement) and appends to the owner's queue.
            Ok(true) | Err(_) => self.forward_activation(request),
        }
    }

    /// Submits the ownership read of the activation `request`: its actor's
    /// placement record — counted as a placement miss, since only the
    /// record can say a passivated actor is still placed here — and, riding
    /// in the same round trip, its state hash. A submit refused by a
    /// transient fault forwards the activation, as a stale placement does.
    fn submit_ownership_read(self: &Arc<Self>, request: SharedRequest, verify: Verify) -> Step {
        let actor = &request.target;
        self.placement.note_stored_read();
        let read = self.placement.submit_lookup(
            [actor],
            |_| None,
            false,
            |pipe| {
                pipe.hgetall(&state_key(actor));
            },
        );
        match read {
            Ok(lookup) => Step::Next(
                lookup.due(),
                Stage::Own {
                    request,
                    verify,
                    lookup: Some(lookup),
                },
            ),
            Err(error) if error.is_transient() => self.forward_activation(request),
            Err(_) => Step::Done,
        }
    }

    /// The ownership read of the activation `request` says its actor is
    /// ours, and read its state hash as `loaded` (`None` when the lookup
    /// claimed the placement): what admission does past an ownership check
    /// — the happen-before deferral, then the held slot's admission — and
    /// the handler runs on the state read.
    fn activate(
        self: &Arc<Self>,
        mut request: SharedRequest,
        verify: Verify,
        loaded: Option<BTreeMap<String, Value>>,
    ) -> Step {
        if let Some(callee) = request.pending_callee {
            let (target, head) = (request.target.clone(), request.id);
            let Some(due_now) = self.defer_on_callee(callee, request) else {
                // Parked on its callee, the retry holds no slot: what
                // mailboxed behind it is admitted again, as if it had
                // arrived after the deferral.
                for sibling in self.resident.release_held(&target, head) {
                    let admission = self.admit_held(sibling);
                    self.carry_out(admission);
                }
                return Step::Done;
            };
            request = due_now;
        }
        match self.admit_to_slot(request, verify.stamp, verify.settled) {
            Admission::Run(frame) => {
                if let Some(fields) = loaded {
                    // Read as the record said the actor is ours, and ignored
                    // by an image loaded meanwhile.
                    let _ = frame.image.finish(Ok(Acked::Loaded(fields)));
                }
                self.start_invocation(frame)
            }
            _ => Step::Done,
        }
    }

    /// The activation `request` is not ours to run: it and everything
    /// mailboxed behind its held slot leave it, in order, in one forward.
    fn forward_activation(self: &Arc<Self>, request: SharedRequest) -> Step {
        let target = request.target.clone();
        let siblings = self.resident.release_held(&target, request.id);
        let requests: Vec<RequestMessage> = std::iter::once(request)
            .chain(siblings)
            .map(|request| {
                self.ledger.release(request.id);
                self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                request.into_owned()
            })
            .collect();
        self.resend(requests, None)
    }

    /// `frame`'s state image is loaded: its handler runs — activating the
    /// actor first if it has no instance — under one context, so whatever
    /// `activate` and `invoke` told leaves in one outbox.
    fn run(self: &Arc<Self>, frame: Frame) -> Step {
        // The circuit breaker sits at the execute boundary: an open breaker
        // fails the attempt fast (the retryable `CircuitOpen` flows into the
        // ordinary failure orchestration); a closed one feeds its health
        // window from the outcome. Self-failures (killed / fenced mid-run)
        // say nothing about the actor type's health, and fast-fails are not
        // recorded — an open breaker must not feed itself.
        let actor_type = frame.request.target.actor_type();
        let attempt = match self.breakers.admit(actor_type) {
            Ok(()) => {
                let request = &frame.request;
                let mut ctx = ActorContext::new(self, request, &frame.image, Outbox::default());
                let result = self.run_handler(&mut ctx, request, frame.reentrant);
                if !matches!(
                    result,
                    Err(KarError::Killed { .. } | KarError::Fenced { .. })
                ) {
                    self.breakers.record(actor_type, result.is_ok());
                }
                Attempt::finished(ctx, result)
            }
            Err(error) => Attempt {
                result: Err(error),
                outbox: Outbox::default(),
            },
        };
        self.handler_returned(frame, attempt)
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
    /// leave one sidecar hop from now, as one round — or, when they are all
    /// bound for one partition, in that partition's next queued run.
    /// Skipped for an attempt that was killed or fenced (it publishes
    /// nothing).
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
        let waiter = OutboxWaiter {
            frame,
            result,
            failed,
            guarded,
        };
        if tells.is_empty() {
            // Nothing left to send, but a round flushed mid-handler failed.
            return self.outbox_settled(waiter, Ok(()));
        }
        let records = tells.len();
        Step::Next(
            self.hop_due(),
            Stage::Round {
                placing: self.placing(tells, records, true),
                then: RoundThen::Outbox(waiter),
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
                self.ledger.park(*nested, caller);
            }
        }
        let due = round.round.submit(&self.producer, &self.topic);
        Step::Next(due, Stage::RoundAck { round, then })
    }

    /// A round sent from this reactor is over — durable, or failed with
    /// nothing appended (placement included): on to what it was for. `kept`
    /// is what the round kept of its envelopes for replays (only while a
    /// fault plan is armed).
    fn round_over(
        self: &Arc<Self>,
        then: RoundThen,
        outcome: KarResult<()>,
        mut kept: Vec<Envelope>,
    ) -> Step {
        match then {
            RoundThen::Outbox(waiter) => self.outbox_settled(waiter, outcome),
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
                match caller.or_else(|| self.ledger.take(nested)) {
                    Some(caller) => Self::nested_round_failed(caller, error, lost_tells, guarded),
                    None => Step::Done,
                }
            }
            RoundThen::Resend { settles, frame } => {
                if outcome.is_ok() {
                    self.settle.close_all(&settles);
                }
                // A tail call to a different actor releases the lock: on to
                // the mailbox, the successor's ack behind it.
                frame.map_or(Step::Done, |frame| self.next_in_mailbox(frame))
            }
            RoundThen::Retry {
                frame,
                error,
                settles,
            } => match outcome {
                Ok(()) => {
                    self.settle.close_all(settles.as_slice());
                    self.stats.retries_scheduled.fetch_add(1, Ordering::Relaxed);
                    self.next_in_mailbox(frame)
                }
                // Killed or fenced mid-append: nothing completes, and the
                // original queue copy drives recovery.
                Err(KarError::Killed { .. } | KarError::Fenced { .. }) => Step::Done,
                // Nothing was scheduled: the failure settles here, and its
                // response settles the record the copy would have.
                Err(_) => {
                    self.settle.hand_back(frame.request.id, settles);
                    self.respond(frame, Err(error))
                }
            },
            RoundThen::Flush {
                flusher,
                completions,
                settles,
                mut waiters,
            } => {
                // The claim is handed on before any waiter resumes: an
                // outbox enqueued while they run never waits them out.
                let next = match &outcome {
                    Ok(()) => {
                        // The completions are durable: the request records
                        // they answer have settled.
                        self.settle.close_all(&settles);
                        if completions > 0 {
                            self.batcher.flushed();
                        }
                        self.flush(flusher)
                    }
                    // Out of transient replays, its run kept: the requests
                    // its completions answer are recorded as completed, so
                    // nothing would regenerate a dropped response. Back to
                    // the head of the queue, still claimed; they leave again
                    // a heartbeat from now. The tells are not requeued:
                    // their outboxes resume with the error.
                    Err(error) if error.is_transient() && !kept.is_empty() => {
                        kept.truncate(completions);
                        flusher.requeue(kept, settles);
                        self.park_for(
                            self.config.scaled_heartbeat_interval(),
                            Stage::Flush(flusher),
                        );
                        Step::Done
                    }
                    // Fenced or killed mid-completion: nothing was appended,
                    // and the queue copies of the affected requests drive the
                    // retry. Whatever queued meanwhile goes too — its
                    // outboxes resume with the same error.
                    Err(_) => {
                        waiters.append(&mut flusher.abandon());
                        Step::Done
                    }
                };
                self.resume_outboxes(waiters, outcome, next)
            }
        }
    }

    /// Resumes the outboxes a partition queue's run carried, `outcome` being
    /// the run's, once `next` — the queue's next step — has been decided:
    /// each but the last in a frame of its own, the last in this one unless
    /// `next` continues here (so a chain of outboxes, each resumed into the
    /// next one's flush, does not nest frames).
    fn resume_outboxes(
        self: &Arc<Self>,
        waiters: Vec<OutboxWaiter>,
        outcome: KarResult<()>,
        next: Step,
    ) -> Step {
        let mut waiters = waiters.into_iter();
        let last = match next {
            Step::Done => waiters.next_back(),
            Step::Next(..) => None,
        };
        for waiter in waiters {
            if let Step::Next(due, stage) = self.outbox_settled(waiter, outcome.clone()) {
                Arc::clone(self).invocation_loop(due, stage);
            }
        }
        match last {
            Some(waiter) => self.outbox_settled(waiter, outcome),
            None => next,
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
    fn outbox_settled(self: &Arc<Self>, waiter: OutboxWaiter, flushed: KarResult<()>) -> Step {
        let OutboxWaiter {
            frame,
            result,
            failed,
            guarded,
        } = waiter;
        let result = match failed.map_or(flushed, Err) {
            Ok(()) => result,
            Err(error @ (KarError::Killed { .. } | KarError::Fenced { .. })) => Err(error),
            Err(error) => {
                if let Some(savepoint) = guarded {
                    frame.image.rollback(savepoint);
                }
                result.and(Err(error))
            }
        };
        self.flush_state(frame, result)
    }

    /// Flush-before-respond: the invocation's buffered state writes become
    /// durable (one pipelined round trip) before ANY completion — response,
    /// error response, or tail-call continuation — is sent. A killed or
    /// fenced result has nothing to flush for.
    fn flush_state(self: &Arc<Self>, frame: Frame, result: KarResult<Outcome>) -> Step {
        if matches!(
            result,
            Err(KarError::Killed { .. } | KarError::Fenced { .. })
        ) {
            return self.complete(frame, result);
        }
        self.submit_state_io(frame, ImageOp::Flush(result), TRANSIENT_ATTEMPTS)
    }

    /// Submits `op`'s store round trip for the frame's state image. A load
    /// and a flush batch (pure sets/deletes) are idempotent, so a transient
    /// fault is replayed — a refused submit at once, a lost ack (a gray
    /// failure, perhaps after the batch applied) once it is due — up to
    /// `submits_left` submits; past that the transient error fails the
    /// attempt into [`Self::complete`], where retry orchestration takes
    /// over. A dead or fenced component completes nothing: the queue copy
    /// drives the retry from the last durable state.
    fn submit_state_io(self: &Arc<Self>, frame: Frame, op: ImageOp, mut submits_left: u32) -> Step {
        loop {
            if !self.is_alive() {
                return Step::Done;
            }
            submits_left -= 1;
            let (conn, actor) = (&self.conn, &frame.request.target);
            let submitted = match op {
                ImageOp::Load => frame.image.submit_load(conn, actor),
                ImageOp::Flush(_) => frame.image.submit_flush(conn, actor),
            };
            match submitted {
                Ok(None) => return self.state_io_done(frame, op),
                Ok(Some(Completion { due, result: acked })) => {
                    return Step::Next(
                        due,
                        Stage::StateIo {
                            frame,
                            op,
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

    /// `op`'s round trip is acknowledged, or was not needed: the handler
    /// runs after a load, the completion is sent after a flush.
    fn state_io_done(self: &Arc<Self>, frame: Frame, op: ImageOp) -> Step {
        match op {
            ImageOp::Load => self.run(frame),
            ImageOp::Flush(result) => self.complete(frame, result),
        }
    }

    /// The invocation's outbox and state are durable: completes it as
    /// `result` says.
    fn complete(self: &Arc<Self>, frame: Frame, result: KarResult<Outcome>) -> Step {
        let request = &frame.request;
        match result {
            Ok(Outcome::Value(value)) => self.respond(frame, Ok(value)),
            Ok(Outcome::CallThen { .. }) => unreachable!("parked when the handler returned"),
            Ok(Outcome::TailCall {
                target,
                method,
                args,
            }) => {
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
                self.ledger.release(request.id);
                if same_actor && frame.holds_lock {
                    // Retain the actor lock across the tail call: the
                    // continuation bypasses the mailbox when its queue
                    // copy arrives (§4.1). It is sent straight to the
                    // actor's own home partition here — the hash the
                    // continuation's copy would take anyway — through
                    // the same per-destination batching as responses,
                    // so a continuation produced while another
                    // completion's ack is in flight rides its flush.
                    self.resident.retain_for_tail(&request.target, request.id);
                    if let Some(partition) = self.own_partition_for(&request.target) {
                        // The successor is this record's completion.
                        let settles = self.settle.take(request.id);
                        self.send_completion(partition, Envelope::Request(tail), settles);
                    }
                    return Step::Done;
                }
                self.resend(vec![tail], Some(frame))
            }
            Err(KarError::Killed { .. } | KarError::Fenced { .. }) => {
                // The invocation was interrupted by a failure: no
                // response, no completion; retry orchestration takes
                // over during reconciliation.
                Step::Done
            }
            Err(error) => {
                // Policy-orchestrated failure: schedule a retry copy
                // (in which case nothing completes here — the copy
                // carries the schedule), or settle the failure as
                // final (respond + finish), possibly via the DLQ.
                self.orchestrate_failure(frame, error)
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
    fn next_in_mailbox(self: &Arc<Self>, frame: Frame) -> Step {
        if !frame.holds_lock {
            return Step::Done;
        }
        let next = self
            .resident
            .next_in_mailbox(&frame.request.target, frame.image);
        next.map_or(Step::Done, |next| {
            Step::Next(self.hop_due(), Stage::Start(next))
        })
    }

    /// §4.4: a nested call whose caller's component — its `reply_to` — is
    /// not in the list of live components is elided, answered with a
    /// synthetic response.
    fn should_cancel(&self, request: &RequestMessage) -> bool {
        if request.caller.is_none() {
            return false;
        }
        // §4.4: check the list of live components; if the caller's component
        // is not listed, elide execution and send a synthetic response. The
        // caller's component is approximated by its reply_to component or by
        // the current placement of the caller actor.
        if let Some(reply_to) = request.reply_to {
            return !self.membership.read(|members| members.is_live(reply_to));
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
        // state is shared through the slot's state image.
        let mut instance = if reentrant {
            self.make_instance(ctx, request)?
        } else {
            match self.resident.swap_instance(&request.target, None) {
                Some(instance) => instance,
                None => self.make_instance(ctx, request)?,
            }
        };
        let result = instance.invoke(ctx, &request.method, &request.args);
        if !reentrant && self.is_alive() {
            self.resident.swap_instance(&request.target, Some(instance));
        }
        result
    }

    fn finish(&self, request: &RequestMessage) {
        self.ledger.complete(request.id);
        if !Self::awaits_response(request) {
            // A finished tell (or tell-rooted tail-call chain) leaves no
            // completion record to wait for. Its outbox round has been
            // acknowledged by now — the flush precedes every completion —
            // so the record is never trimmed ahead of the tells it produced.
            self.settle.settle_now(request.id);
        }
    }

    /// Re-appends `requests` elsewhere — a forward to the actor's current
    /// host (several, in order, when a held activation leaves with its
    /// mailbox), or a tail-call successor to another actor, whose invocation
    /// `frame` it completes — as a round of its own ([`RoundThen::Resend`]).
    /// A copy is never single-copy: the request already has a record, the
    /// one it was polled from, which settles once the copy is durable.
    fn resend(self: &Arc<Self>, requests: Vec<RequestMessage>, frame: Option<Frame>) -> Step {
        let settles = requests
            .iter()
            .filter_map(|request| self.settle.take(request.id))
            .collect();
        Step::Next(
            None,
            Stage::Round {
                placing: self.placing(requests, 0, false),
                then: RoundThen::Resend { settles, frame },
            },
        )
    }

    // ------------------------------------------------------------------
    // Retry orchestration (the policy layer over the queue-copy mechanism)
    // ------------------------------------------------------------------

    /// Handles a failed attempt of `frame`'s request under its governing
    /// policy (the request-carried schedule, or the actor type's configured
    /// default starting fresh at first failure): settles the failure as
    /// final — respond and finish, possibly via the DLQ — or sends a retry
    /// copy as a round of its own ([`RoundThen::Retry`]). Once the copy is
    /// durable nothing completes here: the copy carries the schedule, and
    /// marking the id completed would make admission dedupe it away.
    fn orchestrate_failure(self: &Arc<Self>, frame: Frame, error: KarError) -> Step {
        let request = &frame.request;
        let now = self.retry_epoch_now();
        let state = match request.retry.clone() {
            Some(state) => *state,
            None => match self.config.retry_policy_for(request.target.actor_type()) {
                Some(policy) => RetryState::fresh(policy.clone(), now),
                None => return self.respond(frame, Err(error)),
            },
        };
        let next = match state.after_failure(request.id.as_u64(), &error, now) {
            RetryVerdict::Retry(next) => next,
            RetryVerdict::Exhausted(final_state) => {
                self.dead_letter(request, &final_state, &error);
                return self.respond(frame, Err(error));
            }
        };
        let mut copy = RequestMessage::clone(request);
        copy.retry = Some(Box::new(next));
        copy.pending_callee = None;
        copy.single_copy = false;
        // Release the in-flight claim BEFORE the durable re-append: admission
        // dedupes against in-flight ids, so the opposite order would swallow
        // the copy. A crash inside this window is safe — the original queue
        // copy still drives recovery, schedule state included.
        self.ledger.release(request.id);
        // The copy supersedes the record this attempt was polled from, which
        // settles once the copy is durable (taken first: the copy may be
        // routed before its ack is in).
        let settles = self.settle.take(request.id);
        let Some(partition) = self.own_partition_for(&request.target) else {
            self.settle.hand_back(request.id, settles);
            return self.respond(frame, Err(error));
        };
        // Replayed through transient gray failures like any round: an
        // ack-lost replay appends a second copy, which the admission claim
        // collapses (the first copy keeps it while parked).
        let round = RoundInFlight::batch(partition, vec![Envelope::Request(copy)], 0);
        self.submit_round(
            round,
            RoundThen::Retry {
                frame,
                error,
                settles,
            },
        )
    }

    /// Admission gate for a scheduled retry copy: park it as a
    /// [`Stage::Admit`] until its next-fire deadline, then spend a mesh
    /// retry-budget token to start it. A shed re-parks the retry on its own
    /// backoff delay — never dropped — until the policy's attempt-start grace
    /// expires, at which point the shed counts as a timed-out attempt
    /// (advancing the schedule toward the DLQ instead of stalling it
    /// forever). Returns the request when it may proceed to ordinary
    /// admission *now*, `None` when it was parked or settled — holding its
    /// claim either way, which its completion releases once settled.
    fn gate_scheduled_retry(self: &Arc<Self>, mut request: SharedRequest) -> Option<SharedRequest> {
        let now = self.retry_epoch_now();
        let seed = request.id.as_u64();
        let due = request.retry.as_ref().is_some_and(|retry| retry.due(now));
        if due {
            if self.budget.try_take() {
                return Some(request);
            }
            let rescheduled = request
                .make_mut()
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
                    RetryVerdict::Retry(next) => request.make_mut().retry = Some(Box::new(next)),
                    RetryVerdict::Exhausted(final_state) => {
                        self.dead_letter(&request, &final_state, &error);
                        // Never admitted to its actor: it holds no lock, and
                        // a state image of its own that nothing writes.
                        let frame = Frame {
                            request,
                            holds_lock: false,
                            reentrant: false,
                            image: StateImage::default(),
                        };
                        if let Step::Next(due, stage) = self.respond(frame, Err(error)) {
                            Arc::clone(self).invocation_loop(due, stage);
                        }
                        return None;
                    }
                }
            }
        }
        // The epoch clock is the schedule's (it travels with the request);
        // the heap runs on the monotonic one, so park for the difference.
        let not_before = request.retry.as_ref().map_or(0, |r| r.not_before_ms);
        let wait = Duration::from_millis(not_before.saturating_sub(now));
        self.park_for(wait, Stage::Admit(request));
        None
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

    /// Number of requests parked to be admitted again: scheduled retries
    /// waiting out their backoff, and activations deferred at the hard
    /// resident watermark.
    pub fn delayed_retries(&self) -> usize {
        self.io
            .count(self, |stage| matches!(stage, Stage::Admit(_)))
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

    /// One reactor sweep over this component: poll ready consumer lanes
    /// (admitting what they poll) and trim settled log prefixes. Returns
    /// true if any record was polled. Safe to call from any number of
    /// reactors concurrently — lanes are claimed individually. `wake_at` is
    /// lowered to the earliest instant a record already in one of this
    /// component's partitions becomes readable: the sweeping reactor must
    /// not sleep past it (no append will announce it).
    pub(crate) fn pump(self: &Arc<Self>, wake_at: &mut Option<Duration>) -> bool {
        if !self.is_alive() || self.is_paused() {
            return false;
        }
        let did = self.lanes.pump(self, wake_at);
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

    /// One mesh-timer tick: heartbeat, bookkeeping aging, continuation
    /// deadlines, partition retirement, passivation, placement release,
    /// trimming of settled log prefixes. Called at the scaled heartbeat
    /// interval by the mesh's single timer thread (`on_timer`), or by a
    /// reactor rescuing an overdue tick: that one releases no placements.
    pub(crate) fn tick(self: &Arc<Self>, now: Duration, on_timer: bool) {
        if !self.is_alive() {
            return;
        }
        if !self.heartbeats_stopped.load(Ordering::Relaxed) {
            if self.broker.heartbeat(&self.group, self.id).is_err() {
                self.heartbeats_stopped.store(true, Ordering::Relaxed);
            } else {
                // The retry bookkeeping and the passivation tombstones age
                // on one doubled retention clock: a tombstone never consumed
                // by a rehydration ages out, and its placement is released.
                let aged_at = mono_now();
                self.ledger.age(aged_at);
                self.resident.rotate_tombstones(aged_at);
            }
        }
        // Continuations past their deadline are handed to the due-time heap
        // here and resumed with a timeout error on a reactor, one sidecar
        // hop later like any resume: an application continuation that
        // misbehaves must not stall every component's heartbeat.
        for (nested, parked) in self.ledger.take_expired(now) {
            let error = KarError::Timeout {
                request: nested,
                after_ms: self.config.call_timeout.as_millis() as u64,
            };
            let resume = Stage::Resume {
                parked,
                input: Err(error),
                outbox: Outbox::default(),
            };
            self.io
                .park(self.hop_due().unwrap_or_else(mono_now), self, resume);
        }
        self.lanes.sweep_retirement(self);
        self.sweep_passivation(now);
        if on_timer {
            self.release_placements(now);
        }
        // Survivors stop trimming while the leader catalogues the logs.
        if !self.is_paused() {
            self.trim_settled();
        }
    }

    /// Admits one polled batch, in record order, on the lane that polled it:
    /// a response is handled, a request admitted and then run, forwarded or
    /// left where admission put it. The partition's consumed offset
    /// (`consumed`, kept by the lane) passes a request only once admission
    /// has claimed it — run, mailboxed, deferred
    /// or parked, it holds the claim — and before it runs, so reconciliation
    /// always sees a record as still queued or locally pending, never
    /// neither, and sees what its handler sent only once the record is
    /// consumed.
    pub(crate) fn route_records(
        self: &Arc<Self>,
        partition: usize,
        consumed: &AtomicU64,
        records: Vec<Record<Arc<Envelope>>>,
    ) {
        self.settle.routed(partition, &records);
        let publish = |offset: u64| consumed.fetch_max(offset + 1, Ordering::SeqCst);
        let mut admitted = 0;
        for record in records {
            let offset = record.offset;
            // The poll shared these envelopes with the partition log
            // (zero-copy), and so does admission: a request keeps its
            // envelope, copied only if something changes it while the log
            // still holds it; a response is read where it lies.
            match SharedRequest::try_from_envelope(record.payload) {
                Ok(request) => {
                    let admission = self.admit_request(request);
                    publish(offset);
                    admitted += 1;
                    self.carry_out(admission);
                }
                Err(envelope) => {
                    publish(offset);
                    if let Envelope::Response(response) = &*envelope {
                        self.handle_response(response);
                    }
                }
            }
        }
        if let Some((_, load)) = self.home_loads.iter().find(|(p, _)| *p == partition) {
            load.fetch_add(admitted, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Idle-actor passivation & admission watermarks
    // ------------------------------------------------------------------

    /// Per home partition: records still open and records trimmed so far
    /// (for `Mesh::debug_report`).
    pub(crate) fn settle_snapshot(&self) -> Vec<crate::settle::SettleSnapshot> {
        self.settle.snapshot()
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

    /// Heartbeat-driven passivation sweep (timer thread): passivates every
    /// quiescent actor idle for one to two retention windows — its state
    /// image flushed, then its slot and cached placement dropped. Its record
    /// stays until [`Self::release_placements`] releases it.
    fn sweep_passivation(self: &Arc<Self>, now: Duration) {
        if !self.is_alive() || self.is_paused() {
            return;
        }
        for actor in &self.resident.stale_due(now) {
            if !self.is_alive() || self.is_paused() {
                return;
            }
            let Some(image) = self.resident.quiescent_image(actor) else {
                continue;
            };
            // Flush outside every lock: the store round trip must not stall
            // admissions. A flush failure means this component is being
            // fenced or killed — leave the slot alone; kill drops it
            // wholesale.
            if image.flush(&self.conn, actor).is_err() {
                continue;
            }
            drop(image);
            if self.resident.passivate(actor, &self.stats) {
                self.placement.forget(actor);
            }
        }
    }

    /// Releases the placements of passivated actors whose tombstones aged
    /// out (timer thread): one pipelined round of fenced compare-and-deletes
    /// of this component's own id per heartbeat, one round in flight at a
    /// time. A tombstone ages out two retention windows or more after its
    /// actor passivated, so every queue copy of anything the actor completed
    /// here has expired, and the completed ids that deduped them may go
    /// with the placement.
    pub(crate) fn release_placements(&self, now: Duration) {
        if !self.resident.settle_release(now, &self.stats) || self.is_paused() {
            return;
        }
        let released = self.resident.begin_release(&self.ledger.deferred_actors());
        if released.is_empty() {
            return;
        }
        let mut round = self.conn.pipeline();
        for actor in &released {
            round.compare_and_delete(&placement_key(actor), component_to_value(self.id));
        }
        // A round that fails at once applied nothing; it settles all the
        // same, and its records stay (they still name this live component).
        let completion = round
            .submit()
            .unwrap_or_else(|error| Completion::immediate(Err(error)));
        self.resident
            .release_submitted(completion, now, &self.stats);
    }

    // ------------------------------------------------------------------
    // Actor-state persistence (the `ctx.state()` backend)
    // ------------------------------------------------------------------

    /// Number of loaded state images the idle sweep has dropped with their
    /// actors.
    pub fn state_cache_evictions(&self) -> u64 {
        self.stats.state_evictions.load(Ordering::Relaxed)
    }

    /// `(requests sent, rounds acknowledged)` on this component's request
    /// leg. The ratio is its amortization: an invocation's outbox sends all
    /// its tells in one round, and one-partition outboxes share the runs of
    /// their partition's queue.
    pub fn request_batch_stats(&self) -> (u64, u64) {
        let stats = &self.round_stats;
        (
            stats.requests.load(Ordering::Relaxed),
            stats.rounds.load(Ordering::Relaxed),
        )
    }

    /// `(completions enqueued, runs carrying completions acknowledged)` by
    /// the partition batcher. The ratio is the per-destination amortization
    /// the batching achieves.
    pub fn response_batch_stats(&self) -> (u64, u64) {
        self.batcher.stats()
    }
}

/// A component no mesh drives, on `broker`'s topic `topic` with home
/// partition 0, hosting `Ledger` actors that answer `Null`: a test sets up
/// its tables by hand, admits requests with [`deliver`] and runs its parked
/// stages with [`run_parked`]. Besides doing nothing, a `Ledger` can
/// `tell(id)` — write `before`, tell `Ledger/id` `m`, write `done` behind
/// the tell — and run `slow(ms)`, computing for `ms` milliseconds.
#[cfg(test)]
pub(crate) fn lone_core(config: MeshConfig, broker: Broker<Envelope>) -> Arc<ComponentCore> {
    struct Ledger;
    impl crate::actor::Actor for Ledger {
        fn invoke(
            &mut self,
            ctx: &mut ActorContext<'_>,
            method: &str,
            args: &[Value],
        ) -> KarResult<Outcome> {
            match method {
                "tell" => {
                    let target = ActorRef::new("Ledger", args[0].as_str().unwrap_or("?"));
                    ctx.state().set("before", Value::Int(1))?;
                    ctx.tell(&target, "m", Vec::new())?;
                    ctx.state().set("done", Value::Int(1))?;
                }
                "slow" => {
                    let ms = args[0].as_i64().unwrap_or(0) as u64;
                    kar_types::pace_sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
            Ok(Outcome::value(Value::Null))
        }
    }
    let ledger: ActorFactory = Arc::new(|| Box::new(Ledger));
    let io = Arc::new(DueHeap::new(Arc::new(WaitSignalGroup::new())));
    Arc::new(ComponentCore::new(
        ComponentId::from_raw(1),
        NodeId::from_raw(1),
        "lone".to_owned(),
        config,
        "topic".to_owned(),
        "group".to_owned(),
        PartitionSet::contiguous(0, 1),
        broker,
        Store::new(),
        Arc::default(),
        Arc::new(RequestIdGenerator::new()),
        HashMap::from([("Ledger".to_owned(), ledger)]),
        io,
        Arc::new(RetryBudget::new(1.0, 1.0)),
        Arc::new(BreakerRegistry::new(None)),
        None,
    ))
}

/// Admits `request` to `core` as if polled, and runs it as far as it goes
/// without waiting for a due time.
#[cfg(test)]
pub(crate) fn deliver(core: &Arc<ComponentCore>, request: RequestMessage) {
    let admission = core.admit_request(request.into());
    core.carry_out(admission);
}

/// Runs the stages of `core` due next, and returns the clock.
#[cfg(test)]
pub(crate) fn run_next_due(core: &ComponentCore) -> Duration {
    let due = core.io.next_due().expect("a stage is parked");
    kar_types::pace_until(due);
    core.io.run_due();
    mono_now()
}

/// Runs `core`'s parked stages as they fall due, until none is left.
#[cfg(test)]
pub(crate) fn run_parked(core: &ComponentCore) {
    while let Some(due) = core.io.next_due() {
        kar_types::pace_until(due);
        core.io.run_due();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_stats_default_to_zero() {
        let stats = ComponentStats::default();
        assert_eq!(stats.forwarded.load(Ordering::Relaxed), 0);
    }

    /// A lone core on a three-partition topic, published live with home
    /// partition 0, its home lane built.
    fn published_core(config: MeshConfig) -> Arc<ComponentCore> {
        let broker = Broker::new(kar_queue::BrokerConfig::default());
        broker.create_topic("topic", 3).unwrap();
        let core = lone_core(config, broker);
        core.membership.publish(|members| {
            members.live.insert(core.id);
            members
                .topology
                .insert(core.id, PartitionSet::contiguous(0, 1));
        });
        core.lanes.start(&core);
        core
    }

    /// Recovery's step 8 for one adopter: `partitions` charged to its
    /// topology entry and handed to its lanes in one publish.
    fn adopt(core: &Arc<ComponentCore>, partitions: Vec<usize>) {
        core.membership.publish(|members| {
            let set = members.topology.get_mut(&core.id).expect("published");
            set.adopt(partitions.iter().copied());
            core.lanes.adopt(core, partitions);
        });
    }

    fn assert_published(core: &ComponentCore) {
        let entry = core
            .membership
            .read(|members| members.topology.get(&core.id).cloned());
        assert_eq!(Some(core.partition_set()), entry);
    }

    #[test]
    fn the_partition_set_is_the_published_entry() {
        // No retention: an adopted range's horizon is its adoption.
        let core = published_core(MeshConfig {
            retention: Duration::ZERO,
            ..MeshConfig::for_tests()
        });
        adopt(&core, vec![1, 2]);
        assert_eq!(core.partition_set().adopted(), [1, 2]);
        assert_published(&core);
        // Both adopted logs are empty: the sweep retires the range.
        core.lanes.sweep_retirement(&core);
        assert_eq!(core.lanes.retired(), [1, 2]);
        assert_eq!(core.lanes.count(), 1);
        assert_eq!(core.partition_set(), PartitionSet::contiguous(0, 1));
        assert_published(&core);
        // An adopter killed during step 8 opens no lane for the range its
        // entry was charged, and reads that entry all the same...
        core.kill();
        adopt(&core, vec![1]);
        assert_eq!(core.partition_set().adopted(), [1]);
        assert_published(&core);
        // ...until its own recovery re-homes its ranges.
        core.membership
            .publish(|members| members.topology.remove(&core.id));
        assert_eq!(core.partition_set(), PartitionSet::contiguous(0, 1));
    }

    #[test]
    fn a_range_fenced_before_its_horizon_leaves_nothing_behind() {
        let core = published_core(MeshConfig::for_tests());
        adopt(&core, vec![1, 2]);
        assert_eq!(core.lanes.count(), 2);
        assert!(core.debug_snapshot().contains("retire_in=[1:"));
        // A later recovery fences the range before its horizon: the next
        // sweep's polls fail, and the lane goes with its last consumer.
        for partition in [1, 2] {
            core.broker.fence_partition("topic", partition).unwrap();
        }
        assert!(!core.pump(&mut None));
        assert_eq!(core.lanes.count(), 1, "back to the home lane");
        let snapshot = core.debug_snapshot();
        assert!(snapshot.contains("retire_in=[]"), "{snapshot}");
        assert_eq!(core.lanes.consumed_offset(1), 0);
        core.lanes.sweep_retirement(&core);
        assert!(core.lanes.retired().is_empty());
    }

    #[test]
    fn a_killed_component_still_answers_what_it_consumed() {
        let core = published_core(MeshConfig::for_tests());
        let response = ResponseMessage::new(RequestId::from_raw(9), None, Ok(Value::Null));
        core.broker
            .admin_append("topic", 0, Envelope::Response(response))
            .unwrap();
        assert!(core.pump(&mut None));
        assert_eq!(core.lanes.consumed_offset(0), 1);
        // A reconciliation that counted it live before the kill reads the
        // offsets it consumed, not an empty table.
        core.kill();
        assert_eq!(core.lanes.consumed_offset(0), 1);
    }

    #[test]
    fn a_failed_retry_copy_hands_its_record_to_the_error_response() {
        use kar_queue::BrokerConfig;
        use kar_types::{FaultInjector, FaultPlan, FaultSite, FaultSpec};

        // Exactly the retry copy's appends fail: the error response behind
        // them goes through.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0).with_budget(u64::from(TRANSIENT_ATTEMPTS)),
        );
        let broker = Broker::new(BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        });
        broker.create_topic("topic", 1).unwrap();
        let core = lone_core(MeshConfig::for_tests(), broker);
        // The caller is this component itself, so the response routes here.
        core.membership.publish(|members| {
            members.live.insert(core.id);
            members
                .topology
                .insert(core.id, PartitionSet::contiguous(0, 1));
        });
        let mut request = RequestMessage::root(
            RequestId::from_raw(1),
            ActorRef::new("Ledger", "a"),
            "m",
            Vec::new(),
        );
        request.reply_to = Some(core.id);
        let policy = RetryPolicy::fixed(3, Duration::from_millis(10)).retry_all_errors();
        request.retry = Some(Box::new(RetryState::fresh(policy, epoch_ms())));
        // Polled from its home partition, and running.
        let polled = Record {
            offset: 0,
            appended_at: Duration::ZERO,
            payload: Arc::new(Envelope::Request(request.clone())),
        };
        core.settle.routed(0, &[polled]);
        assert!(core.ledger.claim(request.id));
        let frame = Frame {
            request: request.into(),
            holds_lock: false,
            reentrant: false,
            image: StateImage::default(),
        };
        if let Step::Next(due, stage) = core.complete(frame, Err(KarError::application("down"))) {
            Arc::clone(&core).invocation_loop(due, stage);
        }
        // No copy landed: the failure settled with the attempt's error...
        assert_eq!(core.retry_orchestration_stats(), (0, 0));
        assert_eq!(core.response_batch_stats(), (1, 1));
        assert_eq!(core.broker.partition_len("topic", 0), 1);
        // ...whose acknowledged response closed the record the attempt was
        // polled from: the partition's trim watermark is not pinned.
        assert_eq!(core.settle_snapshot()[0].open, 0);
    }
}
