//! The application mesh: nodes, components, clients and fault injection.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use kar_queue::{Broker, PartitionSet};
use kar_store::Store;
use kar_types::ids::RequestIdGenerator;
use kar_types::{
    ActorRef, ComponentId, Envelope, KarError, KarResult, NodeId, RequestId, SnapshotVec, Value,
    WaitSignal, WaitSignalGroup,
};

use crate::actor::{Actor, ActorFactory};
use crate::client::Client;
use crate::component::{ComponentCore, DLQ_TOPIC};
use crate::config::MeshConfig;
use crate::faults::{format_fault_stats, retry_transient, TRANSIENT_ATTEMPTS};
use crate::io::DueHeap;
use crate::placement::{component_from_value, host_field, hosts_key, placement_key};
use crate::recovery::{run_recovery_manager, OutageRecord, RecoveryContext, RecoveryLog};
use crate::retry::{
    BreakerPosition, BreakerRegistry, DlqEntry, DlqStats, RetryBudget, RetryMetrics,
};

const TOPIC: &str = "kar";
const GROUP: &str = "kar";

// ----------------------------------------------------------------------
// Reactor pool
// ----------------------------------------------------------------------

/// State shared by the mesh's fixed reactor pool: the registry of pump
/// targets (every component ever added, clients included — their partitions
/// deliver client responses; a sweep walks a snapshot of it, so it allocates
/// nothing) and the mesh-wide wakeup group that every consumer partition,
/// due retry, and continuation timeout notifies.
///
/// The pool is the invocation core's whole thread budget: components own no
/// threads of their own, so adding components or partitions adds pump
/// targets, never threads.
struct ReactorShared {
    registry: SnapshotVec<Arc<ComponentCore>>,
    /// The single wakeup primitive: queue appends (via each consumer's
    /// broker-side group membership), due retries, and timeout flags all
    /// notify here; idle reactors park on it.
    group: Arc<WaitSignalGroup>,
    /// The mesh-wide due-time heap: invocations waiting for a modelled I/O
    /// (see [`crate::io`]). Drained at the top of every sweep; its earliest
    /// entry bounds an idle reactor's park.
    io: Arc<DueHeap>,
    /// Dedicated timer parking signal. The timer must *not* park on `group`
    /// — traffic would wake it far more often than its tick interval — but
    /// it must still be promptly interruptible at shutdown.
    timer_signal: WaitSignal,
    shutdown: AtomicBool,
    /// Mono timestamp anchoring `last_tick_ms`.
    started: Duration,
    /// The component tick cadence, so reactors can tell when the timer lane
    /// has fallen behind it.
    tick_interval: Duration,
    /// Milliseconds (since `started`) at which the last tick sweep finished.
    last_tick_ms: AtomicU64,
    /// Exclusive tick-sweep lock: the timer thread holds it for each sweep;
    /// reactors `try_lock` it to rescue-run overdue ticks.
    tick_lock: Mutex<()>,
}

impl ReactorShared {
    /// Runs one exclusive tick sweep over every registered component and
    /// stamps its completion time. The timer thread passes `blocking = true`
    /// (it always sweeps); rescuing reactors pass `false` and yield when a
    /// sweep is already in progress, and leave placement releases to the
    /// timer.
    fn run_tick(&self, blocking: bool) -> bool {
        let guard = if blocking {
            Some(self.tick_lock.lock())
        } else {
            self.tick_lock.try_lock()
        };
        let Some(_guard) = guard else { return false };
        let components = self.registry.load();
        let now = kar_types::mono_now();
        for core in components.iter() {
            core.tick(now, blocking);
        }
        self.last_tick_ms.store(
            kar_types::mono_now()
                .saturating_sub(self.started)
                .as_millis() as u64,
            Ordering::Relaxed,
        );
        true
    }

    /// True when the last tick sweep is at least two intervals stale. Under
    /// compressed clocks the tick interval is ~1ms while a single sweep
    /// (heartbeats, retirement, passivation) can take far longer or the one
    /// timer thread can simply be descheduled — either way heartbeats and
    /// continuation deadlines starve unless a reactor rescues the lane.
    fn tick_overdue(&self) -> bool {
        let last = self.last_tick_ms.load(Ordering::Relaxed);
        let now = kar_types::mono_now()
            .saturating_sub(self.started)
            .as_millis() as u64;
        now.saturating_sub(last) >= 2 * (self.tick_interval.as_millis() as u64).max(1)
    }

    /// One sweep of the whole pool's work: resume the parked stages whose
    /// due time has come, then pump every registered component. Returns
    /// whether anything was done, and lowers `wake_at` to the earliest
    /// instant a queued record becomes readable without a further append.
    fn sweep(&self, wake_at: &mut Option<Duration>) -> bool {
        let mut did = self.io.run_due();
        let components = self.registry.load();
        for core in components.iter() {
            did |= core.pump(wake_at);
        }
        did
    }
}

/// The longest an idle reactor parks before sweeping again unprompted.
const IDLE_SLICE: Duration = Duration::from_millis(2);

/// Body of one reactor thread: sweep every registered component, park on the
/// shared wakeup group when a full sweep finds nothing.
fn reactor_loop(shared: Arc<ReactorShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let seen = shared.group.current();
        let mut wake_at = None;
        let mut did = shared.sweep(&mut wake_at);
        if shared.tick_overdue() {
            did |= shared.run_tick(false);
        }
        if !did {
            // Nothing to do now: park until somebody notifies the group, but
            // no longer than until the next modelled I/O completes — a
            // parked stage's due time, or a queued record's visibility,
            // which nothing will announce. A wait for that instant wakes on
            // it (`wait_until` yields its last `SPIN_MARGIN`); the idle
            // slice is a plain timeout.
            let next_due = match (shared.io.next_due(), wake_at) {
                (Some(stage), Some(record)) => Some(stage.min(record)),
                (stage, record) => stage.or(record),
            };
            match next_due {
                Some(due) if due < kar_types::mono_now() + IDLE_SLICE => {
                    shared.group.wait_until(seen, due);
                }
                _ => shared.group.wait(seen, IDLE_SLICE),
            }
        }
    }
}

/// Body of the single timer thread: heartbeats, retry-bookkeeping aging,
/// continuation deadlines, partition retirement and passivation all ride
/// this one clock. App code never runs here — an expired continuation is
/// parked on the due-time heap, and a reactor resumes it.
fn timer_loop(shared: Arc<ReactorShared>, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.run_tick(true);
        let seen = shared.timer_signal.current();
        shared.timer_signal.wait(seen, interval);
    }
}

/// Declares the actor types hosted by a component being added to the mesh.
#[derive(Default)]
pub struct ComponentBuilder {
    hosted: HashMap<String, ActorFactory>,
}

impl ComponentBuilder {
    /// Announces that the component hosts `actor_type`, instantiated by
    /// `factory`.
    #[must_use]
    pub fn host<F>(mut self, actor_type: &str, factory: F) -> Self
    where
        F: Fn() -> Box<dyn Actor> + Send + Sync + 'static,
    {
        self.hosted.insert(actor_type.to_owned(), Arc::new(factory));
        self
    }
}

struct MeshInner {
    config: MeshConfig,
    broker: Broker<Envelope>,
    store: Store,
    /// The gray-failure injector (if armed), shared by both substrates so
    /// one seed drives one schedule and one set of counters.
    faults: Option<Arc<kar_types::FaultInjector>>,
    ids: Arc<RequestIdGenerator>,
    next_component: AtomicU64,
    next_node: AtomicU64,
    /// Next unallocated partition index of the mesh topic: each new
    /// component takes the next contiguous range of
    /// `MeshConfig::partitions_per_component` partitions as its home set.
    /// Indices are never reused; a dead component's range is adopted by
    /// survivors during reconciliation.
    next_partition: AtomicUsize,
    topology: Arc<RwLock<HashMap<ComponentId, PartitionSet>>>,
    components: Arc<RwLock<HashMap<ComponentId, Arc<ComponentCore>>>>,
    nodes: Arc<RwLock<HashMap<NodeId, Vec<ComponentId>>>>,
    live: Arc<RwLock<HashSet<ComponentId>>>,
    kill_times: Arc<Mutex<HashMap<ComponentId, Duration>>>,
    recovery: Arc<RecoveryLog>,
    orphans: Arc<Mutex<Vec<kar_types::RequestMessage>>>,
    /// The mesh-wide retry budget (token bucket), shared by every component.
    budget: Arc<RetryBudget>,
    /// The mesh-wide per-actor-type circuit breakers.
    breakers: Arc<BreakerRegistry>,
    shutdown: Arc<AtomicBool>,
    reactors: Arc<ReactorShared>,
    /// Reactor + timer thread handles, joined at shutdown.
    runtime_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running KAR application mesh.
///
/// The mesh owns the two substrates (reliable queue broker and persistent
/// store), hosts virtual nodes and their application components, provides
/// [`Client`]s for non-actor code, and exposes the fault-injection hooks used
/// by the paper's experiments (§6.1): killing a component or a whole node and
/// adding replacement components.
///
/// Cloning a `Mesh` returns another handle to the same application.
#[derive(Clone)]
pub struct Mesh {
    inner: Arc<MeshInner>,
}

impl Mesh {
    /// Starts an empty mesh.
    ///
    /// With [`MeshConfig::sim_seed`] armed the mesh starts in deterministic
    /// simulation mode: a virtual clock replaces every wall-clock read, no
    /// runtime threads are spawned, and the calling thread's seeded
    /// [`kar_types::SimScheduler`] (installed thread-locally here) owns
    /// every runnable lane. Blocking mesh APIs (`Client::call`,
    /// `wait_for_recoveries`, …) drive the scheduler instead of parking, so
    /// the whole execution is a pure function of `(seed, config)`.
    pub fn new(config: MeshConfig) -> Self {
        // Simulation mode: install the virtual clock FIRST, so the broker,
        // store and reactor clocks below all anchor to virtual time zero.
        let sim = config.sim_seed.map(|seed| {
            let clock = Arc::new(kar_types::VirtualClock::new());
            kar_types::install_virtual_clock(Arc::clone(&clock));
            std::rc::Rc::new(kar_types::SimScheduler::new(
                seed,
                clock,
                Duration::from_millis(1),
            ))
        });
        // One injector serves both substrates: store shards and broker
        // partitions draw from the same seeded schedule, and `fault_stats`
        // reads one counter set.
        let faults = config
            .fault_plan
            .as_ref()
            .filter(|plan| !plan.is_empty())
            .map(|plan| Arc::new(kar_types::FaultInjector::new(plan.clone())));
        let mut broker_config = config.broker_config();
        broker_config.faults = faults.clone();
        let coordinator_interval = broker_config.coordinator_interval;
        let broker: Broker<Envelope> = Broker::new(broker_config);
        if sim.is_none() {
            broker.spawn_coordinator();
        }
        let mut store_config = config.store_config();
        store_config.faults = faults.clone();
        let store = Store::with_config(store_config);
        broker
            .ensure_partitions(TOPIC, 1)
            .expect("topic creation cannot fail");
        broker
            .ensure_partitions(DLQ_TOPIC, 1)
            .expect("topic creation cannot fail");
        let tick = config
            .scaled_heartbeat_interval()
            .max(Duration::from_millis(1));
        let group = Arc::new(WaitSignalGroup::new());
        let reactors = Arc::new(ReactorShared {
            registry: SnapshotVec::new(),
            io: Arc::new(DueHeap::new(Arc::clone(&group))),
            group,
            timer_signal: WaitSignal::new(),
            shutdown: AtomicBool::new(false),
            started: kar_types::mono_now(),
            tick_interval: tick,
            last_tick_ms: AtomicU64::new(0),
            tick_lock: Mutex::new(()),
        });
        let reactor_count = config.effective_reactor_threads();
        let mut runtime_threads = Vec::with_capacity(reactor_count + 1);
        if sim.is_none() {
            for i in 0..reactor_count {
                let shared = Arc::clone(&reactors);
                runtime_threads.push(
                    std::thread::Builder::new()
                        .name(format!("kar-reactor-{i}"))
                        .spawn(move || reactor_loop(shared))
                        .expect("failed to spawn reactor"),
                );
            }
            let shared = Arc::clone(&reactors);
            runtime_threads.push(
                std::thread::Builder::new()
                    .name("kar-timer".to_owned())
                    .spawn(move || timer_loop(shared, tick))
                    .expect("failed to spawn timer"),
            );
        }
        let budget = Arc::new(RetryBudget::new(
            config.retry_budget_rate,
            config.retry_budget_burst,
        ));
        let breakers = Arc::new(BreakerRegistry::new(config.circuit_breaker.clone()));
        let inner = Arc::new(MeshInner {
            config,
            broker: broker.clone(),
            store,
            faults,
            ids: Arc::new(RequestIdGenerator::new()),
            next_component: AtomicU64::new(1),
            next_node: AtomicU64::new(1),
            next_partition: AtomicUsize::new(0),
            topology: Arc::new(RwLock::new(HashMap::new())),
            components: Arc::new(RwLock::new(HashMap::new())),
            nodes: Arc::new(RwLock::new(HashMap::new())),
            live: Arc::new(RwLock::new(HashSet::new())),
            kill_times: Arc::new(Mutex::new(HashMap::new())),
            recovery: Arc::new(RecoveryLog::new()),
            orphans: Arc::new(Mutex::new(Vec::new())),
            budget,
            breakers,
            shutdown: Arc::new(AtomicBool::new(false)),
            reactors,
            runtime_threads: Mutex::new(runtime_threads),
        });
        let ctx = RecoveryContext {
            config: inner.config.clone(),
            topic: TOPIC.to_owned(),
            group: GROUP.to_owned(),
            broker: inner.broker.clone(),
            store: inner.store.clone(),
            topology: inner.topology.clone(),
            components: inner.components.clone(),
            live: inner.live.clone(),
            kill_times: inner.kill_times.clone(),
            log: inner.recovery.clone(),
            orphans: inner.orphans.clone(),
            shutdown: inner.shutdown.clone(),
        };
        let events = broker.subscribe(GROUP);
        match sim {
            None => {
                std::thread::Builder::new()
                    .name("kar-recovery-manager".to_owned())
                    .spawn(move || run_recovery_manager(ctx, events))
                    .expect("failed to spawn recovery manager");
            }
            Some(sim) => {
                // Every runnable lane of the threaded runtime, re-registered
                // on the seeded scheduler in a FIXED order (lane indices are
                // part of the deterministic schedule). Each lane returns
                // whether it made progress; when none does, the scheduler
                // advances the virtual clock by one idle quantum.
                let shared = Arc::clone(&inner.reactors);
                sim.add_lane("reactor", move || shared.sweep(&mut None));
                let shared = Arc::clone(&inner.reactors);
                let next_tick = std::cell::Cell::new(Duration::ZERO);
                sim.add_lane("timer", move || {
                    let now = kar_types::mono_now();
                    if now < next_tick.get() {
                        return false;
                    }
                    next_tick.set(now + shared.tick_interval);
                    shared.run_tick(true)
                });
                let broker = inner.broker.clone();
                let next_tick = std::cell::Cell::new(Duration::ZERO);
                sim.add_lane("coordinator", move || {
                    let now = kar_types::mono_now();
                    if now < next_tick.get() {
                        return false;
                    }
                    next_tick.set(now + coordinator_interval.max(Duration::from_millis(1)));
                    broker.tick();
                    true
                });
                let detections = std::cell::RefCell::new(HashMap::<ComponentId, Duration>::new());
                sim.add_lane("recovery", move || {
                    let mut did = false;
                    while let Ok(event) = events.try_recv() {
                        crate::recovery::handle_group_event(
                            &ctx,
                            &mut detections.borrow_mut(),
                            event,
                        );
                        did = true;
                    }
                    did
                });
                kar_types::sim::install(sim);
            }
        }
        Mesh { inner }
    }

    /// The mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.inner.config
    }

    /// Adds a virtual node to the mesh. Nodes group components that fail
    /// together under [`Mesh::kill_node`].
    pub fn add_node(&self) -> NodeId {
        let id = NodeId::from_raw(self.inner.next_node.fetch_add(1, Ordering::SeqCst));
        self.inner.nodes.write().insert(id, Vec::new());
        id
    }

    /// Adds an application component (paired application + sidecar) to
    /// `node`, hosting the actor types declared by `build`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not created by [`Mesh::add_node`].
    pub fn add_component(
        &self,
        node: NodeId,
        name: &str,
        build: impl FnOnce(ComponentBuilder) -> ComponentBuilder,
    ) -> ComponentId {
        let builder = build(ComponentBuilder::default());
        self.add_component_inner(node, name, builder.hosted)
    }

    /// Creates a client component hosting no actors, used by non-actor code
    /// to invoke the application. The client participates in the consumer
    /// group (so responses reach it) but is never targeted by fault
    /// injection helpers.
    pub fn client(&self) -> Client {
        let node = self.add_node();
        let id = self.add_component_inner(node, "client", HashMap::new());
        let core = self
            .inner
            .components
            .read()
            .get(&id)
            .cloned()
            .expect("client just added");
        Client::new(core)
    }

    fn add_component_inner(
        &self,
        node: NodeId,
        name: &str,
        hosted: HashMap<String, ActorFactory>,
    ) -> ComponentId {
        assert!(
            self.inner.nodes.read().contains_key(&node),
            "unknown node {node}; create it with Mesh::add_node first"
        );
        let raw = self.inner.next_component.fetch_add(1, Ordering::SeqCst);
        let id = ComponentId::from_raw(raw);
        // Allocate the next contiguous home partition range and register it
        // in the broker's assignment table and the mesh topology.
        let count = self.inner.config.effective_partitions_per_component();
        let start = self.inner.next_partition.fetch_add(count, Ordering::SeqCst);
        let partitions = PartitionSet::contiguous(start, count);
        self.inner
            .broker
            .assign_partitions(TOPIC, id, partitions.clone())
            .expect("growing the topic cannot fail");
        self.inner.topology.write().insert(id, partitions.clone());
        // Announce hosted actor types before joining, so placement can find
        // this component as soon as it is live. Fault-free on purpose: an
        // announcement is mesh bookkeeping, not a runtime store command.
        for actor_type in hosted.keys() {
            self.inner.store.admin_hset(
                &hosts_key(actor_type),
                &host_field(id),
                kar_types::Value::Int(1),
            );
        }
        let core = Arc::new(ComponentCore::new(
            id,
            node,
            format!("{name}-{raw}"),
            self.inner.config.clone(),
            TOPIC.to_owned(),
            GROUP.to_owned(),
            partitions.clone(),
            self.inner.broker.clone(),
            self.inner.store.clone(),
            self.inner.topology.clone(),
            self.inner.live.clone(),
            self.inner.ids.clone(),
            hosted,
            Arc::clone(&self.inner.reactors.io),
            Arc::clone(&self.inner.budget),
            Arc::clone(&self.inner.breakers),
            self.inner.faults.clone(),
        ));
        self.inner.components.write().insert(id, core.clone());
        self.inner.nodes.write().entry(node).or_default().push(id);
        self.inner.live.write().insert(id);
        self.inner.broker.join_group(GROUP, id, partitions);
        core.start();
        // Hand the component to the fixed reactor pool (clients included —
        // their partitions deliver client responses) and wake the pool so it
        // picks up the new lanes immediately.
        self.inner.reactors.registry.update(|list| list.push(core));
        self.inner.reactors.group.notify();
        id
    }

    // ------------------------------------------------------------------
    // Deterministic simulation
    // ------------------------------------------------------------------

    /// True when this mesh runs in deterministic simulation mode (built
    /// from [`MeshConfig::deterministic`]).
    pub fn is_simulated(&self) -> bool {
        self.inner.config.sim_seed.is_some()
    }

    /// Runs `steps` scheduler steps. Simulation mode only (panics
    /// otherwise — stepping a threaded mesh is meaningless).
    pub fn sim_steps(&self, steps: u64) {
        let scheduler = kar_types::sim::current()
            .expect("sim_steps requires a mesh built with MeshConfig::deterministic");
        for _ in 0..steps {
            scheduler.step();
        }
    }

    /// Drives the simulation until `pred` returns true or `max_steps`
    /// scheduler steps have run; returns whether the predicate was reached.
    pub fn sim_run_until(&self, pred: impl Fn() -> bool, max_steps: u64) -> bool {
        let scheduler = kar_types::sim::current()
            .expect("sim_run_until requires a mesh built with MeshConfig::deterministic");
        for _ in 0..max_steps {
            if pred() {
                return true;
            }
            scheduler.step();
        }
        pred()
    }

    /// Drains the simulation's execution trace (the byte-exact schedule:
    /// one line per productive lane run, scheduled event, and recorded
    /// mesh event). Two runs of the same `(seed, config, workload)` produce
    /// identical traces.
    pub fn sim_take_trace(&self) -> Vec<String> {
        kar_types::sim::current()
            .map(|s| s.take_trace())
            .unwrap_or_default()
    }

    /// The simulation's step counter (0 outside simulation mode).
    pub fn sim_step_count(&self) -> u64 {
        kar_types::sim::current().map(|s| s.steps()).unwrap_or(0)
    }

    /// Schedules `component` to be killed once the simulation reaches
    /// `at_step` — the schedule-perturbation axis the explorer sweeps: the
    /// same workload with the kill planted one step later explores a
    /// different interleaving of failure against progress.
    pub fn sim_schedule_kill(&self, at_step: u64, component: ComponentId) {
        let scheduler = kar_types::sim::current()
            .expect("sim_schedule_kill requires a mesh built with MeshConfig::deterministic");
        let mesh = self.clone();
        scheduler.schedule_at(at_step, format!("kill:{component}"), move || {
            mesh.kill_component(component);
        });
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Abruptly terminates one component: its in-memory state is lost, its
    /// threads stop at their next runtime interaction, and it is fenced from
    /// both substrates. Queue contents and persisted actor state survive.
    pub fn kill_component(&self, id: ComponentId) {
        if kar_types::sim::active() {
            kar_types::sim::record(format!("kill:{id}"));
        }
        let now = self.inner.broker.now();
        self.inner.kill_times.lock().insert(id, now);
        if let Some(core) = self.inner.components.read().get(&id) {
            core.kill();
        }
        // A killed OS process can no longer reach the substrates at all;
        // fencing here emulates that, independently of failure *detection*
        // which still takes a full session timeout.
        self.inner.broker.fence(id);
        self.inner.store.fence(id);
    }

    /// Abruptly terminates every component on `node` (the paper's
    /// experiments hard-stop a randomly selected victim node, §6.1).
    pub fn kill_node(&self, node: NodeId) {
        let victims: Vec<ComponentId> = self
            .inner
            .nodes
            .read()
            .get(&node)
            .cloned()
            .unwrap_or_default();
        for component in victims {
            if self.is_live(component) {
                self.kill_component(component);
            }
        }
    }

    /// True if `component` has not been killed and has not been removed from
    /// the group.
    pub fn is_live(&self, component: ComponentId) -> bool {
        self.with_core(component, ComponentCore::is_alive) == Some(true)
    }

    /// `read` applied to one component's core, under the component table's
    /// read lock (`None` for unknown components).
    fn with_core<R>(
        &self,
        component: ComponentId,
        read: impl FnOnce(&ComponentCore) -> R,
    ) -> Option<R> {
        self.inner
            .components
            .read()
            .get(&component)
            .map(|core| read(core))
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Every component ever added to the mesh (alive or dead), sorted by
    /// id. Dead components keep answering introspection queries — their
    /// retirement logs reconstruct where re-homed partitions went even after
    /// the adopter itself died.
    pub fn all_components(&self) -> Vec<ComponentId> {
        let mut ids: Vec<ComponentId> = self.inner.components.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// The components currently alive, sorted by id.
    pub fn live_components(&self) -> Vec<ComponentId> {
        let components = self.inner.components.read();
        let mut live: Vec<ComponentId> = components
            .iter()
            .filter(|(_, c)| c.is_alive())
            .map(|(id, _)| *id)
            .collect();
        live.sort();
        live
    }

    /// The components assigned to `node` (alive or not).
    pub fn components_on(&self, node: NodeId) -> Vec<ComponentId> {
        self.inner
            .nodes
            .read()
            .get(&node)
            .cloned()
            .unwrap_or_default()
    }

    /// The nodes of the mesh, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.inner.nodes.read().keys().copied().collect();
        nodes.sort();
        nodes
    }

    /// Requests admitted from each home partition of one component, in home
    /// order (`None` for unknown components). Each home partition has one
    /// consumer lane, so the max/mean spread of this vector is the lanes'
    /// load imbalance.
    pub fn shard_loads(&self, component: ComponentId) -> Option<Vec<u64>> {
        self.with_core(component, |core| core.shard_loads())
    }

    /// Always `Some(0)`: nothing steals work. Kept only because the frozen
    /// benchmark under `bench/` still reads it.
    pub fn steal_count(&self, _component: ComponentId) -> Option<u64> {
        Some(0)
    }

    /// Number of one component's resident actors whose state image is
    /// loaded in memory.
    pub fn cached_state_count(&self, component: ComponentId) -> Option<usize> {
        self.with_core(component, |core| core.resident.loaded_images())
    }

    /// The partition set one component currently consumes: its stable home
    /// range plus any partition ranges adopted from failed components
    /// (`None` for unknown components).
    pub fn partition_set(&self, component: ComponentId) -> Option<PartitionSet> {
        self.with_core(component, |core| core.partition_set())
    }

    /// Number of live consumer *lanes* of one component: its home-partition
    /// lanes, plus one per adopted range until retirement drops it. Lanes
    /// are pump targets of the shared reactor pool, not threads — the name
    /// `consumer_threads` is kept for continuity with the pre-reactor
    /// introspection surface.
    pub fn consumer_threads(&self, component: ComponentId) -> Option<usize> {
        self.with_core(component, |core| core.consumer_thread_count())
    }

    /// Size of the fixed reactor pool driving every component (the timer
    /// thread is not counted). Constant for the life of the mesh, whatever
    /// the topology grows to.
    pub fn reactor_thread_count(&self) -> usize {
        self.inner.config.effective_reactor_threads()
    }

    /// Number of continuations one component currently holds parked for
    /// nested responses.
    pub fn parked_continuations(&self, component: ComponentId) -> Option<usize> {
        self.with_core(component, |core| core.ledger.continuations().0)
    }

    /// Total number of continuation parks one component has performed: each
    /// one is a nested call that did *not* block a thread.
    pub fn continuation_parks(&self, component: ComponentId) -> Option<u64> {
        self.with_core(component, |core| core.ledger.continuations().1)
    }

    /// `(requests sent, produce rounds acknowledged)` on one component's
    /// request leg: a partition queue's run that carries tells is one round.
    pub fn request_batch_stats(&self, component: ComponentId) -> Option<(u64, u64)> {
        self.with_core(component, |core| core.request_batch_stats())
    }

    /// The adopted partitions one component has retired (fenced, dropped
    /// from their consumer's wait group, removed from its partition set).
    /// Answered for dead components too: chaos tests reconstruct where a
    /// re-homed partition ended up even when its adopter later died.
    pub fn retired_partitions(&self, component: ComponentId) -> Option<Vec<usize>> {
        self.with_core(component, |core| core.retired_partitions())
    }

    /// `(completions enqueued, runs carrying completions acknowledged)` by
    /// one component's partition batcher.
    pub fn response_batch_stats(&self, component: ComponentId) -> Option<(u64, u64)> {
        self.with_core(component, |core| core.response_batch_stats())
    }

    /// Number of loaded state images one component's idle sweep has dropped
    /// with their passivated actors.
    pub fn state_cache_evictions(&self, component: ComponentId) -> Option<u64> {
        self.with_core(component, |core| core.state_cache_evictions())
    }

    /// Placement-cache hit/miss/invalidation counters of one component.
    pub fn placement_counters(
        &self,
        component: ComponentId,
    ) -> Option<crate::placement::PlacementCounters> {
        self.with_core(component, |core| core.placement_counters())
    }

    /// Sizes of one component's aged retry-bookkeeping sets: (completed
    /// ids, seen response ids), each a request-id bitmap on the doubled
    /// retention clock, both in its request ledger under the one ledger
    /// lock. Both empty once two bookkeeping intervals pass with no traffic
    /// (`retry_orchestration::retry_bookkeeping_empties_after_two_intervals`).
    pub fn retry_bookkeeping_len(&self, component: ComponentId) -> Option<(usize, usize)> {
        self.with_core(component, |core| core.ledger.bookkeeping_len())
    }

    /// Number of resident (activated, in-memory) actors on one component.
    pub fn resident_actors(&self, component: ComponentId) -> Option<usize> {
        self.with_core(component, |core| core.resident.count())
    }

    /// The placement invariant, checked: one line per resident actor of a
    /// live component whose store record does not name that component.
    /// Empty while every resident actor's record names its host, so no
    /// second component can place it.
    pub fn misplaced_residents(&self) -> Vec<String> {
        let live: Vec<Arc<ComponentCore>> = self
            .inner
            .components
            .read()
            .values()
            .filter(|core| core.is_alive())
            .cloned()
            .collect();
        let mut misplaced = Vec::new();
        for core in live {
            for actor in core.resident.actors() {
                let record = self.inner.store.admin_get(&placement_key(&actor));
                if record.as_ref().and_then(component_from_value) != Some(core.id()) {
                    misplaced.push(format!(
                        "{actor} is resident on {} but its placement record is {record:?}",
                        core.id()
                    ));
                }
            }
        }
        misplaced.sort();
        misplaced
    }

    /// One component's `(passivations, rehydrations, admission deferrals)`
    /// counters.
    pub fn passivation_stats(&self, component: ComponentId) -> Option<(u64, u64, u64)> {
        self.with_core(component, |core| core.passivation_stats())
    }

    /// Requests currently mailboxed behind busy actors on one component.
    pub fn mailboxed_requests(&self, component: ComponentId) -> Option<usize> {
        self.with_core(component, |core| core.resident.mailboxed())
    }

    // ------------------------------------------------------------------
    // Retry orchestration
    // ------------------------------------------------------------------

    /// Mesh-wide retry-orchestration counters: retries scheduled and
    /// invocations dead-lettered (summed over every component), the retry
    /// budget's admitted/shed counts, and the circuit breakers' fast-fail
    /// and open-transition counts.
    pub fn retry_metrics(&self) -> RetryMetrics {
        let (mut scheduled, mut dead_lettered) = (0, 0);
        for core in self.inner.components.read().values() {
            let (s, d) = core.retry_orchestration_stats();
            scheduled += s;
            dead_lettered += d;
        }
        let (admitted, shed) = self.inner.budget.stats();
        let (breaker_fast_fails, breaker_opened) = self.inner.breakers.stats();
        RetryMetrics {
            scheduled,
            admitted,
            shed,
            breaker_fast_fails,
            breaker_opened,
            dead_lettered,
        }
    }

    /// The current position of `actor_type`'s circuit breaker (trivially
    /// [`BreakerPosition::Closed`] when breakers are disabled or the type
    /// has no recorded outcomes yet).
    pub fn breaker_position(&self, actor_type: &str) -> BreakerPosition {
        self.inner.breakers.position(actor_type)
    }

    /// Number of scheduled retries one component currently holds parked on
    /// their backoff deadlines (`None` for unknown components).
    pub fn delayed_retries(&self, component: ComponentId) -> Option<usize> {
        self.with_core(component, |core| core.delayed_retries())
    }

    /// Every dead-lettered invocation, decoded from the durable DLQ store
    /// index (which, unlike the provenance topic, outlives queue retention),
    /// oldest first.
    pub fn dlq_stats(&self) -> DlqStats {
        let store = &self.inner.store;
        let mut entries: Vec<DlqEntry> = store
            .admin_keys_with_prefix("dlq/entry/")
            .into_iter()
            .filter_map(|key| {
                let id = key.strip_prefix("dlq/entry/")?.parse::<u64>().ok()?;
                decode_dlq_entry(id, &store.admin_get(&key)?)
            })
            .collect();
        entries.sort_by_key(|entry| (entry.dead_lettered_ms, entry.id));
        DlqStats { entries }
    }

    /// Re-injects one dead-lettered invocation as a fresh asynchronous
    /// request through ordinary placement — exactly once per dead-lettered
    /// id: the first call consumes the DLQ index entry and returns
    /// `Ok(true)`; later calls, and unknown ids, return `Ok(false)`.
    ///
    /// The claim is a compare-and-delete protocol built to survive gray
    /// failures on the admin store path: the caller first plants a unique
    /// claim marker with `set_nx`, and an indeterminate ack on that write is
    /// resolved by reading the marker back — if it carries this caller's
    /// token the claim applied despite the reported failure. Only the claim
    /// winner deletes the index entry and re-injects, so concurrent callers
    /// racing the same id still observe `true` exactly once.
    ///
    /// Claim markers carry a lease
    /// ([`MeshConfig::dlq_claim_lease`](crate::MeshConfig)): a claimer that
    /// dies holding the claim leaves a marker other callers may take over
    /// once the lease expires, so the entry stays reachable instead of being
    /// stranded behind a dead claimer. Takeover uses compare-and-delete on
    /// the exact stale marker, keeping the claim single-winner even when
    /// several reclaimers race the same expired lease.
    ///
    /// # Errors
    ///
    /// Fails (leaving the entry in the DLQ, claimable again) if the index
    /// record is malformed, no live component exists to re-inject through,
    /// the store stays unreachable past the bounded transient retries, or
    /// the enqueue itself fails.
    pub fn dlq_retry(&self, id: RequestId) -> KarResult<bool> {
        let key = format!("dlq/entry/{}", id.as_u64());
        let claim_key = format!("dlq/claim/{}", id.as_u64());
        let store = &self.inner.store;
        // The read is a cheap pre-check: a consumed entry (or unknown id)
        // bails before planting any claim state.
        let Some(record) = retry_transient(TRANSIENT_ATTEMPTS, || store.admin_get_checked(&key))?
        else {
            return Ok(false);
        };
        // The token embeds a lease deadline so a claimer that dies between
        // planting the marker and restoring/releasing does not strand the
        // entry forever: after the lease expires the marker is reclaimable
        // (compare-and-delete keeps the takeover single-winner). A zero
        // lease disables expiry.
        let lease = self.inner.config.dlq_claim_lease;
        let now_ms = kar_types::epoch_ms();
        let expiry_ms = if lease.is_zero() {
            0
        } else {
            now_ms.saturating_add(lease.as_millis() as u64)
        };
        let token = crate::faults::claim_token(self.inner.ids.fresh().as_u64(), expiry_ms);
        if !crate::faults::claim_marker_leased(store, &claim_key, &token, now_ms)? {
            return Ok(false);
        }
        // From here this caller owns the entry; every failure path must
        // restore it and release the claim before surfacing the error.
        let restore = |store: &Store| {
            let _ = retry_transient(TRANSIENT_ATTEMPTS, || {
                store.admin_set_checked(&key, record.clone())
            });
            let _ = retry_transient(TRANSIENT_ATTEMPTS, || store.admin_del_checked(&claim_key));
        };
        // Deleting the already-claimed entry is idempotent: an ack-lost
        // delete replays to `None`, which is fine — the record in hand is
        // authoritative.
        retry_transient(TRANSIENT_ATTEMPTS, || store.admin_del_checked(&key))?;
        let args = match &record {
            Value::Map(map) => match map.get("args") {
                Some(Value::List(args)) => args.clone(),
                _ => Vec::new(),
            },
            _ => Vec::new(),
        };
        let Some(entry) = decode_dlq_entry(id.as_u64(), &record) else {
            restore(store);
            return Err(KarError::application(format!(
                "malformed DLQ index entry for request {}",
                id.as_u64()
            )));
        };
        let core = self
            .inner
            .components
            .read()
            .values()
            .find(|core| core.is_alive())
            .cloned();
        let Some(core) = core else {
            restore(store);
            return Err(KarError::application(
                "no live component to re-inject the dead-lettered request through",
            ));
        };
        match core.external_tell(&entry.target, &entry.method, args) {
            Ok(()) => {
                // Release the marker; the entry is gone, so later calls
                // return `false` at the pre-check.
                let _ = retry_transient(TRANSIENT_ATTEMPTS, || store.admin_del_checked(&claim_key));
                Ok(true)
            }
            Err(error) => {
                restore(store);
                Err(error)
            }
        }
    }

    /// Human-readable snapshot of every component's dispatch/actor state
    /// plus the queue backlog, for debugging stuck requests.
    pub fn debug_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "reactor pool: threads={} registered_components={}",
            self.reactor_thread_count(),
            self.inner.reactors.registry.load().len(),
        );
        // Modelled I/O in flight: invocations parked on a due time instead
        // of asleep on a reactor. `parked_max` above one means acks
        // overlapped; all-`inline` means no latency is modelled.
        let io = self.inner.reactors.io.stats();
        let _ = writeln!(
            out,
            "io: parked={} parked_max={} resumed={} inline={}",
            io.parked, io.parked_max, io.resumed, io.inline,
        );
        let components = self.inner.components.read().clone();
        let mut ids: Vec<ComponentId> = components.keys().copied().collect();
        ids.sort();
        for id in ids {
            let core = &components[&id];
            out.push_str(&core.debug_snapshot());
            let _ = writeln!(
                out,
                "  cached actor states: {} (evicted: {})",
                core.resident.loaded_images(),
                core.state_cache_evictions()
            );
            let (retries_scheduled, dead_lettered) = core.retry_orchestration_stats();
            let _ = writeln!(
                out,
                "  retry orchestration: scheduled={retries_scheduled} \
                 dead_lettered={dead_lettered} delayed={}",
                core.delayed_retries(),
            );
            let _ = writeln!(out, "  poll faults survived: {}", core.poll_fault_count());
            // Why is this log (not) shrinking: a home partition trims up to
            // its lowest open record; adopted partitions are never trimmed.
            if let Some(set) = self.inner.topology.read().get(&id) {
                let settled = core.settle_snapshot();
                for partition in set.all() {
                    let _ = write!(
                        out,
                        "  queue partition {partition}: log_start={} end={} len={} \
                         busy_until={:.3?} visible_end={}",
                        self.inner.broker.log_start(TOPIC, partition),
                        self.inner.broker.end_offset(TOPIC, partition),
                        self.inner.broker.partition_len(TOPIC, partition),
                        self.inner.broker.busy_until(TOPIC, partition),
                        self.inner.broker.visible_end(TOPIC, partition),
                    );
                    let _ = match settled.iter().find(|s| s.partition == partition) {
                        Some(s) => writeln!(out, " open={} trimmed={}", s.open, s.trimmed),
                        None => writeln!(out, " adopted (time retention only)"),
                    };
                }
            }
        }
        // The state plane: per-shard contention plus pipeline batch shape.
        let stats = self.inner.store.stats();
        let contention: Vec<String> = self
            .inner
            .store
            .shard_contention()
            .into_iter()
            .map(|c| c.to_string())
            .collect();
        let _ = writeln!(
            out,
            "store: reads={} writes={} cas={} round_trips={} pipeline_flushes={} \
             mean_pipeline_batch={:.1} shards={} contention=[{}]",
            stats.reads,
            stats.writes,
            stats.cas,
            stats.round_trips,
            stats.pipeline_flushes,
            stats.mean_pipeline_batch(),
            self.inner.store.shard_count(),
            contention.join(", "),
        );
        // The retry plane: budget pressure, breaker positions, DLQ size.
        let metrics = self.retry_metrics();
        let _ = writeln!(
            out,
            "retry orchestration: scheduled={} admitted={} shed={} \
             breaker_fast_fails={} breaker_opened={} dead_lettered={} dlq_entries={}",
            metrics.scheduled,
            metrics.admitted,
            metrics.shed,
            metrics.breaker_fast_fails,
            metrics.breaker_opened,
            metrics.dead_lettered,
            self.dlq_stats().total(),
        );
        for (actor_type, position) in self.inner.breakers.snapshot() {
            let _ = writeln!(out, "  breaker {actor_type}: {}", position.as_str());
        }
        // The fault plane (only when armed): what the injector actually did.
        if let Some(counters) = self.fault_stats() {
            out.push_str(&format_fault_stats(&counters));
        }
        out
    }

    /// Snapshot of the gray-failure injection counters: per-site draws and
    /// injected faults plus brownout surcharges. `None` unless the mesh was
    /// built with [`MeshConfig::with_fault_plan`].
    pub fn fault_stats(&self) -> Option<crate::faults::FaultCounters> {
        self.inner.faults.as_ref().map(|f| f.counters())
    }

    /// Transient consumer-poll failures a component has survived without
    /// dropping its subscriptions (injected `consumer_poll` faults or real
    /// broker brownouts). `None` for unknown components.
    pub fn poll_faults(&self, component: ComponentId) -> Option<u64> {
        self.with_core(component, |core| core.poll_fault_count())
    }

    /// The log of completed recoveries.
    pub fn recovery_log(&self) -> Vec<OutageRecord> {
        self.inner.recovery.snapshot()
    }

    /// Number of completed recoveries.
    pub fn recoveries(&self) -> usize {
        self.inner.recovery.len()
    }

    /// Blocks until at least `count` recoveries have completed, or `timeout`
    /// elapses, parked on the recovery log's condvar (no polling). Returns
    /// true if the target was reached.
    pub fn wait_for_recoveries(&self, count: usize, timeout: Duration) -> bool {
        self.inner.recovery.wait_for(count, timeout)
    }

    /// Direct access to the persistent store (for invariant checkers and
    /// administrative tooling).
    pub fn store(&self) -> Store {
        self.inner.store.clone()
    }

    /// Direct access to the message broker (for benchmarks that measure the
    /// substrate in isolation).
    pub fn broker(&self) -> Broker<Envelope> {
        self.inner.broker.clone()
    }

    /// Elapsed time since the mesh was created (broker clock).
    pub fn now(&self) -> Duration {
        self.inner.broker.now()
    }

    /// Stops every component and background thread. The mesh cannot be used
    /// afterwards.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Stop the reactor pool and timer first: killed components poison
        // further pumping anyway, and joining here guarantees no reactor
        // touches the broker after it shuts down.
        self.inner.reactors.shutdown.store(true, Ordering::SeqCst);
        self.inner.reactors.group.notify();
        self.inner.reactors.timer_signal.bump();
        let components: Vec<Arc<ComponentCore>> =
            self.inner.components.read().values().cloned().collect();
        for component in components {
            self.inner.broker.leave_group(GROUP, component.id());
            component.kill();
        }
        for handle in self.inner.runtime_threads.lock().drain(..) {
            let _ = handle.join();
        }
        self.inner.broker.shutdown();
        if self.inner.config.sim_seed.is_some() {
            // Drop the thread-local scheduler (its lanes hold Arcs into this
            // mesh) and restore the real clock, so a later mesh — simulated
            // or not — starts clean on this thread.
            kar_types::sim::clear();
            kar_types::clear_virtual_clock();
        }
    }
}

/// Decodes one `dlq/entry/{id}` store record (written by the component's
/// dead-letter path) back into a [`DlqEntry`]. Returns `None` on any shape
/// mismatch rather than guessing.
fn decode_dlq_entry(id: u64, value: &Value) -> Option<DlqEntry> {
    let Value::Map(map) = value else { return None };
    let str_field = |field: &str| match map.get(field) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let int_field = |field: &str| map.get(field).and_then(Value::as_i64);
    Some(DlqEntry {
        id: RequestId::from_raw(id),
        component: ComponentId::from_raw(u64::try_from(int_field("component")?).ok()?),
        target: ActorRef::new(str_field("target_type")?, str_field("target_id")?),
        method: str_field("method")?,
        attempts: u32::try_from(int_field("attempts")?).ok()?,
        last_error: str_field("last_error"),
        started_ms: u64::try_from(int_field("started_ms")?).ok()?,
        dead_lettered_ms: u64::try_from(int_field("dead_lettered_ms")?).ok()?,
    })
}

impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mesh")
            .field("components", &self.inner.components.read().len())
            .field("live", &self.live_components())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Outcome;
    use crate::context::ActorContext;
    use kar_types::{ActorRef, KarError, KarResult, Value};
    use std::time::Instant;

    /// A counter actor exercising state persistence and tail calls, following
    /// the Accumulator example of §2.3.
    struct Accumulator;

    impl Actor for Accumulator {
        fn invoke(
            &mut self,
            ctx: &mut ActorContext<'_>,
            method: &str,
            args: &[Value],
        ) -> KarResult<Outcome> {
            match method {
                "get" => Ok(Outcome::value(
                    ctx.state().get("value")?.unwrap_or(Value::Int(0)),
                )),
                "set" => {
                    ctx.state().set("value", args[0].clone())?;
                    Ok(Outcome::value("OK"))
                }
                "incr" => {
                    let value = ctx
                        .state()
                        .get("value")?
                        .and_then(|v| v.as_i64())
                        .unwrap_or(0);
                    Ok(ctx.tail_call_self("set", vec![Value::Int(value + 1)]))
                }
                other => Err(KarError::application(format!("no method {other}"))),
            }
        }
    }

    /// The reentrant callback pair of §2.2.
    struct CallerA;
    struct CalleeB;

    impl Actor for CallerA {
        fn invoke(
            &mut self,
            ctx: &mut ActorContext<'_>,
            method: &str,
            args: &[Value],
        ) -> KarResult<Outcome> {
            match method {
                "main" => Ok(ctx.call_then(
                    &ActorRef::new("B", "b"),
                    "task",
                    vec![args[0].clone()],
                    |_, result| Ok(Outcome::value(result?)),
                )),
                "callback" => Ok(Outcome::value(Value::from(format!(
                    "callback({})",
                    args[0].as_i64().unwrap_or(-1)
                )))),
                other => Err(KarError::application(format!("no method {other}"))),
            }
        }
    }

    impl Actor for CalleeB {
        fn invoke(
            &mut self,
            ctx: &mut ActorContext<'_>,
            method: &str,
            args: &[Value],
        ) -> KarResult<Outcome> {
            match method {
                "task" => Ok(ctx.call_then(
                    &ActorRef::new("A", "a"),
                    "callback",
                    vec![args[0].clone()],
                    |_, result| Ok(Outcome::value(result?)),
                )),
                other => Err(KarError::application(format!("no method {other}"))),
            }
        }
    }

    fn accumulator_mesh() -> (Mesh, Client) {
        let mesh = Mesh::new(MeshConfig::for_tests());
        let node = mesh.add_node();
        mesh.add_component(node, "server", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        let client = mesh.client();
        (mesh, client)
    }

    #[test]
    fn call_set_get_roundtrip() {
        let (mesh, client) = accumulator_mesh();
        let acc = ActorRef::new("Accumulator", "a");
        assert_eq!(client.call(&acc, "get", vec![]).unwrap(), Value::Int(0));
        assert_eq!(
            client.call(&acc, "set", vec![Value::Int(5)]).unwrap(),
            Value::from("OK")
        );
        assert_eq!(client.call(&acc, "get", vec![]).unwrap(), Value::Int(5));
        mesh.shutdown();
    }

    #[test]
    fn tail_call_chain_returns_value_of_last_call() {
        let (mesh, client) = accumulator_mesh();
        let acc = ActorRef::new("Accumulator", "a");
        // incr tail-calls set, whose "OK" is what the caller receives.
        assert_eq!(
            client.call(&acc, "incr", vec![]).unwrap(),
            Value::from("OK")
        );
        assert_eq!(client.call(&acc, "get", vec![]).unwrap(), Value::Int(1));
        for _ in 0..4 {
            client.call(&acc, "incr", vec![]).unwrap();
        }
        assert_eq!(client.call(&acc, "get", vec![]).unwrap(), Value::Int(5));
        mesh.shutdown();
    }

    #[test]
    fn application_errors_are_propagated_to_the_caller() {
        let (mesh, client) = accumulator_mesh();
        let acc = ActorRef::new("Accumulator", "a");
        let err = client.call(&acc, "missing", vec![]).unwrap_err();
        assert!(
            matches!(err, KarError::Application(_)),
            "unexpected error {err:?}"
        );
        mesh.shutdown();
    }

    #[test]
    fn unknown_actor_type_fails_placement() {
        let (mesh, client) = accumulator_mesh();
        let err = client
            .call(&ActorRef::new("Ghost", "g"), "m", vec![])
            .unwrap_err();
        assert!(
            matches!(err, KarError::NoHostForActorType { .. }),
            "unexpected error {err:?}"
        );
        mesh.shutdown();
    }

    #[test]
    fn tell_is_fire_and_forget_but_executes() {
        let (mesh, client) = accumulator_mesh();
        let acc = ActorRef::new("Accumulator", "a");
        client.tell(&acc, "set", vec![Value::Int(9)]).unwrap();
        // The tell is asynchronous: poll until it lands.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if client.call(&acc, "get", vec![]).unwrap() == Value::Int(9) {
                break;
            }
            assert!(Instant::now() < deadline, "tell never executed");
            std::thread::sleep(Duration::from_millis(5));
        }
        mesh.shutdown();
    }

    #[test]
    fn reentrant_callback_does_not_deadlock() {
        let mesh = Mesh::new(MeshConfig::for_tests());
        let node = mesh.add_node();
        mesh.add_component(node, "a-server", |c| c.host("A", || Box::new(CallerA)));
        mesh.add_component(node, "b-server", |c| c.host("B", || Box::new(CalleeB)));
        let client = mesh.client();
        let result = client
            .call(&ActorRef::new("A", "a"), "main", vec![Value::Int(42)])
            .unwrap();
        assert_eq!(result, Value::from("callback(42)"));
        mesh.shutdown();
    }

    #[test]
    fn actors_spread_across_components_and_clients_host_nothing() {
        let mesh = Mesh::new(MeshConfig::for_tests());
        let node = mesh.add_node();
        let c1 = mesh.add_component(node, "s1", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        let c2 = mesh.add_component(node, "s2", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        let client = mesh.client();
        for i in 0..16 {
            let acc = ActorRef::new("Accumulator", format!("a{i}"));
            client.call(&acc, "set", vec![Value::Int(i)]).unwrap();
        }
        // Every placement points at one of the two hosting components, never
        // at the client.
        let store = mesh.store();
        let placements = store.admin_keys_with_prefix("placement/Accumulator/");
        assert_eq!(placements.len(), 16);
        let mut seen = HashSet::new();
        for key in placements {
            let component = crate::placement::component_from_value(&store.admin_get(&key).unwrap())
                .expect("placement value");
            assert!(component == c1 || component == c2, "placed on {component}");
            seen.insert(component);
        }
        assert_eq!(
            seen.len(),
            2,
            "expected placements on both hosting components"
        );
        assert_eq!(client.component_id(), ComponentId::from_raw(3));
        mesh.shutdown();
    }

    #[test]
    fn kill_and_replace_component_recovers_pending_work() {
        let mesh = Mesh::new(MeshConfig::for_tests());
        let stable = mesh.add_node();
        let victim = mesh.add_node();
        let victim_component = mesh.add_component(victim, "victim", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        // A standby replica on the stable node hosts the same type, so the
        // actor can be re-placed after the failure.
        mesh.add_component(stable, "standby", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        let client = mesh.client();
        let acc = ActorRef::new("Accumulator", "a");
        client.call(&acc, "set", vec![Value::Int(3)]).unwrap();

        // Force the actor onto the victim if it is not already there by
        // checking its placement; if it landed on the standby, kill the
        // standby instead (the test is symmetric).
        let store = mesh.store();
        let placed = crate::placement::component_from_value(
            &store
                .admin_get(&crate::placement::placement_key(&acc))
                .unwrap(),
        )
        .unwrap();
        let (to_kill, _survivor) = if placed == victim_component {
            (victim_component, ())
        } else {
            (placed, ())
        };

        // Kill the component hosting the actor, then issue a call: it must be
        // retried on the surviving replica after recovery.
        mesh.kill_component(to_kill);
        let started = Instant::now();
        let value = client.call(&acc, "get", vec![]).unwrap();
        assert_eq!(value, Value::Int(3), "state must survive the failure");
        assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
        let record = mesh.recovery_log().pop().unwrap();
        assert!(record.failed_components.contains(&to_kill));
        assert!(record.detection().is_some());
        assert!(record.total().unwrap() >= record.consensus() + record.reconciliation());
        assert!(started.elapsed() < Duration::from_secs(15));
        mesh.shutdown();
    }

    #[test]
    fn exactly_once_increment_across_failure() {
        // The §2.3 guarantee: a failure around the incr/set tail call never
        // loses or duplicates an increment once the caller gets its response.
        let mesh = Mesh::new(MeshConfig::for_tests());
        let node = mesh.add_node();
        let c1 = mesh.add_component(node, "s1", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        mesh.add_component(node, "s2", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        let client = mesh.client();
        let acc = ActorRef::new("Accumulator", "a");
        client.call(&acc, "set", vec![Value::Int(0)]).unwrap();

        // Find where the actor lives and kill that component while issuing
        // increments from another thread.
        let store = mesh.store();
        let placed = crate::placement::component_from_value(
            &store
                .admin_get(&crate::placement::placement_key(&acc))
                .unwrap(),
        )
        .unwrap();
        let client2 = client.clone();
        let acc2 = acc.clone();
        let worker = std::thread::spawn(move || {
            let mut completed = 0;
            for _ in 0..5 {
                if client2.call(&acc2, "incr", vec![]).is_ok() {
                    completed += 1;
                }
            }
            completed
        });
        std::thread::sleep(Duration::from_millis(10));
        mesh.kill_component(placed);
        let completed = worker.join().unwrap();
        mesh.wait_for_recoveries(1, Duration::from_secs(10));
        let value = client.call(&acc, "get", vec![]).unwrap().as_i64().unwrap();
        // Every increment acknowledged to the caller happened exactly once;
        // increments interrupted before acknowledgement may or may not have
        // landed, but can never exceed the number of attempts.
        assert!(
            value >= completed,
            "acknowledged increments lost: {value} < {completed}"
        );
        assert!(value <= 5, "increments duplicated: {value} > 5");
        let _ = c1;
        mesh.shutdown();
    }

    #[test]
    fn mesh_introspection_helpers() {
        let mesh = Mesh::new(MeshConfig::for_tests());
        let node = mesh.add_node();
        let c = mesh.add_component(node, "s", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        assert_eq!(mesh.components_on(node), vec![c]);
        assert!(mesh.nodes().contains(&node));
        assert!(mesh.is_live(c));
        assert!(mesh.live_components().contains(&c));
        assert_eq!(mesh.recoveries(), 0);
        assert!(mesh.recovery_log().is_empty());
        assert!(format!("{mesh:?}").contains("Mesh"));
        assert!(mesh.now() > Duration::ZERO);
        mesh.kill_component(c);
        assert!(!mesh.is_live(c));
        mesh.shutdown();
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn adding_a_component_to_an_unknown_node_panics() {
        let mesh = Mesh::new(MeshConfig::for_tests());
        mesh.add_component(NodeId::from_raw(999), "x", |c| c);
    }

    /// An actor that sleeps, used to observe dispatch parallelism.
    struct Sleeper;

    impl Actor for Sleeper {
        fn invoke(
            &mut self,
            _ctx: &mut ActorContext<'_>,
            method: &str,
            args: &[Value],
        ) -> KarResult<Outcome> {
            match method {
                "nap" => {
                    let ms = args[0].as_i64().unwrap_or(0) as u64;
                    std::thread::sleep(Duration::from_millis(ms));
                    Ok(Outcome::value(Value::Null))
                }
                other => Err(KarError::application(format!("no method {other}"))),
            }
        }
    }

    #[test]
    fn distinct_actors_execute_in_parallel_across_lanes() {
        // Sleeping invocations occupy reactor threads, so this parallelism
        // probe needs a pool at least as wide as the lane count under test
        // (the auto-sized pool tracks the host's cores, which may be fewer).
        let mesh = Mesh::new(
            MeshConfig::for_tests()
                .with_partitions_per_component(8)
                .with_reactor_threads(8),
        );
        assert_eq!(mesh.reactor_thread_count(), 8);
        let node = mesh.add_node();
        let server =
            mesh.add_component(node, "server", |c| c.host("Sleeper", || Box::new(Sleeper)));
        let client = mesh.client();
        // One sleeper per home partition: a lane runs what it polls one
        // invocation at a time.
        let partitions = mesh.partition_set(server).unwrap();
        let mut lanes = HashSet::new();
        let sleepers: Vec<ActorRef> = (0..)
            .map(|i| ActorRef::new("Sleeper", format!("s{i}")))
            .filter(|actor| lanes.insert(partitions.partition_for_key(&actor.qualified_name())))
            .take(8)
            .collect();
        // Warm up placements so the measured phase is pure dispatch.
        for sleeper in &sleepers {
            client.call(sleeper, "nap", vec![Value::Int(0)]).unwrap();
        }
        let started = Instant::now();
        let workers: Vec<_> = sleepers
            .into_iter()
            .map(|sleeper| {
                let client = client.clone();
                std::thread::spawn(move || {
                    client.call(&sleeper, "nap", vec![Value::Int(100)]).unwrap()
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let elapsed = started.elapsed();
        // Serial dispatch would need >= 800ms; give parallel dispatch a wide
        // margin for scheduling noise.
        assert!(
            elapsed < Duration::from_millis(500),
            "8 x 100ms invocations of distinct actors took {elapsed:?}; dispatch is not parallel"
        );
        mesh.shutdown();
    }

    #[test]
    fn serial_dispatch_still_works_with_one_worker() {
        let mesh = Mesh::new(MeshConfig::for_tests().with_partitions_per_component(1));
        let node = mesh.add_node();
        mesh.add_component(node, "server", |c| {
            c.host("Accumulator", || Box::new(Accumulator))
        });
        let client = mesh.client();
        let acc = ActorRef::new("Accumulator", "a");
        for _ in 0..5 {
            client.call(&acc, "incr", vec![]).unwrap();
        }
        assert_eq!(client.call(&acc, "get", vec![]).unwrap(), Value::Int(5));
        mesh.shutdown();
    }
}
