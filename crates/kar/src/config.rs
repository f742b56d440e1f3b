//! Runtime configuration.

use std::time::Duration;

use kar_queue::BrokerConfig;
use kar_store::StoreConfig;
use kar_types::{DeploymentProfile, FaultPlan, LatencyProfile, RetryPolicy, TimeScale};

/// What to do with callees whose caller's component has failed (§3.6, §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CancellationPolicy {
    /// Let orphaned callees run to completion (scenario (4) of Fig. 1). This
    /// is the default, matching the paper's implementation choice to not
    /// preempt running tasks.
    #[default]
    Await,
    /// Elide pending callees whose caller's component is no longer live, and
    /// send a synthetic response instead (§4.4).
    Cancel,
}

/// Configuration of a [`Mesh`](crate::Mesh).
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Latency profile injected into the substrates (queue append/deliver,
    /// store operations, sidecar hops). Every latency is a *due time* — the
    /// substrates apply an operation at submit and say when it is
    /// acknowledged; a reactor parks the invocation until then and runs
    /// others (README "Modelled I/O is a completion").
    /// [`LatencyProfile::ZERO`] for functional tests.
    pub latency: LatencyProfile,
    /// Compression applied to failure-detection/recovery time constants
    /// (session timeout, stabilization, heartbeats). Measurements can be
    /// re-expanded to paper-equivalent durations with this scale.
    pub time_scale: TimeScale,
    /// Paper-scale session timeout before a silent component is declared
    /// failed (default 10 s, compressed by `time_scale`).
    pub session_timeout: Duration,
    /// Paper-scale membership stabilization window (consensus phase,
    /// default 2.4 s, compressed by `time_scale`).
    pub rebalance_stabilization: Duration,
    /// Paper-scale heartbeat period (default 1 s, compressed by `time_scale`).
    pub heartbeat_interval: Duration,
    /// Paper-scale pacing of the reconciliation leader per re-homed message
    /// (models the cost of cataloguing/copying messages; default 40 ms,
    /// compressed by `time_scale`).
    pub reconciliation_per_message: Duration,
    /// Paper-scale fixed overhead of one reconciliation round (default 6 s,
    /// compressed by `time_scale`).
    pub reconciliation_base: Duration,
    /// How long a blocking call waits for its response before giving up
    /// (wall-clock, not scaled). Must comfortably exceed one recovery cycle.
    pub call_timeout: Duration,
    /// Message retention in the queues (paper default: 10 minutes).
    pub retention: Duration,
    /// Enable the actor placement cache (Table 2 compares both settings).
    pub placement_cache: bool,
    /// Cancellation policy for orphaned callees.
    pub cancellation: CancellationPolicy,
    /// Number of home queue partitions allocated to each component (the
    /// paper's Kafka deployment assigns each component a partition *set*,
    /// §4.1). Requests hash onto a component's home partitions by actor key,
    /// so one actor's records stay in one partition (per-actor FIFO) while
    /// the component's consumer side scales with the set: one consumer lane
    /// per home partition, which admits and runs what it polls, so this is
    /// also the component's dispatch concurrency. Components hosting no
    /// actor types (external clients) get the same count: the width of
    /// their response funnel. `1` reproduces the one-partition-per-component
    /// topology — and the serial dispatch — of early revisions. Clamped to
    /// at least 1.
    pub partitions_per_component: usize,
    /// Number of reactor threads in the mesh-wide pool that drives **every**
    /// component's consumer lanes, due retries, and continuation timeouts.
    /// The pool is fixed at mesh start: adding components or partitions
    /// never spawns threads, it only adds pump targets for the existing
    /// reactors. `0` (the default) sizes the pool from the machine's
    /// available parallelism. Clamped to at least 1.
    pub reactor_threads: usize,
    /// Per-actor-type default retry policies (`(actor type, policy)`
    /// pairs). An invocation of a listed type whose request carries no
    /// explicit policy is orchestrated under the type's default: failed
    /// attempts are re-appended with a bumped attempt count and a next-fire
    /// deadline, and exhaustion moves the invocation to the dead-letter
    /// queue. Policy durations are wall-clock as given — they are **not**
    /// compressed by [`MeshConfig::time_scale`].
    pub retry_policies: Vec<(String, RetryPolicy)>,
    /// Per-actor-type circuit breakers (`None` = disabled). While a type's
    /// recent failure rate is at or above the threshold, its invocations
    /// fail fast with [`kar_types::KarError::CircuitOpen`] at the dispatch
    /// layer instead of executing.
    pub circuit_breaker: Option<CircuitBreakerConfig>,
    /// Refill rate, in tokens per second, of the mesh-wide retry budget:
    /// every orchestrated retry spends one token when its backoff deadline
    /// fires; an empty bucket sheds the retry back onto its backoff timer
    /// (deterministic load bound à la RetryGuard, never a drop).
    pub retry_budget_rate: f64,
    /// Burst capacity of the retry-budget token bucket.
    pub retry_budget_burst: f64,
    /// Soft resident-set watermark (`0` = unbounded): where admission evicts
    /// down to. An admission about to activate an actor while a component's
    /// resident-actor count is at or above it first passivates — drops the
    /// in-memory slot of — the least recently used resident with no running
    /// or parked invocation and no unflushed state, inline and without store
    /// I/O; the next request for it rehydrates it through the ordinary
    /// placement/admission path. Independently, a heartbeat-driven sweep
    /// passivates every actor idle for one to two (time-compressed)
    /// retention windows.
    pub resident_soft_watermark: usize,
    /// Hard resident-set watermark (`0` = unbounded): at or above it, an
    /// admission that would *activate a new actor* and found nothing to
    /// evict is deferred: it waits out a shaped backoff on the mesh's
    /// due-time heap, holding its admission claim (shed, never dropped).
    /// Requests for already-resident actors are never deferred. Clamped up
    /// to at least the soft watermark.
    pub resident_hard_watermark: usize,
    /// Optional gray-failure plan (`None` = no injection, zero hot-path
    /// cost). The mesh builds one [`kar_types::FaultInjector`] from the plan
    /// and threads it through both the store and the broker, so one seed
    /// drives the whole schedule and [`Mesh::fault_stats`](crate::Mesh)
    /// reads one set of counters.
    pub fault_plan: Option<FaultPlan>,
    /// Deterministic-simulation seed. `Some(seed)` puts the mesh in
    /// simulation mode: no runtime threads are spawned, a
    /// [`kar_types::VirtualClock`] replaces every wall-clock read, and a
    /// seeded single-threaded [`kar_types::SimScheduler`] owns every
    /// runnable lane (reactor pumps, the timer sweep, the broker
    /// coordinator, the recovery manager). One `(seed, config)` pair is one
    /// exact execution, replayable bit for bit. Use
    /// [`MeshConfig::deterministic`] rather than setting this directly.
    pub sim_seed: Option<u64>,
    /// Lease applied to DLQ claim markers. A claimer that plants a marker
    /// and dies before restoring the entry is reclaimable by a later
    /// `dlq_retry` after this lease (measured in retry-epoch milliseconds)
    /// expires. Zero disables expiry (markers are permanent, the pre-lease
    /// behavior).
    pub dlq_claim_lease: Duration,
    /// Test-only regression hook: skip reconciliation step 6½ (re-homing
    /// responses stranded in failed queues), deliberately re-opening the
    /// lost-response liveness bug so the simulation explorer can prove its
    /// conformance oracle catches it. Never set this outside tests.
    #[doc(hidden)]
    pub debug_skip_stranded_rehoming: bool,
}

/// Per-actor-type circuit-breaker settings (see
/// [`MeshConfig::circuit_breaker`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreakerConfig {
    /// Failure fraction of the sliding window at or above which the breaker
    /// opens (`0.0..=1.0`).
    pub failure_threshold: f64,
    /// Number of recent invocation outcomes the decision is made over; the
    /// breaker never opens before the window is full.
    pub window: usize,
    /// How long an open breaker fails fast before admitting a half-open
    /// probe. Wall-clock as given (not time-scale compressed).
    pub cooldown: Duration,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            latency: LatencyProfile::ZERO,
            time_scale: TimeScale::REAL_TIME,
            session_timeout: Duration::from_secs(10),
            rebalance_stabilization: Duration::from_millis(2400),
            heartbeat_interval: Duration::from_secs(1),
            reconciliation_per_message: Duration::from_millis(40),
            reconciliation_base: Duration::from_secs(6),
            call_timeout: Duration::from_secs(120),
            retention: Duration::from_secs(600),
            placement_cache: true,
            cancellation: CancellationPolicy::Await,
            partitions_per_component: 4,
            reactor_threads: 0,
            retry_policies: Vec::new(),
            circuit_breaker: None,
            // Generous default: orchestrated retries are effectively
            // unthrottled until an operator dials the budget down.
            retry_budget_rate: 10_000.0,
            retry_budget_burst: 20_000.0,
            // Unbounded by default: the watermarks are capacity-planning
            // knobs, and a wrong guess would shed load on meshes that never
            // needed it. Passivation alone already bounds the *idle* set.
            resident_soft_watermark: 0,
            resident_hard_watermark: 0,
            fault_plan: None,
            sim_seed: None,
            dlq_claim_lease: Duration::from_secs(30),
            debug_skip_stranded_rehoming: false,
        }
    }
}

impl MeshConfig {
    /// A configuration suitable for fast functional tests: no injected
    /// latency and aggressively compressed failure-detection timings.
    pub fn for_tests() -> Self {
        MeshConfig {
            time_scale: TimeScale::new(0.005),
            call_timeout: Duration::from_secs(20),
            ..MeshConfig::default()
        }
    }

    /// A deterministic-simulation configuration: `for_tests` timings with
    /// `sim_seed` armed. The mesh spawns zero threads; the calling thread
    /// owns a seeded [`kar_types::SimScheduler`] and drives every lane
    /// (reactor pumps, timer sweeps, the broker coordinator, the recovery
    /// manager) from one SplitMix64 stream over a virtual clock. Every other
    /// setting is the product default, so the simulator runs what ships.
    pub fn deterministic(seed: u64) -> Self {
        MeshConfig {
            sim_seed: Some(seed),
            reactor_threads: 1,
            ..MeshConfig::for_tests()
        }
    }

    /// The configuration used by the fault-injection experiments: paper-scale
    /// timings compressed by `time_scale` (e.g. `0.01` turns the 10 s session
    /// timeout into 100 ms).
    pub fn for_fault_experiments(time_scale: f64) -> Self {
        MeshConfig {
            time_scale: TimeScale::new(time_scale),
            call_timeout: Duration::from_secs(60),
            ..MeshConfig::default()
        }
    }

    /// A configuration emulating one of the paper's Table 2 deployments.
    pub fn for_deployment(profile: DeploymentProfile) -> Self {
        MeshConfig {
            latency: profile.latency_profile(),
            ..MeshConfig::default()
        }
    }

    /// Disables the placement cache (the "KAR Actor (no cache)" column of
    /// Table 2).
    #[must_use]
    pub fn without_placement_cache(mut self) -> Self {
        self.placement_cache = false;
        self
    }

    /// Sets the cancellation policy.
    #[must_use]
    pub fn with_cancellation(mut self, policy: CancellationPolicy) -> Self {
        self.cancellation = policy;
        self
    }

    /// Sets the number of home queue partitions per component (clamped to
    /// ≥ 1).
    #[must_use]
    pub fn with_partitions_per_component(mut self, partitions: usize) -> Self {
        self.partitions_per_component = partitions.max(1);
        self
    }

    /// Sets the DLQ claim-marker lease (zero = markers never expire).
    #[must_use]
    pub fn with_dlq_claim_lease(mut self, lease: Duration) -> Self {
        self.dlq_claim_lease = lease;
        self
    }

    /// The effective home-partition count per component (never below 1).
    pub fn effective_partitions_per_component(&self) -> usize {
        self.partitions_per_component.max(1)
    }

    /// Sets the size of the mesh-wide reactor pool (`0` = derive from the
    /// machine's available parallelism).
    #[must_use]
    pub fn with_reactor_threads(mut self, threads: usize) -> Self {
        self.reactor_threads = threads;
        self
    }

    /// The effective reactor-pool size: the explicit knob (clamped to ≥ 1),
    /// or the machine's available parallelism (capped at 8 — the pool pumps
    /// event-shaped work, it is not a compute pool) when left at `0`.
    pub fn effective_reactor_threads(&self) -> usize {
        if self.reactor_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8)
        } else {
            self.reactor_threads
        }
    }

    /// The wall-clock retirement horizon of an adopted partition: twice the
    /// (time-compressed) queue-retention window after its adoption. One
    /// window guarantees every record a racing stale sender could have
    /// appended around the adoption has expired; the second is safety margin
    /// on the same clock the aged retry bookkeeping already uses.
    pub fn scaled_retirement_delay(&self) -> Duration {
        self.time_scale.compress(self.retention * 2)
    }

    /// Registers `policy` as the default retry policy for every invocation
    /// of `actor_type` that carries no explicit policy of its own (a later
    /// registration for the same type wins).
    #[must_use]
    pub fn with_retry_policy(mut self, actor_type: impl Into<String>, policy: RetryPolicy) -> Self {
        let actor_type = actor_type.into();
        self.retry_policies.retain(|(name, _)| *name != actor_type);
        self.retry_policies.push((actor_type, policy));
        self
    }

    /// The default retry policy registered for `actor_type`, if any.
    pub fn retry_policy_for(&self, actor_type: &str) -> Option<&RetryPolicy> {
        self.retry_policies
            .iter()
            .find(|(name, _)| name == actor_type)
            .map(|(_, policy)| policy)
    }

    /// Enables per-actor-type circuit breakers: a type whose failure rate
    /// over the last `window` executed invocations reaches
    /// `failure_threshold` fails fast for `cooldown`, then re-admits
    /// traffic through a half-open probe.
    #[must_use]
    pub fn with_circuit_breaker(
        mut self,
        failure_threshold: f64,
        window: usize,
        cooldown: Duration,
    ) -> Self {
        self.circuit_breaker = Some(CircuitBreakerConfig {
            failure_threshold: failure_threshold.clamp(0.0, 1.0),
            window: window.max(1),
            cooldown,
        });
        self
    }

    /// Sets the mesh-wide retry budget: `rate` tokens/second refill,
    /// `burst` capacity. Each orchestrated retry spends one token when its
    /// backoff deadline fires; budget-shed retries re-queue on their
    /// backoff timer.
    #[must_use]
    pub fn with_retry_budget(mut self, rate: f64, burst: f64) -> Self {
        self.retry_budget_rate = rate.max(0.0);
        self.retry_budget_burst = burst.max(1.0);
        self
    }

    /// Sets the resident-set watermarks (`0` = unbounded): admission evicts
    /// the coldest quiescent, clean resident to activate an actor at or
    /// above `soft`, and defers the activation at or above `hard` only when
    /// nothing could be evicted. `hard` is clamped up to `soft` when both are
    /// set — a hard bound below the soft one would defer activations that
    /// admission could still make room for.
    #[must_use]
    pub fn with_resident_watermarks(mut self, soft: usize, hard: usize) -> Self {
        self.resident_soft_watermark = soft;
        self.resident_hard_watermark = if hard == 0 { 0 } else { hard.max(soft) };
        self
    }

    /// The soft resident-set watermark as a limit (`None` = unbounded).
    pub fn resident_soft_limit(&self) -> Option<usize> {
        (self.resident_soft_watermark > 0).then_some(self.resident_soft_watermark)
    }

    /// The hard resident-set watermark as a limit (`None` = unbounded),
    /// clamped up to the soft watermark.
    pub fn resident_hard_limit(&self) -> Option<usize> {
        (self.resident_hard_watermark > 0).then_some(
            self.resident_hard_watermark
                .max(self.resident_soft_watermark),
        )
    }

    /// The wall-clock passivation clock: one (time-compressed) retention
    /// window — the same single-window clock the state cache ages on, so an
    /// actor and its cached state image go cold together. An actor survives
    /// between one and two windows after its last admission.
    pub fn scaled_passivation_interval(&self) -> Duration {
        self.time_scale.compress(self.retention)
    }

    /// The compressed (wall-clock) session timeout.
    pub fn scaled_session_timeout(&self) -> Duration {
        self.time_scale.compress(self.session_timeout)
    }

    /// The compressed (wall-clock) heartbeat interval.
    pub fn scaled_heartbeat_interval(&self) -> Duration {
        self.time_scale.compress(self.heartbeat_interval)
    }

    /// Arms the mesh with a gray-failure plan: seeded transient faults,
    /// dropped acks, latency spikes, and brownout windows across the store
    /// and the broker (see [`FaultPlan`]). The same seed replays the same
    /// fault schedule. An empty plan is equivalent to `None`.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
        self
    }

    /// The broker configuration derived from this mesh configuration. The
    /// fault injector (if any) is attached by `Mesh::new`, which shares one
    /// injector between both substrates.
    pub fn broker_config(&self) -> BrokerConfig {
        BrokerConfig {
            session_timeout: self.time_scale.compress(self.session_timeout),
            rebalance_stabilization: self.time_scale.compress(self.rebalance_stabilization),
            // Retention lives on the same compressed clock as the rest of the
            // failure-recovery machinery.
            retention: self.time_scale.compress(self.retention),
            max_partition_records: 1_000_000,
            append_latency: self.latency.queue_append,
            deliver_latency: self.latency.queue_deliver,
            coordinator_interval: self
                .time_scale
                .compress(Duration::from_millis(200))
                .max(Duration::from_millis(1)),
            faults: None,
        }
    }

    /// The store configuration derived from this mesh configuration. As with
    /// [`MeshConfig::broker_config`], the fault injector is attached by
    /// `Mesh::new`.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig::with_op_latency(self.latency.store_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let c = MeshConfig::default();
        assert_eq!(c.session_timeout, Duration::from_secs(10));
        assert_eq!(c.rebalance_stabilization, Duration::from_millis(2400));
        assert_eq!(c.retention, Duration::from_secs(600));
        assert!(c.placement_cache);
        assert_eq!(c.cancellation, CancellationPolicy::Await);
    }

    #[test]
    fn scaled_timings_are_compressed() {
        let c = MeshConfig::for_fault_experiments(0.01);
        assert_eq!(c.scaled_session_timeout(), Duration::from_millis(100));
        assert_eq!(
            c.broker_config().session_timeout,
            Duration::from_millis(100)
        );
        assert_eq!(
            c.broker_config().rebalance_stabilization,
            Duration::from_millis(24)
        );
        assert!(c.broker_config().coordinator_interval >= Duration::from_millis(1));
        assert!(c.scaled_heartbeat_interval() <= Duration::from_millis(10));
    }

    #[test]
    fn deployment_profiles_inject_latency() {
        let c = MeshConfig::for_deployment(DeploymentProfile::Managed);
        assert!(c.broker_config().append_latency > Duration::ZERO);
        assert!(c.store_config().op_latency > Duration::ZERO);
        let dev = MeshConfig::for_deployment(DeploymentProfile::ClusterDev);
        assert!(dev.broker_config().append_latency < c.broker_config().append_latency);
    }

    #[test]
    fn builders_toggle_cache_and_cancellation() {
        let c = MeshConfig::for_tests()
            .without_placement_cache()
            .with_cancellation(CancellationPolicy::Cancel);
        assert!(!c.placement_cache);
        assert_eq!(c.cancellation, CancellationPolicy::Cancel);
    }

    #[test]
    fn partition_and_consumer_knobs_default_and_clamp() {
        // One knob sizes both: a component runs one consumer lane per home
        // partition.
        let c = MeshConfig::default();
        assert_eq!(c.partitions_per_component, 4);
        assert_eq!(c.effective_partitions_per_component(), 4);
        let serial = MeshConfig::for_tests().with_partitions_per_component(0);
        assert_eq!(serial.effective_partitions_per_component(), 1);
        assert_eq!(
            MeshConfig::for_tests()
                .with_partitions_per_component(8)
                .effective_partitions_per_component(),
            8
        );
    }

    #[test]
    fn state_plane_knobs_default_and_toggle() {
        let c = MeshConfig::default();
        assert_eq!(c.store_config().shards, 0, "the store picks its own");
    }

    #[test]
    fn delivery_plane_knobs_default_and_toggle() {
        let c = MeshConfig::default();
        assert_eq!(c.scaled_retirement_delay(), Duration::from_secs(1200));
        let c = MeshConfig {
            retention: Duration::from_secs(60),
            ..MeshConfig::for_tests()
        };
        // The horizon rides the compressed retention clock.
        assert_eq!(
            c.scaled_retirement_delay(),
            c.time_scale.compress(c.retention * 2)
        );
    }

    #[test]
    fn reactor_thread_knob() {
        let c = MeshConfig::default();
        assert_eq!(c.reactor_threads, 0);
        // Auto sizing is machine-dependent but always in [2, 8].
        let auto = c.effective_reactor_threads();
        assert!((2..=8).contains(&auto));
        let fixed = MeshConfig::for_tests().with_reactor_threads(3);
        assert_eq!(fixed.effective_reactor_threads(), 3);
        // An explicit knob wins even above the auto cap.
        assert_eq!(
            MeshConfig::for_tests()
                .with_reactor_threads(16)
                .effective_reactor_threads(),
            16
        );
    }

    #[test]
    fn retry_orchestration_knobs() {
        let c = MeshConfig::default();
        assert!(c.retry_policies.is_empty());
        assert!(c.circuit_breaker.is_none());
        assert!(c.retry_budget_rate >= 1_000.0, "default budget is generous");

        let policy = RetryPolicy::fixed(3, Duration::from_millis(50));
        let c = MeshConfig::for_tests()
            .with_retry_policy("Flaky", RetryPolicy::fixed(9, Duration::from_millis(1)))
            .with_retry_policy("Flaky", policy.clone())
            .with_circuit_breaker(0.5, 10, Duration::from_millis(200))
            .with_retry_budget(25.0, 50.0);
        assert_eq!(c.retry_policy_for("Flaky"), Some(&policy));
        assert_eq!(c.retry_policy_for("Other"), None);
        assert_eq!(c.retry_policies.len(), 1, "re-registration replaces");
        let breaker = c.circuit_breaker.as_ref().unwrap();
        assert_eq!(breaker.window, 10);
        assert_eq!(breaker.failure_threshold, 0.5);
        assert_eq!(c.retry_budget_rate, 25.0);
        assert_eq!(c.retry_budget_burst, 50.0);
        // Clamps: threshold into [0,1], window and burst to at least 1.
        let clamped = MeshConfig::for_tests()
            .with_circuit_breaker(7.0, 0, Duration::ZERO)
            .with_retry_budget(-1.0, 0.0);
        let breaker = clamped.circuit_breaker.as_ref().unwrap();
        assert_eq!(breaker.failure_threshold, 1.0);
        assert_eq!(breaker.window, 1);
        assert_eq!(clamped.retry_budget_rate, 0.0);
        assert_eq!(clamped.retry_budget_burst, 1.0);
    }

    #[test]
    fn passivation_defaults_on_watermarks_unbounded() {
        let c = MeshConfig::default();
        assert_eq!(c.resident_soft_limit(), None);
        assert_eq!(c.resident_hard_limit(), None);
        // The passivation clock is the single retention window — strictly
        // inside the doubled bookkeeping window, so the dedup sets always
        // outlive the actors they guard (a rehydrated actor cannot
        // resurrect a completed request).
        assert!(c.scaled_passivation_interval() < c.scaled_retirement_delay());
        assert_eq!(
            c.scaled_passivation_interval(),
            c.time_scale.compress(c.retention)
        );
    }

    #[test]
    fn passivation_knobs_set_and_clamp() {
        let c = MeshConfig::for_tests().with_resident_watermarks(100, 40);
        assert_eq!(c.resident_soft_limit(), Some(100));
        assert_eq!(c.resident_hard_limit(), Some(100), "hard clamps up to soft");

        let soft_only = MeshConfig::for_tests().with_resident_watermarks(64, 0);
        assert_eq!(soft_only.resident_soft_limit(), Some(64));
        assert_eq!(soft_only.resident_hard_limit(), None, "0 stays unbounded");

        let hard_only = MeshConfig::for_tests().with_resident_watermarks(0, 64);
        assert_eq!(hard_only.resident_soft_limit(), None);
        assert_eq!(hard_only.resident_hard_limit(), Some(64));
    }
}
