//! Deterministic-simulation chaos scenarios for the `sim_explore` binary.
//!
//! Each scenario builds a [`MeshConfig::deterministic`] mesh, runs a small
//! workload with a component kill scheduled at a caller-chosen simulation
//! step, and records everything observable — requests issued, actor-side
//! commits, completions, kills — as a [`kar_semantics::history`] event
//! stream. The conformance oracle then replays the paper's guarantees over
//! the observed history: exactly-once commits, no lost responses at
//! surviving callers, per-caller FIFO, and completion of every issued
//! request.
//!
//! One `(scenario, seed, kill_step)` triple is one exact execution: the
//! seed fixes the scheduler's lane choices, the kill step fixes where the
//! crash lands in that schedule. The explorer sweeps both axes; a failing
//! triple IS the minimized reproducer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome, RetryPolicy};
use kar_semantics::{HistoryChecker, HistoryEvent, HistoryViolation};
use kar_types::{ActorRef, ComponentId, KarError, KarResult, LatencyProfile, Value};

/// Shared commit log: every actor execution that applies effects appends
/// the request id it was carrying. The simulation is single-threaded, so
/// the log order is the (deterministic) commit order.
type CommitLog = Arc<Mutex<Vec<u64>>>;

/// The result of one simulated run.
#[derive(Debug)]
pub struct SimOutcome {
    /// Scenario name (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Scheduler seed.
    pub seed: u64,
    /// Kill offset, in simulation steps from the moment the scenario arms
    /// its kill.
    pub kill_step: u64,
    /// Total simulation steps the run took.
    pub steps: u64,
    /// History events observed.
    pub events: usize,
    /// Conformance violations the oracle found (empty = clean).
    pub violations: Vec<HistoryViolation>,
    /// FNV-1a 64 digest of the observed history — every event, in order —
    /// and of the final contents of every actor's `state/…` hash. Two
    /// builds that behave alike on this triple print the same digest.
    pub digest: u64,
}

/// FNV-1a, 64 bits: a hash whose value depends on its input alone, so a
/// digest printed by one build compares with another build's.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;

    /// Hashes `text`, then a terminator, so adjacent strings cannot run
    /// into each other.
    fn write(&mut self, text: &str) {
        for byte in text.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(Self::OFFSET)
    }
}

/// A scenario runner: `(seed, kill_step, rebreak) -> outcome`.
pub type ScenarioFn = fn(u64, u64, bool) -> SimOutcome;

/// Scenario registry: name → runner. `rebreak` re-opens the known
/// stranded-response bug (`debug_skip_stranded_rehoming`) so the explorer
/// can prove the oracle catches a real, historical defect.
pub const SCENARIOS: &[(&str, ScenarioFn)] = &[
    ("kill-while-parked", kill_while_parked),
    ("kill-mid-passivation", kill_mid_passivation),
    ("kill-mid-passivation-store", kill_mid_passivation_store),
    ("kill-during-backoff", kill_during_backoff),
    ("dlq-reinjection", dlq_reinjection),
    ("kill-after-trim", kill_after_trim),
    ("kill-mid-outbox", kill_mid_outbox),
    ("kill-mid-retry-append", kill_mid_retry_append),
    ("kill-mid-release", kill_mid_release),
];

/// Runs one scenario by name. Returns `None` for an unknown name.
pub fn run_scenario(name: &str, seed: u64, kill_step: u64, rebreak: bool) -> Option<SimOutcome> {
    SCENARIOS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, run)| run(seed, kill_step, rebreak))
}

/// Driver state shared by every scenario: the mesh, the oracle, and the
/// bookkeeping that turns blocking client calls into history events.
struct Driver {
    mesh: Mesh,
    checker: HistoryChecker,
    /// The history's half of the run's digest, event by event.
    digest: Fnv1a,
    log: CommitLog,
    drained: usize,
    targets: HashMap<u64, String>,
    seqs: HashMap<String, u64>,
}

impl Driver {
    fn new(mesh: Mesh, log: CommitLog) -> Self {
        Driver {
            mesh,
            checker: HistoryChecker::new(),
            digest: Fnv1a::default(),
            log,
            drained: 0,
            targets: HashMap::new(),
            seqs: HashMap::new(),
        }
    }

    /// Hands `event` to the oracle and folds it into the digest.
    fn record(&mut self, event: HistoryEvent) {
        self.digest.write(&format!("{event:?}"));
        self.checker.record(event);
    }

    /// Moves freshly logged actor commits into the oracle, in commit order.
    fn drain_commits(&mut self) {
        let log = Arc::clone(&self.log);
        let log = log.lock().expect("commit log");
        for &req in &log[self.drained..] {
            let actor = self
                .targets
                .get(&req)
                .cloned()
                .unwrap_or_else(|| "unknown".to_string());
            self.record(HistoryEvent::Commit { req, actor });
        }
        self.drained = log.len();
    }

    /// One observed blocking invocation through a fresh client component.
    fn call(&mut self, target: &ActorRef, method: &str, req: u64, policy: Option<RetryPolicy>) {
        let client = self.mesh.client();
        self.call_via(&client, target, method, req, policy);
    }

    /// One observed blocking invocation: records the issue, runs the call
    /// (driving the simulation), drains commits, records the completion.
    fn call_via(
        &mut self,
        client: &kar::Client,
        target: &ActorRef,
        method: &str,
        req: u64,
        policy: Option<RetryPolicy>,
    ) {
        let actor = target.qualified_name();
        let seq = self.seqs.entry(actor.clone()).or_insert(0);
        *seq += 1;
        let seq = *seq;
        self.record(HistoryEvent::Issue {
            req,
            caller: "client".to_string(),
            actor: actor.clone(),
            seq,
        });
        self.targets.insert(req, actor);
        let args = vec![Value::Int(req as i64)];
        let result = match policy {
            Some(policy) => client.call_with_policy(target, method, args, policy),
            None => client.call(target, method, args),
        };
        self.drain_commits();
        self.record(HistoryEvent::Complete {
            req,
            ok: result.is_ok(),
        });
    }

    /// Schedules a kill `kill_step` steps from now and tells the oracle.
    fn arm_kill(&mut self, kill_step: u64, component: kar_types::ComponentId, name: &str) {
        self.mesh
            .sim_schedule_kill(self.mesh.sim_step_count() + kill_step, component);
        self.record(HistoryEvent::Kill {
            component: name.to_string(),
        });
    }

    /// Waits (in virtual time) for `count` completed recoveries of the
    /// named killed component.
    fn await_recoveries(&mut self, count: usize, component: &str) {
        // A kill scheduled beyond the workload may not have fired yet; give
        // the scheduler room, then wait out the recovery pipeline.
        self.mesh
            .wait_for_recoveries(count, Duration::from_secs(300));
        self.record(HistoryEvent::Recovered {
            component: component.to_string(),
        });
    }

    /// Ends the run: its step count, event count, digest and violations.
    fn finish(mut self) -> (u64, usize, u64, Vec<HistoryViolation>) {
        self.drain_commits();
        let steps = self.mesh.sim_step_count();
        let events = self.checker.events();
        let store = self.mesh.store();
        for key in store.admin_hash_keys_with_prefix("state/") {
            self.digest.write(&key);
            for (field, value) in store.admin_hgetall(&key) {
                self.digest.write(&field);
                self.digest.write(&format!("{value:?}"));
            }
        }
        self.mesh.shutdown();
        (steps, events, self.digest.0, self.checker.finalize())
    }
}

/// Applies the scenario actors' one effect for `req`: a durable
/// per-request state write, logged on *first* application only.
///
/// The guard is the paper's §2.3 discipline: a re-homed caller replays its
/// invocation from the top under a fresh nested request id, so the callee
/// legitimately executes again and must absorb the replay by consulting its
/// own state. With the guard, a request id appearing twice in the commit
/// log is a genuine exactly-once violation — never benign replay. The
/// runtime flushes the state write strictly before the response is sent
/// (and the whole invoke-flush-respond slice is atomic under the
/// single-threaded scheduler), so the log mirrors durable commits exactly.
fn commit_once(ctx: &ActorContext<'_>, log: &CommitLog, req: u64) -> KarResult<()> {
    let key = format!("r{req}");
    if ctx.state().get(&key)?.is_none() {
        ctx.state().set(&key, Value::Int(1))?;
        log.lock().expect("commit log").push(req);
    }
    Ok(())
}

/// An actor whose effects are one idempotent write per request id; the
/// *first* execution that applies the write appends to the shared commit
/// log (a duplicate execution that dedup should have absorbed shows up as
/// a duplicate log entry).
struct Ledger {
    log: CommitLog,
}

impl Actor for Ledger {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "apply" => {
                let req = args[0].as_i64().unwrap_or(0) as u64;
                commit_once(ctx, &self.log, req)?;
                Ok(Outcome::value(Value::Int(req as i64)))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

fn ledger_host(log: &CommitLog) -> impl Fn() -> Box<dyn Actor> + Send + Sync + 'static {
    let log = Arc::clone(log);
    move || -> Box<dyn Actor> {
        Box::new(Ledger {
            log: Arc::clone(&log),
        })
    }
}

/// A front actor that parks on a nested call to a back actor; the *back*
/// actor is the commit point. Killing the front's component while the
/// continuation is parked is the stranded-response window: the back has
/// committed and responded, the response sits in the dead queue.
struct Front;

impl Actor for Front {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "apply" => {
                let req = args[0].as_i64().unwrap_or(0);
                let back = ActorRef::new("Back", format!("b{}", (req + 1) % 3));
                Ok(
                    ctx.call_then(&back, "echo", args.to_vec(), move |_ctx, result| {
                        Ok(Outcome::value(result?))
                    }),
                )
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

struct Back {
    log: CommitLog,
}

impl Actor for Back {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "echo" => {
                let req = args[0].as_i64().unwrap_or(0) as u64;
                commit_once(ctx, &self.log, req)?;
                Ok(Outcome::value(args[0].clone()))
            }
            // Pins this actor's home partition against trimming: the nested
            // call is answered by a tail-call *successor*, so its response
            // names no origin, and a consumed response without an origin
            // stays in the log — with everything behind it — until time
            // retention (see `kar::settle`, invariant 2).
            "pin" => Ok(ctx.call_then(
                &ActorRef::new("Back", "pinner"),
                "relay",
                Vec::new(),
                |_ctx, result| Ok(Outcome::value(result?)),
            )),
            "relay" => Ok(ctx.tail_call_self("noop", Vec::new())),
            "noop" => Ok(Outcome::value(Value::Null)),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// A dependency that fails its first `remaining` executions (never
/// committing), then succeeds (committing once).
struct Flaky {
    log: CommitLog,
    remaining: Arc<AtomicI64>,
}

impl Actor for Flaky {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "work" => {
                let req = args[0].as_i64().unwrap_or(0) as u64;
                // A replay of an already-committed request must not touch
                // the flaky countdown: it is absorbed before the gate.
                if ctx.state().get(&format!("r{req}"))?.is_some() {
                    return Ok(Outcome::value("ok"));
                }
                if self.remaining.fetch_sub(1, Ordering::SeqCst) > 0 {
                    return Err(KarError::application("dependency down"));
                }
                commit_once(ctx, &self.log, req)?;
                Ok(Outcome::value("ok"))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// A dependency gated on a healthy flag: down, every execution fails
/// without committing; up, it commits.
struct Doomed {
    log: CommitLog,
    healthy: Arc<AtomicBool>,
}

impl Actor for Doomed {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "work" => {
                let req = args[0].as_i64().unwrap_or(0) as u64;
                if ctx.state().get(&format!("r{req}"))?.is_some() {
                    return Ok(Outcome::value("ok"));
                }
                if !self.healthy.load(Ordering::SeqCst) {
                    return Err(KarError::application("dependency down"));
                }
                commit_once(ctx, &self.log, req)?;
                Ok(Outcome::value("ok"))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// Ends a run: the oracle's verdict on the history, plus the placement
/// invariant on the mesh as the run left it — every resident actor's record
/// names its host, so no second component can place it.
fn outcome(scenario: &'static str, seed: u64, kill_step: u64, driver: Driver) -> SimOutcome {
    let misplaced = driver.mesh.misplaced_residents();
    let (steps, events, digest, mut violations) = driver.finish();
    violations.extend(misplaced.into_iter().map(|detail| HistoryViolation {
        rule: "misplaced_resident",
        detail,
        at: usize::MAX,
    }));
    SimOutcome {
        scenario,
        seed,
        kill_step,
        steps,
        events,
        violations,
        digest,
    }
}

/// Schedules a kill of whichever component hosts `victim` to land `gap`
/// steps after the mesh completes its first `after` recoveries: a
/// self-rescheduling scheduler event polls the recovery counter once per
/// step, then resolves the victim's (freshly re-homed) placement and arms
/// the real kill. Lets a scenario chase an actor across a re-homing without
/// knowing (or fixing) how many steps that recovery takes or where the
/// placement lands.
fn kill_after_recovery(mesh: &Mesh, victim: ActorRef, after: usize, gap: u64) {
    let Some(scheduler) = kar_types::sim::current() else {
        return;
    };
    let mesh = mesh.clone();
    scheduler.schedule_at(scheduler.steps() + 1, "kill-after-recovery", move || {
        if mesh.recoveries() < after {
            kill_after_recovery(&mesh, victim, after, gap);
            return;
        }
        if let Some(component) = placement_of(&mesh, &victim) {
            mesh.sim_schedule_kill(mesh.sim_step_count() + gap, component);
        }
    });
}

/// The stranded-response double-kill. The first kill lands on a component
/// hosting a parked caller whose nested callee already committed and
/// responded — the response sits in the soon-to-be-dead queue. With
/// reconciliation's step 6½ in place the response is re-homed alongside the
/// caller and everything completes, even across a *second* kill. With it
/// skipped (`rebreak`) the first recovery destroys the response while still
/// cataloguing the nested call as answered; the second kill, landing on the
/// caller's new home before it finishes re-executing, makes the *second*
/// recovery see that nested call as pending (its response no longer exists
/// anywhere) and defer the re-homed caller on a response no survivor will
/// ever send — the caller times out over a committed effect:
/// `lost_response`.
///
/// The window only exists while the callee's *request record* is still in
/// its log at the second recovery: a settled request is normally trimmed
/// within a tick of its response being acknowledged, after which no recovery
/// can mistake the nested call for pending. The scenario therefore pins the
/// callees' partitions first ([`Back`]'s `pin`), the way production logs get
/// pinned — by an unfinished request or a response without an origin ahead
/// of the settled records — so what it checks is that step 6½ is still
/// load-bearing wherever a log cannot be trimmed.
///
/// `kill_step` packs both timing axes: `kill_step % 16` is the first kill's
/// offset (sweeping the parked-continuation window), `kill_step / 16` the
/// second kill's offset after the first recovery completes.
fn kill_while_parked(seed: u64, kill_step: u64, rebreak: bool) -> SimOutcome {
    let first_kill = kill_step % 16;
    let second_kill = kill_step / 16;
    let mut config = MeshConfig::deterministic(seed);
    config.debug_skip_stranded_rehoming = rebreak;
    let log: CommitLog = CommitLog::default();
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let host = |log: &CommitLog| {
        let log = Arc::clone(log);
        move |b: kar::ComponentBuilder| {
            let log = Arc::clone(&log);
            b.host("Front", || Box::new(Front)).host("Back", move || {
                Box::new(Back {
                    log: Arc::clone(&log),
                })
            })
        }
    };
    let alpha = mesh.add_component(node, "alpha", host(&log));
    mesh.add_component(node, "beta", host(&log));
    mesh.add_component(node, "gamma", host(&log));
    let mut driver = Driver::new(mesh, log);
    for back in 0..3 {
        let target = ActorRef::new("Back", format!("b{back}"));
        let pinned = driver.mesh.client().call(&target, "pin", Vec::new());
        debug_assert!(pinned.is_ok(), "pinning cannot fail on a quiet mesh");
    }
    for req in 1..=3u64 {
        let target = ActorRef::new("Front", format!("f{}", req % 3));
        driver.call(&target, "apply", req, None);
    }
    driver.arm_kill(first_kill, alpha, "alpha");
    // The second kill chases the caller of request 4 (`Front/f1`) across its
    // re-homing: whether it lands inside the re-execution window is part of
    // what the sweep explores.
    kill_after_recovery(&driver.mesh, ActorRef::new("Front", "f1"), 1, second_kill);
    driver.record(HistoryEvent::Kill {
        component: "f1-rehome".to_string(),
    });
    for req in 4..=6u64 {
        let target = ActorRef::new("Front", format!("f{}", req % 3));
        driver.call(&target, "apply", req, None);
    }
    driver.await_recoveries(1, "alpha");
    driver.await_recoveries(2, "f1-rehome");
    for req in 7..=9u64 {
        let target = ActorRef::new("Front", format!("f{}", req % 3));
        driver.call(&target, "apply", req, None);
    }
    outcome("kill-while-parked", seed, kill_step, driver)
}

/// Kill a component while it passivates: a crash landing between an
/// eviction and the activation it made room for, or between a passivation
/// flush and the drop, must not lose or duplicate the flushed state when the
/// actors rehydrate elsewhere. The soft watermark sits below the six-actor
/// working set, so every activation past it evicts the coldest resident
/// inline; the kill is armed after an idle spell (the heartbeat sweep
/// passivates what stayed resident) and lands among the rehydrating calls
/// that follow it.
fn kill_mid_passivation(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    // Retention 800 ms, compressed to 4 ms: shorter than failure detection,
    // so a request the kill strands in the victim's queue may expire before
    // reconciliation catalogues it (its caller times out). Kept as it is so
    // the scenario's runs stay comparable.
    passivation_under_kill(
        "kill-mid-passivation",
        MeshConfig::deterministic(seed),
        Duration::from_millis(800),
        seed,
        kill_step,
    )
}

/// `kill-mid-passivation` with every store round trip acknowledged 200 µs
/// after its submit: kills land while an activation's state load or a
/// completion's state flush is parked on its ack, or while the idle sweep's
/// passivation flush is in flight. A kill now
/// lands after a handler's write was applied, so a request stranded in the
/// victim's queue must survive until reconciliation: retention (60 s,
/// compressed to 300 ms) outlasts detection and reconciliation (~100 ms)
/// and still lets the idle spell passivate.
fn kill_mid_passivation_store(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    let config = MeshConfig {
        latency: LatencyProfile {
            store_op: Duration::from_micros(200),
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::deterministic(seed)
    };
    passivation_under_kill(
        "kill-mid-passivation-store",
        config,
        Duration::from_secs(60),
        seed,
        kill_step,
    )
}

/// The body of the passivation scenarios, on `config` (made from `seed`)
/// with queue retention `retention`.
fn passivation_under_kill(
    name: &'static str,
    config: MeshConfig,
    retention: Duration,
    seed: u64,
    kill_step: u64,
) -> SimOutcome {
    let mut config = config.with_resident_watermarks(2, 0);
    // Shrink the retention clock so passivation windows elapse within the
    // simulated workload (the sweep runs off the virtual clock).
    config.retention = retention;
    let log: CommitLog = CommitLog::default();
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let alpha = mesh.add_component(node, "alpha", {
        let log = Arc::clone(&log);
        move |b| b.host("Ledger", ledger_host(&log))
    });
    let beta = mesh.add_component(node, "beta", {
        let log = Arc::clone(&log);
        move |b| b.host("Ledger", ledger_host(&log))
    });
    let mut driver = Driver::new(mesh, log);
    // Activate a working set, then go idle long enough for the sweep to
    // start passivating it.
    for req in 1..=12u64 {
        let target = ActorRef::new("Ledger", format!("p{}", req % 6));
        driver.call(&target, "apply", req, None);
    }
    driver.mesh.sim_steps(3_000);
    // The kill goes to the component most of the working set is placed on.
    let placed: Vec<_> = (0..6)
        .filter_map(|i| placement_of(&driver.mesh, &ActorRef::new("Ledger", format!("p{i}"))))
        .collect();
    let host = [alpha, beta]
        .into_iter()
        .max_by_key(|component| placed.iter().filter(|p| *p == component).count())
        .unwrap_or(alpha);
    driver.arm_kill(kill_step, host, "host");
    for req in 13..=24u64 {
        let target = ActorRef::new("Ledger", format!("p{}", req % 6));
        driver.call(&target, "apply", req, None);
    }
    driver.await_recoveries(1, "host");
    // Rehydrate everything through the re-homed placement.
    for req in 25..=36u64 {
        let target = ActorRef::new("Ledger", format!("p{}", req % 6));
        driver.call(&target, "apply", req, None);
    }
    outcome(name, seed, kill_step, driver)
}

/// Kill a component across the release of its passivated actors'
/// placements. Ledgers activate on two components under a soft watermark of
/// two, so most are evicted at once; their tombstones age out one to two
/// bookkeeping intervals later, and the host releases their placement
/// records in fenced rounds, one per heartbeat. Every store round trip is
/// acknowledged 200 µs after its submit, so a round's records are gone at
/// once while the round settles only a heartbeat later. The kill of the
/// component hosting most of the working set is armed `kill_step` steps
/// after the first of its records is released — no run is clean unless a
/// release happened before its kill — and the same actors are called again
/// meanwhile: an activation racing a round in flight defers until it
/// settles. Once the victim is recovered they are called once more, through
/// the survivor. Retention (60 s, compressed to 300 ms) outlasts detection
/// and reconciliation, so a request the kill strands is re-homed, not
/// expired.
fn kill_mid_release(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    let mut config = MeshConfig {
        latency: LatencyProfile {
            store_op: Duration::from_micros(200),
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::deterministic(seed)
    }
    .with_resident_watermarks(2, 0);
    config.retention = Duration::from_secs(60);
    let log: CommitLog = CommitLog::default();
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let components: Vec<ComponentId> = ["alpha", "beta"]
        .into_iter()
        .map(|name| {
            let log = Arc::clone(&log);
            mesh.add_component(node, name, move |b| b.host("Ledger", ledger_host(&log)))
        })
        .collect();
    let mut driver = Driver::new(mesh, log);
    let ledger = |req: u64| ActorRef::new("Ledger", format!("p{}", req % 6));
    for req in 1..=12u64 {
        driver.call(&ledger(req), "apply", req, None);
    }
    let placed: Vec<_> = (0..6)
        .map(|i| (ledger(i), placement_of(&driver.mesh, &ledger(i))))
        .collect();
    let host = components
        .iter()
        .copied()
        .max_by_key(|c| placed.iter().filter(|(_, p)| *p == Some(*c)).count())
        .expect("two components");
    let hosted: Vec<ActorRef> = placed
        .into_iter()
        .filter(|(_, p)| *p == Some(host))
        .map(|(actor, _)| actor)
        .collect();
    let released = {
        let mesh = driver.mesh.clone();
        move || {
            hosted
                .iter()
                .any(|actor| placement_of(&mesh, actor).is_none())
        }
    };
    kill_when(&driver.mesh, host, released.clone(), kill_step);
    driver.record(HistoryEvent::Kill {
        component: "host".to_string(),
    });
    // Wait out the tombstones' aging: the first release arms the kill.
    driver.mesh.sim_run_until(&released, 200_000);
    let vacuous = !released();
    for req in 13..=24u64 {
        driver.call(&ledger(req), "apply", req, None);
    }
    driver.await_recoveries(1, "host");
    for req in 25..=36u64 {
        driver.call(&ledger(req), "apply", req, None);
    }
    let mut result = outcome("kill-mid-release", seed, kill_step, driver);
    if vacuous {
        result.violations.push(HistoryViolation {
            rule: "nothing_released",
            detail: "no placement of the victim's passivated actors was released before \
                     its kill — the scenario exercised no release round"
                .to_string(),
            at: usize::MAX,
        });
    }
    result
}

/// Kill the hosting component while an orchestrated retry is waiting out
/// its backoff: the persisted schedule must survive re-homing and fire
/// exactly once on the survivor.
fn kill_during_backoff(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    let config = MeshConfig::deterministic(seed);
    flaky_under_kill(
        "kill-during-backoff",
        config,
        kill_step,
        |driver, alpha, _| {
            driver.arm_kill(kill_step, alpha, "alpha");
        },
    )
}

/// `kill-during-backoff` with every queue append acknowledged 200 µs after
/// its submit, and the flaky actor placed on `alpha`, the victim: kills land
/// while a retry copy's round or the response run is parked on its ack.
/// `kill_step % 8` is the kill's offset in steps; `kill_step / 8` picks what
/// it counts from — the call (even: the first retry copy is submitted and
/// acknowledged within a few steps of it) or the attempt that succeeds (odd:
/// its response run leaves in the same step).
fn kill_mid_retry_append(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    let config = MeshConfig {
        latency: LatencyProfile {
            queue_append: Duration::from_micros(200),
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::deterministic(seed)
    };
    let gap = kill_step % 8;
    let arm = move |driver: &mut Driver, alpha, remaining: &Arc<AtomicI64>| {
        driver.mesh.store().admin_set(
            &kar::placement::placement_key(&ActorRef::new("Flaky", "f")),
            kar::placement::component_to_value(alpha),
        );
        if (kill_step / 8).is_multiple_of(2) {
            driver.arm_kill(gap, alpha, "alpha");
            return;
        }
        let remaining = Arc::clone(remaining);
        kill_when(
            &driver.mesh,
            alpha,
            move || remaining.load(Ordering::SeqCst) < 0,
            gap,
        );
        driver.record(HistoryEvent::Kill {
            component: "alpha".to_string(),
        });
    };
    flaky_under_kill("kill-mid-retry-append", config, kill_step, arm)
}

/// Schedules a kill of `victim` `gap` steps after `ready` first holds: a
/// self-rescheduling scheduler event polls it once per step.
fn kill_when(mesh: &Mesh, victim: ComponentId, ready: impl Fn() -> bool + 'static, gap: u64) {
    let Some(scheduler) = kar_types::sim::current() else {
        return;
    };
    let mesh = mesh.clone();
    scheduler.schedule_at(scheduler.steps() + 1, "kill-when", move || {
        if ready() {
            mesh.sim_schedule_kill(mesh.sim_step_count() + gap, victim);
        } else {
            kill_when(&mesh, victim, ready, gap);
        }
    });
}

/// The body of the backoff scenarios: a call under a retry policy to an
/// actor that fails twice (`Flaky/f`; the counter of failures left is
/// handed to `arm`), with a kill of `alpha` armed by `arm` just before it.
fn flaky_under_kill(
    scenario: &'static str,
    config: MeshConfig,
    kill_step: u64,
    arm: impl FnOnce(&mut Driver, ComponentId, &Arc<AtomicI64>),
) -> SimOutcome {
    let seed = config.sim_seed.expect("a deterministic configuration");
    let log: CommitLog = CommitLog::default();
    let remaining = Arc::new(AtomicI64::new(2));
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let host = |log: &CommitLog, remaining: &Arc<AtomicI64>| {
        let log = Arc::clone(log);
        let remaining = Arc::clone(remaining);
        move || -> Box<dyn Actor> {
            Box::new(Flaky {
                log: Arc::clone(&log),
                remaining: Arc::clone(&remaining),
            })
        }
    };
    let alpha = mesh.add_component(node, "alpha", {
        let host = host(&log, &remaining);
        move |b| b.host("Flaky", host)
    });
    mesh.add_component(node, "beta", {
        let host = host(&log, &remaining);
        move |b| b.host("Flaky", host)
    });
    let mut driver = Driver::new(mesh, log);
    arm(&mut driver, alpha, &remaining);
    let policy = RetryPolicy::fixed(6, Duration::from_millis(400)).retry_all_errors();
    driver.call(&ActorRef::new("Flaky", "f"), "work", 1, Some(policy));
    driver.await_recoveries(1, "alpha");
    outcome(scenario, seed, kill_step, driver)
}

/// Exhaust a schedule into the DLQ, heal, kill a component, and re-inject
/// through `dlq_retry` under the recovery churn: the re-injection must
/// claim and execute exactly once.
fn dlq_reinjection(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    let config = MeshConfig::deterministic(seed);
    let log: CommitLog = CommitLog::default();
    let healthy = Arc::new(AtomicBool::new(false));
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let host = |log: &CommitLog, healthy: &Arc<AtomicBool>| {
        let log = Arc::clone(log);
        let healthy = Arc::clone(healthy);
        move || -> Box<dyn Actor> {
            Box::new(Doomed {
                log: Arc::clone(&log),
                healthy: Arc::clone(&healthy),
            })
        }
    };
    let alpha = mesh.add_component(node, "alpha", {
        let host = host(&log, &healthy);
        move |b| b.host("Doomed", host)
    });
    mesh.add_component(node, "beta", {
        let host = host(&log, &healthy);
        move |b| b.host("Doomed", host)
    });
    let mut driver = Driver::new(mesh, log);
    let policy = RetryPolicy::fixed(2, Duration::from_millis(10)).retry_all_errors();
    driver.call(&ActorRef::new("Doomed", "d"), "work", 1, Some(policy));
    let entries = driver.mesh.dlq_stats().entries;
    healthy.store(true, Ordering::SeqCst);
    driver.arm_kill(kill_step, alpha, "alpha");
    // Re-inject under the churn: `Err` leaves the entry claimable (the
    // honest operator-loop shape); `true` must happen at most once, and
    // the oracle's duplicate-commit rule catches a double execution.
    let mut claims = 0u32;
    for entry in &entries {
        for _ in 0..100 {
            match driver.mesh.dlq_retry(entry.id) {
                Ok(true) => {
                    claims += 1;
                    break;
                }
                Ok(false) => break,
                Err(_) => driver.mesh.sim_steps(200),
            }
        }
    }
    driver.await_recoveries(1, "alpha");
    // Drive until the re-injected tell lands (bounded in virtual time).
    let log = Arc::clone(&driver.log);
    driver
        .mesh
        .sim_run_until(|| !log.lock().expect("commit log").is_empty(), 200_000);
    let mut result = outcome("dlq-reinjection", seed, kill_step, driver);
    if claims > 1 {
        result.violations.push(HistoryViolation {
            rule: "duplicate_claim",
            detail: format!("DLQ entry claimed {claims} times — dlq_retry is not exactly-once"),
            at: usize::MAX,
        });
    }
    result
}

/// The front of the `kill-after-trim` pipeline: parks on a nested call to a
/// `Back` actor (the commit point), then hands the request to a tail-call
/// chain — so one logical request crosses a `call_then`, a cross-actor tail
/// call (a re-append to another component's partition, the same path a
/// forward takes) and a tail call to self (a re-append to the actor's own
/// partition) before it is answered.
struct Relay;

impl Actor for Relay {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        let req = args[0].as_i64().unwrap_or(0);
        match method {
            "apply" => {
                let back = ActorRef::new("Back", format!("b{}", (req + 1) % 3));
                Ok(
                    ctx.call_then(&back, "echo", vec![args[0].clone()], move |ctx, result| {
                        let hop = ActorRef::new("Relay", format!("h{}", req % 3));
                        Ok(ctx.tail_call(&hop, "hop", vec![result?, Value::Int(3)]))
                    }),
                )
            }
            "hop" => match args[1].as_i64().unwrap_or(0) {
                0 => Ok(Outcome::value(args[0].clone())),
                left if left % 2 == 0 => {
                    Ok(ctx.tail_call_self("hop", vec![args[0].clone(), Value::Int(left - 1)]))
                }
                left => {
                    let next = ActorRef::new("Relay", format!("h{}", (req + left + 1) % 3));
                    Ok(ctx.tail_call(&next, "hop", vec![args[0].clone(), Value::Int(left - 1)]))
                }
            },
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// The component `actor` is currently placed on, if any.
fn placement_of(mesh: &Mesh, actor: &ActorRef) -> Option<kar_types::ComponentId> {
    let key = format!("placement/{}", actor.qualified_name());
    let raw = mesh.store().admin_get(&key).and_then(|v| v.as_i64())?;
    Some(kar_types::ComponentId::from_raw(raw as u64))
}

/// Records dropped so far from the home partitions of `component` — in this
/// scenario (retention far beyond the run) that is: records it trimmed.
fn trimmed_by(mesh: &Mesh, component: kar_types::ComponentId) -> u64 {
    let broker = mesh.broker();
    mesh.partition_set(component).map_or(0, |set| {
        set.home()
            .iter()
            .map(|partition| broker.log_start("kar", *partition))
            .sum()
    })
}

/// Kills over *trimmed* logs. The settle tracker drops a request record once
/// its completion is durable, and a consumed response once the request's
/// only record is gone — from sweeps that run every few dozen settle events,
/// so the scenario first runs enough traffic for the server partitions to
/// be trimmed mid-traffic. It then kills the
/// callee's host right after it trimmed — with a parked `call_then`, a
/// tail-call chain and a request toward the victim in flight — and, after
/// that recovery, the caller's host once it trimmed the responses it
/// consumed. Reconciliation then works from logs that no longer hold the
/// settled history, and must still neither re-execute a completed request
/// nor wait on a response nobody holds.
///
/// `kill_step % 16` is the first kill's offset into the request after the
/// warm-up, `(kill_step / 4) % 16` the second kill's offset into the first
/// request of the third phase.
fn kill_after_trim(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    let first_kill = kill_step % 16;
    let second_kill = (kill_step / 4) % 16;
    let mut config = MeshConfig::deterministic(seed);
    // Nothing expires by age within the run: whatever left a log was trimmed.
    config.retention = Duration::from_secs(400_000);
    let log: CommitLog = CommitLog::default();
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let host = |log: &CommitLog| {
        let log = Arc::clone(log);
        move |b: kar::ComponentBuilder| {
            b.host("Relay", || Box::new(Relay)).host("Back", move || {
                Box::new(Back {
                    log: Arc::clone(&log),
                })
            })
        }
    };
    mesh.add_component(node, "alpha", host(&log));
    mesh.add_component(node, "beta", host(&log));
    mesh.add_component(node, "gamma", host(&log));
    let mut driver = Driver::new(mesh, log);
    let front = |req: u64| ActorRef::new("Relay", format!("f{}", req % 3));
    let mut vacuous = false;

    // Warm-up through one client: enough settled records on the server
    // partitions in use for the pump-driven sweeps to trim mid-traffic.
    const WARMUP: u64 = 240;
    let bulk = driver.mesh.client();
    for req in 1..=WARMUP {
        driver.call_via(&bulk, &front(req), "apply", req, None);
    }
    // The next request parks on Back/b{(req + 1) % 3}: kill that host.
    let mut req = WARMUP;
    let callee = placement_of(
        &driver.mesh,
        &ActorRef::new("Back", format!("b{}", (req + 2) % 3)),
    );
    match callee {
        Some(callee) if trimmed_by(&driver.mesh, callee) > 0 => {
            driver.arm_kill(first_kill, callee, "callee");
        }
        _ => vacuous = true,
    }
    for _ in 0..3 {
        req += 1;
        driver.call(&front(req), "apply", req, None);
    }
    driver.await_recoveries(1, "callee");
    // Rebuild trimmed logs on the survivors, then kill the caller's host.
    for _ in 0..WARMUP / 2 {
        req += 1;
        driver.call_via(&bulk, &front(req), "apply", req, None);
    }
    let caller = placement_of(&driver.mesh, &front(req + 1));
    match caller {
        Some(caller) if trimmed_by(&driver.mesh, caller) > 0 => {
            driver.arm_kill(second_kill, caller, "caller");
        }
        _ => vacuous = true,
    }
    for _ in 0..3 {
        req += 1;
        driver.call(&front(req), "apply", req, None);
    }
    driver.await_recoveries(2, "caller");
    for _ in 0..3 {
        req += 1;
        driver.call(&front(req), "apply", req, None);
    }
    let mut result = outcome("kill-after-trim", seed, kill_step, driver);
    if vacuous {
        result.violations.push(HistoryViolation {
            rule: "nothing_trimmed",
            detail: "a victim had trimmed nothing when its kill was due — the scenario \
                     exercised no trimmed log"
                .to_string(),
            at: usize::MAX,
        });
    }
    result
}

/// Where `kill-mid-outbox` lands its kill relative to the victim handler's
/// outbox round, state write and completion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OutboxKill {
    /// A scheduler-step kill of the victim's host, wherever it falls.
    AtStep,
    /// Inside the handler, after its tells and before it returns: the
    /// attempt dies with a full outbox — nothing of it may be published.
    BeforeRound,
    /// Between the round and the state flush: the handler fences its own
    /// component off the *store* only, so its round is acknowledged, its
    /// state flush is refused and nothing completes; the component is
    /// killed outright one step later.
    BeforeStateFlush,
    /// Between the state flush and the completion: under a store-only
    /// latency profile the flush is applied at submit — behind the
    /// acknowledged round — and then parks on its ack; the handler schedules
    /// its component's kill for the next scheduler step, which lands while
    /// the flush is parked, so its completion is never sent.
    BeforeCompletion,
}

/// What the `kill-mid-outbox` actors share with the scenario body.
#[derive(Default)]
struct OutboxPlan {
    mesh: OnceLock<Mesh>,
    /// The request whose first execution dies (0 = none).
    victim: AtomicU64,
    fired: AtomicBool,
    /// Executions of the victim request: two when the kill landed before its
    /// completion was sent (the re-homed copy runs again), one otherwise.
    victim_runs: AtomicU64,
    /// Executions — not commits — of each sub-request at the sinks: how
    /// often a tell carrying it was delivered.
    deliveries: Mutex<HashMap<u64, u32>>,
}

/// The two sub-requests request `req` tells its sinks.
fn sub_requests(req: u64) -> [u64; 2] {
    [1000 + 2 * req, 1001 + 2 * req]
}

/// The handler of the outbox's first invariant: two tells to actors on
/// other components and a guarded state write —
/// `if !state.get(done) { tell; tell; state.set(done) }` — so a re-execution
/// re-tells exactly when the previous attempt's write did not become durable.
struct Splitter {
    plan: Arc<OutboxPlan>,
    point: OutboxKill,
}

impl Actor for Splitter {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "noop" => Ok(Outcome::value(Value::Null)),
            "split" => {
                let req = args[0].as_i64().unwrap_or(0) as u64;
                if self.plan.victim.load(Ordering::SeqCst) == req {
                    self.plan.victim_runs.fetch_add(1, Ordering::SeqCst);
                }
                let done = format!("done{req}");
                if ctx.state().get(&done)?.is_none() {
                    for (sink, sub) in args[1..3].iter().zip(sub_requests(req)) {
                        let sink = ActorRef::new("Sink", sink.as_str().unwrap_or("?"));
                        ctx.tell(&sink, "apply", vec![Value::Int(sub as i64)])?;
                    }
                    ctx.state().set(&done, Value::Int(1))?;
                }
                if self.plan.victim.load(Ordering::SeqCst) == req
                    && !self.plan.fired.swap(true, Ordering::SeqCst)
                {
                    let mesh = self.plan.mesh.get().expect("mesh registered");
                    let own = ctx.component_id();
                    match self.point {
                        OutboxKill::AtStep => {}
                        OutboxKill::BeforeRound => mesh.kill_component(own),
                        OutboxKill::BeforeStateFlush => {
                            mesh.store().fence(own);
                            mesh.sim_schedule_kill(mesh.sim_step_count() + 1, own);
                        }
                        OutboxKill::BeforeCompletion => {
                            mesh.sim_schedule_kill(mesh.sim_step_count() + 1, own);
                        }
                    }
                }
                Ok(Outcome::value(args[0].clone()))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// The target of the splitter's tells: counts the delivery, then commits the
/// sub-request once.
struct OutboxSink {
    plan: Arc<OutboxPlan>,
    log: CommitLog,
}

impl Actor for OutboxSink {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "noop" => Ok(Outcome::value(Value::Null)),
            "apply" => {
                let sub = args[0].as_i64().unwrap_or(0) as u64;
                *self
                    .plan
                    .deliveries
                    .lock()
                    .expect("deliveries")
                    .entry(sub)
                    .or_default() += 1;
                commit_once(ctx, &self.log, sub)?;
                Ok(Outcome::value(Value::Null))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// Kills around the invocation outbox. Every request runs [`Splitter`]'s
/// guarded handler; the kill lands (`kill_step % 4`, see [`OutboxKill`]) at
/// a scheduler step, before the victim's round, between its round and its
/// state flush, or between its state flush and its completion. Whatever the
/// point, the order outbox → state → completion must leave every
/// sub-request committed exactly once: a lost tell shows up as a sub-request
/// that never commits (`lost_invocation`), a re-applied one as a
/// `duplicate_commit`. The delivery counts pin the rest of the contract —
/// an attempt killed before its round publishes nothing, and the two
/// mid-flush points really had their round acknowledged first.
///
/// `kill_step / 4` is the step offset of the scheduler-step kill, and picks
/// the victim among the second batch of requests otherwise.
fn kill_mid_outbox(seed: u64, kill_step: u64, _rebreak: bool) -> SimOutcome {
    let point = [
        OutboxKill::AtStep,
        OutboxKill::BeforeRound,
        OutboxKill::BeforeStateFlush,
        OutboxKill::BeforeCompletion,
    ][(kill_step % 4) as usize];
    let offset = kill_step / 4;
    let mut config = MeshConfig::deterministic(seed);
    if point == OutboxKill::BeforeCompletion {
        // Only the state flush's ack takes time: the completion behind it
        // parks, and the kill scheduled for the next step lands there.
        config.latency = LatencyProfile {
            store_op: Duration::from_micros(200),
            ..LatencyProfile::ZERO
        };
    }
    let log: CommitLog = CommitLog::default();
    let plan = Arc::new(OutboxPlan::default());
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let host = |plan: &Arc<OutboxPlan>, log: &CommitLog| {
        let (plan, log) = (Arc::clone(plan), Arc::clone(log));
        move |b: kar::ComponentBuilder| {
            let splitter_plan = Arc::clone(&plan);
            b.host("Splitter", move || {
                Box::new(Splitter {
                    plan: Arc::clone(&splitter_plan),
                    point,
                })
            })
            .host("Sink", move || {
                Box::new(OutboxSink {
                    plan: Arc::clone(&plan),
                    log: Arc::clone(&log),
                })
            })
        }
    };
    let names = ["alpha", "beta", "gamma"];
    let components: Vec<_> = names
        .iter()
        .map(|name| mesh.add_component(node, name, host(&plan, &log)))
        .collect();
    assert!(plan.mesh.set(mesh.clone()).is_ok(), "one mesh per plan");
    let mut driver = Driver::new(mesh, log);

    // Place everything on a quiet mesh, then give each splitter two sinks
    // hosted elsewhere (on two different components where placement allows).
    let splitter = |req: u64| ActorRef::new("Splitter", format!("f{}", req % 3));
    let sinks: Vec<ActorRef> = (0..6)
        .map(|i| ActorRef::new("Sink", format!("s{i}")))
        .collect();
    let bulk = driver.mesh.client();
    for actor in (0..3).map(splitter).chain(sinks.iter().cloned()) {
        let placed = bulk.call(&actor, "noop", Vec::new());
        debug_assert!(placed.is_ok(), "placing cannot fail on a quiet mesh");
    }
    let sinks_of = |mesh: &Mesh, req: u64| -> Vec<Value> {
        let home = placement_of(mesh, &splitter(req));
        let mut away: Vec<&ActorRef> = sinks
            .iter()
            .filter(|sink| placement_of(mesh, sink) != home)
            .collect();
        if away.len() < 2 {
            away = sinks.iter().collect();
        }
        let first = away[0];
        let second = away[1..]
            .iter()
            .find(|sink| placement_of(mesh, sink) != placement_of(mesh, first))
            .unwrap_or(&away[1]);
        vec![
            Value::from(first.actor_id()),
            Value::from(second.actor_id()),
        ]
    };
    // The sinks are fixed per splitter up front: a splitter re-homed by the
    // kill keeps telling the same actors.
    let routes: Vec<Vec<Value>> = (0..3).map(|req| sinks_of(&driver.mesh, req)).collect();

    let split = |driver: &mut Driver, req: u64| {
        let target = splitter(req);
        // The tells are requests of their own: issued by this request,
        // complete once their sink committed them.
        let route = &routes[(req % 3) as usize];
        let actor = target.qualified_name();
        driver.record(HistoryEvent::Issue {
            req,
            caller: "client".to_string(),
            actor: actor.clone(),
            seq: req,
        });
        for (sink, sub) in route.iter().zip(sub_requests(req)) {
            let sink = format!("Sink/{}", sink.as_str().unwrap_or("?"));
            driver.record(HistoryEvent::Issue {
                req: sub,
                caller: format!("split-{req}"),
                actor: sink.clone(),
                seq: 1,
            });
            driver.targets.insert(sub, sink);
        }
        let mut args = vec![Value::Int(req as i64)];
        args.extend(route.iter().cloned());
        let result = bulk.call(&target, "split", args);
        driver.drain_commits();
        driver.record(HistoryEvent::Complete {
            req,
            ok: result.is_ok(),
        });
    };

    for req in 1..=3u64 {
        split(&mut driver, req);
    }
    // Arm the kill on the second batch.
    let victim = 4 + offset % 3;
    let victim_host = placement_of(&driver.mesh, &splitter(victim));
    let victim_name = victim_host
        .and_then(|id| components.iter().position(|c| *c == id))
        .map_or("victim", |index| names[index]);
    match (point, victim_host) {
        (OutboxKill::AtStep, Some(host)) => driver.arm_kill(offset, host, victim_name),
        _ => {
            plan.victim.store(victim, Ordering::SeqCst);
            driver.record(HistoryEvent::Kill {
                component: victim_name.to_string(),
            });
        }
    }
    for req in 4..=6u64 {
        split(&mut driver, req);
    }
    driver.await_recoveries(1, victim_name);
    for req in 7..=9u64 {
        split(&mut driver, req);
    }
    // Tells are asynchronous: drive until every sub-request committed (or
    // the bound says one never will), then close the ones that did.
    let committed = |log: &CommitLog| log.lock().expect("commit log").len();
    let log = Arc::clone(&driver.log);
    driver.mesh.sim_run_until(|| committed(&log) >= 18, 200_000);
    driver.drain_commits();
    let commits: Vec<u64> = log.lock().expect("commit log").clone();
    for req in 1..=9u64 {
        for sub in sub_requests(req) {
            if commits.contains(&sub) {
                driver.record(HistoryEvent::Complete { req: sub, ok: true });
            }
        }
    }
    let delivered: Vec<u32> = {
        let deliveries = plan.deliveries.lock().expect("deliveries");
        sub_requests(victim)
            .iter()
            .map(|sub| deliveries.get(sub).copied().unwrap_or(0))
            .collect()
    };
    let mut result = outcome("kill-mid-outbox", seed, kill_step, driver);
    // How often each of the victim's tells must have been delivered.
    let expected = match point {
        OutboxKill::AtStep => None,
        OutboxKill::BeforeRound => Some((
            "killed_attempt_published",
            1,
            "the retry's tell only: the killed attempt publishes nothing",
        )),
        OutboxKill::BeforeStateFlush => Some((
            "round_not_before_state",
            2,
            "the killed attempt's acknowledged round, then the retry's re-tell",
        )),
        OutboxKill::BeforeCompletion => Some((
            "round_not_before_state",
            1,
            "durable before the state flush, so the retry skips it",
        )),
    };
    if let Some((rule, times, why)) = expected {
        let runs = plan.victim_runs.load(Ordering::SeqCst);
        if !plan.fired.load(Ordering::SeqCst)
            || runs != 2
            || delivered.iter().any(|count| *count != times)
        {
            result.violations.push(HistoryViolation {
                rule,
                detail: format!(
                    "{point:?}: request {victim} ran {runs} times (2: the kill beat its \
                     completion) and its tells were delivered {delivered:?} times, \
                     expected {times} each ({why})"
                ),
                at: usize::MAX,
            });
        }
    }
    result
}
