//! The invocation outbox (see `kar::context` — restated in the README's
//! "Tells and the invocation outbox"): a handler's tells leave in one
//! produce round, strictly before its state flush and its completion.
//!
//! * one round: a handler telling N actors on M components makes exactly one
//!   request flush on its component, and handlers on one component telling
//!   one partition under ack latency share rounds (the partition's queue);
//! * order: two tells to one target arrive in program order, and a tell
//!   issued before a nested call is in the target's log ahead of the call;
//! * failure: a handler that returns `Err` after a tell still delivers it; an
//!   attempt killed mid-run publishes none of its tells; a round that fails
//!   while its component lives (a tell that cannot be
//!   placed, appends out of transient replays) fails the attempt *and* rolls
//!   back the state writes made behind the lost tells, so the retry tells
//!   again;
//! * a tail-call chain rooted at a `tell` parks no unroutable response and
//!   leaves logs that trim to nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use kar::{
    Actor, ActorContext, ComponentBuilder, FaultPlan, FaultSite, FaultSpec, Mesh, MeshConfig,
    Outcome, RetryPolicy,
};
use kar_types::{
    ActorRef, ComponentId, DeploymentProfile, KarError, KarResult, LatencyProfile, Value,
};

/// The mesh topic (`kar::mesh`'s private constant, as `bench/` spells it).
const TOPIC: &str = "kar";

/// Both arms of "inline vs parked": with no modelled latency every stage of
/// an invocation runs inline in one frame; with a (small) one the outbox
/// round, the state flush and the completion each park on their due time and
/// are resumed from the mesh's due-time heap. The ordering and rollback
/// rules must hold identically on both.
fn latency_arms() -> [LatencyProfile; 2] {
    [
        LatencyProfile::ZERO,
        DeploymentProfile::ClusterDev.latency_profile().scaled(0.2),
    ]
}

/// `config` under `latency`.
fn with_latency(config: MeshConfig, latency: LatencyProfile) -> MeshConfig {
    MeshConfig { latency, ..config }
}

/// What the sinks saw, in arrival order.
type Seen = Arc<Mutex<Vec<String>>>;

/// Everything the test actors share with the test body.
#[derive(Clone, Default)]
struct Shared {
    seen: Seen,
    /// Executions of the methods that kill their own component on the first.
    attempts: Arc<AtomicU64>,
    /// Set once the mesh exists, so a handler can kill its own component.
    mesh: Arc<OnceLock<Mesh>>,
}

impl Shared {
    fn seen(&self) -> Vec<String> {
        self.seen.lock().unwrap().clone()
    }
}

fn sink(id: impl std::fmt::Display) -> ActorRef {
    ActorRef::new("Sink", format!("s{id}"))
}

struct Sink {
    seen: Seen,
}

impl Actor for Sink {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "got" | "ask" => {
                let label = args[0].as_str().unwrap_or("?").to_owned();
                self.seen.lock().unwrap().push(label);
                Ok(Outcome::value(Value::Null))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

struct Teller {
    shared: Shared,
}

impl Teller {
    /// Kills the component running this handler — on the first execution
    /// only, so the re-homed retry runs to completion.
    fn die_on_first_attempt(&self, ctx: &ActorContext<'_>) -> u64 {
        let attempt = self.shared.attempts.fetch_add(1, Ordering::SeqCst);
        if attempt == 0 {
            let mesh = self.shared.mesh.get().expect("mesh registered");
            mesh.kill_component(ctx.component_id());
        }
        attempt
    }
}

impl Actor for Teller {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        let told = |label: &str| vec![Value::from(label)];
        match method {
            "fanout" => {
                for i in 0..args[0].as_i64().unwrap_or(0) {
                    ctx.tell(&sink(i), "got", told(&format!("fanout-{i}")))?;
                }
                Ok(Outcome::value(Value::Null))
            }
            "ordered" => {
                ctx.tell(&sink(0), "got", told("first"))?;
                ctx.tell(&sink(0), "got", told("second"))?;
                Ok(Outcome::value(Value::Null))
            }
            "tell_then_call" => {
                ctx.tell(&sink(0), "got", told("told"))?;
                Ok(ctx.call_then(&sink(0), "ask", told("called"), |_, asked| {
                    asked.map(Outcome::value)
                }))
            }
            // Wakes `args[0]` relaying tellers in one round, wave `args[1]`.
            "wake" => {
                for i in 0..args[0].as_i64().unwrap_or(0) {
                    let relay = ActorRef::new("Teller", format!("p{i}"));
                    ctx.tell(&relay, "relay", vec![args[1].clone()])?;
                }
                Ok(Outcome::value(Value::Null))
            }
            // One tell to the relay sink, labelled with the teller and wave.
            "relay" => {
                let wave = args[0].as_i64().unwrap_or(0);
                let label = format!("{}-{wave}", ctx.self_ref().actor_id());
                ctx.tell(&sink("relay"), "got", told(&label))?;
                Ok(Outcome::value(Value::Null))
            }
            "tell_then_fail" => {
                ctx.tell(&sink(0), "got", told("survives"))?;
                Err(KarError::application("the handler failed after its tell"))
            }
            "tell_then_die" => {
                // The tell is issued on every attempt, *before* the kill.
                let attempt = self.shared.attempts.load(Ordering::SeqCst);
                ctx.tell(&sink(0), "got", told(&format!("attempt-{attempt}")))?;
                self.die_on_first_attempt(ctx);
                Ok(Outcome::value(Value::Null))
            }
            // The first invariant's handler, `if !done { tell; set done }`,
            // when the round cannot be made durable on the first attempt: no
            // component hosts `Nowhere`, so its placement fails and —
            // all-or-nothing — the sink's tell stays behind too.
            // Modes 1 and 2 make the round leave (and fail) with a nested
            // call whose continuation ignores the error: in mode 1 the
            // guarded write is made by that continuation, after the failed
            // round; in mode 2 by the handler, before it.
            "guarded_round_fails_once" => {
                let attempt = self.shared.attempts.fetch_add(1, Ordering::SeqCst);
                let mode = args[0].as_i64().unwrap_or(0);
                ctx.state().set("before", Value::Int(attempt as i64))?;
                if ctx.state().get("done")?.is_none() {
                    ctx.tell(&sink(0), "got", told("guarded"))?;
                    if attempt == 0 {
                        ctx.tell(&ActorRef::new("Nowhere", "x"), "got", told("lost"))?;
                        if mode == 1 {
                            return Ok(ctx.call_then(&sink(1), "ask", told("never"), |ctx, _| {
                                ctx.state().set("done", Value::Int(1))?;
                                Ok(Outcome::value(Value::Null))
                            }));
                        }
                    }
                    ctx.state().set("done", Value::Int(1))?;
                    if attempt == 0 && mode == 2 {
                        return Ok(ctx.call_then(&sink(1), "ask", told("never"), |_, _| {
                            Ok(Outcome::value(Value::Null))
                        }));
                    }
                }
                Ok(Outcome::value(Value::Null))
            }
            // The guarded handler, one sink per teller.
            "guarded_own_sink" => {
                if ctx.state().get("done")?.is_none() {
                    let id = ctx.self_ref().actor_id().to_owned();
                    ctx.tell(&sink(&id), "got", told(&id))?;
                    ctx.state().set("done", Value::Int(1))?;
                }
                Ok(Outcome::value(Value::Null))
            }
            // A tail-call chain alternating between this actor and a peer.
            "chain" => match args[0].as_i64().unwrap_or(0) {
                0 => {
                    self.shared.seen.lock().unwrap().push("chain-done".into());
                    Ok(Outcome::value(Value::Null))
                }
                left if left % 2 == 0 => {
                    Ok(ctx.tail_call_self("chain", vec![Value::Int(left - 1)]))
                }
                left => Ok(ctx.tail_call(
                    &ActorRef::new("Teller", format!("peer-{left}")),
                    "chain",
                    vec![Value::Int(left - 1)],
                )),
            },
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

fn host(shared: &Shared) -> impl FnOnce(ComponentBuilder) -> ComponentBuilder {
    let (for_sink, for_teller) = (shared.clone(), shared.clone());
    move |builder| {
        builder
            .host("Sink", move || {
                Box::new(Sink {
                    seen: Arc::clone(&for_sink.seen),
                })
            })
            .host("Teller", move || {
                Box::new(Teller {
                    shared: for_teller.clone(),
                })
            })
    }
}

/// A mesh of `servers` components, each hosting both actor types.
fn mesh_with(config: MeshConfig, servers: usize) -> (Mesh, Shared, Vec<ComponentId>) {
    let shared = Shared::default();
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let components = (0..servers)
        .map(|index| mesh.add_component(node, &format!("server-{index}"), host(&shared)))
        .collect();
    assert!(shared.mesh.set(mesh.clone()).is_ok());
    (mesh, shared, components)
}

/// The component `actor` is placed on.
fn placement_of(mesh: &Mesh, actor: &ActorRef) -> ComponentId {
    let key = format!("placement/{}", actor.qualified_name());
    let raw = mesh
        .store()
        .admin_get(&key)
        .and_then(|value| value.as_i64())
        .unwrap_or_else(|| panic!("{actor} is not placed"));
    ComponentId::from_raw(raw as u64)
}

/// Polls `done` for up to five seconds (tells are asynchronous; trims ride
/// the timer tick).
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_handler_telling_many_actors_on_several_components_makes_one_request_flush() {
    const SINKS: i64 = 6;
    let (mesh, shared, _) = mesh_with(MeshConfig::default(), 3);
    let client = mesh.client();
    let teller = ActorRef::new("Teller", "t");
    // Warm up: place the teller and every sink, so the measured call is
    // nothing but the handler and its outbox.
    client.call(&teller, "fanout", vec![Value::Int(0)]).unwrap();
    for i in 0..SINKS {
        client
            .call(&sink(i), "ask", vec![Value::from("warm")])
            .unwrap();
    }
    let destinations: std::collections::BTreeSet<ComponentId> =
        (0..SINKS).map(|i| placement_of(&mesh, &sink(i))).collect();
    assert!(
        destinations.len() > 1,
        "the sinks must spread over several components: {destinations:?}"
    );
    let home = placement_of(&mesh, &teller);
    let before = mesh.request_batch_stats(home).unwrap();
    client
        .call(&teller, "fanout", vec![Value::Int(SINKS)])
        .unwrap();
    // The call's completion follows the outbox round: every tell is already
    // counted, and durable, when the caller sees the result.
    let after = mesh.request_batch_stats(home).unwrap();
    assert_eq!(after.0 - before.0, SINKS as u64, "every tell is enqueued");
    assert_eq!(
        after.1 - before.1,
        1,
        "{SINKS} tells to {} components must leave in one request flush",
        destinations.len()
    );
    eventually("every sink got its tell", || {
        shared
            .seen()
            .iter()
            .filter(|l| l.starts_with("fanout-"))
            .count()
            == SINKS as usize
    });
    // The same round in the operator's view.
    let report = mesh.debug_report();
    assert!(
        report.contains(&format!(
            "outbox: rounds=1 records={SINKS} partitions_per_round_max="
        )),
        "no outbox line for the round:\n{report}"
    );
    mesh.shutdown();
}

#[test]
fn tells_from_one_component_to_one_partition_share_a_round_under_ack_latency() {
    // Tellers pinned on one component, woken together by one round of a
    // starter pinned on the other, each tell the same sink: their one-tell
    // outboxes reach the sink's partition within microseconds of each
    // other, so all but the first meet the first one's ack in flight and
    // ride the partition's next run instead of paying acks of their own.
    const TELLERS: usize = 4;
    const WAVES: usize = 3;
    let latency = DeploymentProfile::ClusterDev.latency_profile();
    let (mesh, shared, servers) = mesh_with(with_latency(MeshConfig::default(), latency), 2);
    let pin = |actor: &ActorRef, on: ComponentId| {
        mesh.store().admin_set(
            &kar::placement::placement_key(actor),
            kar::placement::component_to_value(on),
        )
    };
    for i in 0..TELLERS {
        pin(&ActorRef::new("Teller", format!("p{i}")), servers[0]);
    }
    let starter = ActorRef::new("Teller", "starter");
    pin(&starter, servers[1]);
    let client = mesh.client();
    let before = mesh.request_batch_stats(servers[0]).unwrap();
    for wave in 0..WAVES {
        let args = vec![Value::Int(TELLERS as i64), Value::Int(wave as i64)];
        client.call(&starter, "wake", args).unwrap();
    }
    let tells = (TELLERS * WAVES) as u64;
    let sent = || mesh.request_batch_stats(servers[0]).unwrap().0 - before.0;
    eventually("every relayed tell was acknowledged", || sent() == tells);
    eventually("every relayed tell arrived", || {
        shared.seen().len() == tells as usize
    });
    let rounds = mesh.request_batch_stats(servers[0]).unwrap().1 - before.1;
    assert!(
        rounds < tells,
        "{tells} tells from {TELLERS} tellers per wave took {rounds} rounds: none shared one"
    );
    // Give a duplicate every chance to surface: each tell arrives exactly
    // once, and each teller's in the order it sent them.
    std::thread::sleep(Duration::from_millis(20));
    let seen = shared.seen();
    assert_eq!(seen.len(), tells as usize, "{seen:?}");
    for i in 0..TELLERS {
        let sender = format!("p{i}-");
        let arrived: Vec<&String> = seen.iter().filter(|l| l.starts_with(&sender)).collect();
        let sent: Vec<String> = (0..WAVES).map(|wave| format!("p{i}-{wave}")).collect();
        assert_eq!(arrived, sent.iter().collect::<Vec<_>>(), "{seen:?}");
    }
    mesh.shutdown();
}

#[test]
fn tells_keep_program_order_and_precede_the_nested_call_they_were_issued_before() {
    for latency in latency_arms() {
        let (mesh, shared, _) = mesh_with(with_latency(MeshConfig::default(), latency), 2);
        let client = mesh.client();
        let teller = ActorRef::new("Teller", "t");
        client.call(&teller, "ordered", vec![]).unwrap();
        eventually("both tells arrived", || shared.seen().len() == 2);
        assert_eq!(shared.seen(), vec!["first", "second"], "{latency:?}");

        // `tell; call_then` towards one actor: both requests ride one round,
        // the tell's record ahead of the call's in the actor's partition — so
        // the call's response proves the tell, issued first, ran before it.
        client.call(&teller, "tell_then_call", vec![]).unwrap();
        assert_eq!(shared.seen()[2..], ["told", "called"], "{latency:?}");
        mesh.shutdown();
    }
}

#[test]
fn a_handler_that_fails_after_a_tell_still_delivers_it() {
    let (mesh, shared, _) = mesh_with(MeshConfig::default(), 2);
    let client = mesh.client();
    let error = client
        .call(&ActorRef::new("Teller", "t"), "tell_then_fail", vec![])
        .unwrap_err();
    assert!(
        error.to_string().contains("failed after its tell"),
        "the application error must reach the caller unchanged: {error}"
    );
    eventually("the failed handler's tell arrived", || {
        shared.seen() == vec!["survives"]
    });
    mesh.shutdown();
}

#[test]
fn an_attempt_killed_mid_run_publishes_none_of_its_tells() {
    let (mesh, shared, _) = mesh_with(MeshConfig::for_tests(), 2);
    let client = mesh.client();
    // Attempt 0 tells, then its component dies under it; the request is
    // re-homed and attempt 1 runs to completion on the survivor.
    client
        .call(&ActorRef::new("Teller", "t"), "tell_then_die", vec![])
        .unwrap();
    eventually("the retry's tell arrived", || !shared.seen().is_empty());
    // Give a stray record of the dead attempt every chance to surface.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        shared.seen(),
        vec!["attempt-1"],
        "the killed attempt must publish nothing"
    );
    assert_eq!(mesh.recoveries(), 1);
    mesh.shutdown();
}

#[test]
fn a_failed_round_rolls_back_the_state_written_behind_its_tells() {
    // `if !done { tell; set done }` when the round fails and the component
    // lives: the attempt fails, and `done` must not be flushed with it — the
    // retry has to find it unset and tell again: the buffered write is
    // rolled back. Modes 1 and 2: the round fails with a nested call whose
    // continuation ignores the error — and, in mode 1, goes on to make the
    // guarded write itself; the invocation still fails.
    for (latency, mode) in latency_arms()
        .into_iter()
        .flat_map(|latency| [0, 1, 2].map(|mode| (latency, mode)))
    {
        let config = with_latency(MeshConfig::for_tests(), latency);
        let (mesh, shared, _) = mesh_with(config, 2);
        let policy = RetryPolicy::fixed(3, Duration::from_millis(5)).retry_all_errors();
        let which = format!("mode={mode} hop={:?}", latency.sidecar_hop);
        mesh.client()
            .call_with_policy(
                &ActorRef::new("Teller", "t"),
                "guarded_round_fails_once",
                vec![Value::Int(mode)],
                policy,
            )
            .unwrap_or_else(|error| panic!("{which}: {error}"));
        assert_eq!(shared.attempts.load(Ordering::SeqCst), 2, "{which}");
        eventually("the retry's tell arrived", || !shared.seen().is_empty());
        std::thread::sleep(Duration::from_millis(50));
        // Exactly once: the failed round appended nothing (all-or-nothing),
        // the retry told again because `done` was not persisted.
        assert_eq!(shared.seen(), vec!["guarded"], "{which}");
        let state = mesh.store().admin_hgetall("state/Teller/t");
        assert_eq!(state.get("done"), Some(&Value::Int(1)), "{which}");
        // A write made before the first tell guards nothing and is kept.
        assert_eq!(state.get("before"), Some(&Value::Int(1)), "{which}");
        mesh.shutdown();
    }
}

#[test]
fn rounds_out_of_transient_replays_never_lose_a_guarded_tell() {
    // Half of all appends fail transiently, so about one outbox round in
    // eight fails all its local replays (`TRANSIENT_ATTEMPTS` = 3) and flows
    // into retry orchestration with the component alive. Every teller runs
    // the first invariant's handler towards a sink of its own: whatever
    // fails on the way, a teller whose call succeeded has persisted `done`,
    // so its sink must have been told.
    const TELLERS: usize = 48;
    for latency in latency_arms() {
        let plan = FaultPlan::new(15).with_site(FaultSite::BrokerAppend, FaultSpec::transient(0.5));
        let config = with_latency(MeshConfig::for_tests().with_fault_plan(plan), latency);
        let (mesh, shared, _) = mesh_with(config, 2);
        let client = mesh.client();
        let policy = RetryPolicy::exponential(8, Duration::from_millis(2)).retry_all_errors();
        for i in 0..TELLERS {
            let teller = ActorRef::new("Teller", format!("g{i}"));
            // The client's own request append can run out of replays too.
            let mut tries = 0;
            while let Err(error) =
                client.call_with_policy(&teller, "guarded_own_sink", vec![], policy.clone())
            {
                tries += 1;
                assert!(tries < 20, "teller {i} never got through: {error}");
            }
        }
        let faults = mesh.fault_stats().expect("plan armed");
        assert!(
            faults.site(FaultSite::BrokerAppend).transient > TELLERS as u64,
            "the plan must have bitten: {faults:?}"
        );
        eventually("every guarded tell arrived", || {
            let seen = shared.seen();
            (0..TELLERS).all(|i| seen.contains(&format!("g{i}")))
        });
        mesh.shutdown();
    }
}

#[test]
fn a_tell_rooted_tail_call_chain_parks_no_response_and_leaves_trimmable_logs() {
    // A 60 s call timeout: an unroutable terminal response parked "until the
    // caller is re-placed" would sit there for the whole test.
    let mut config = MeshConfig::for_tests();
    config.call_timeout = Duration::from_secs(60);
    // Nothing expires by age within the test: whatever leaves a log was
    // trimmed as settled.
    config.retention = Duration::from_secs(400_000);
    let (mesh, shared, servers) = mesh_with(config, 2);
    let client = mesh.client();
    client
        .tell(
            &ActorRef::new("Teller", "root"),
            "chain",
            vec![Value::Int(5)],
        )
        .unwrap();
    eventually("the chain ran to its end", || {
        shared.seen() == vec!["chain-done"]
    });
    let report = mesh.debug_report();
    assert!(
        !report.contains("orphan_responses=1"),
        "the chain's terminal completion was parked as an orphan:\n{report}"
    );
    assert!(report.contains("orphan_responses=0"), "{report}");
    // Every record of the chain settles — the tell's and each successor's
    // by the next hop's acknowledged append, the terminal hop's when it
    // finishes — so every server log trims to nothing.
    let broker = mesh.broker();
    let partitions: Vec<usize> = servers
        .iter()
        .flat_map(|server| mesh.partition_set(*server).unwrap().home().to_vec())
        .collect();
    eventually("the servers' logs trimmed to nothing", || {
        partitions
            .iter()
            .all(|partition| broker.partition_len(TOPIC, *partition) == 0)
    });
    mesh.shutdown();
}
