//! Deterministic-simulation replay guarantees: the same `(seed, config,
//! workload)` triple runs the same execution twice — byte-identical event
//! traces, identical final debug-report counters — including under injected
//! component kills driven as scheduler events, and across a nested call whose
//! round waits out a stale placement parked on the reactor lane.

use std::time::Duration;

use kar::placement::{component_to_value, placement_key};
use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarError, KarResult, Value};

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
                ctx.state().get("key")?.unwrap_or(Value::Int(0)),
            )),
            "set" => {
                ctx.state().set("key", args[0].clone())?;
                Ok(Outcome::value("OK"))
            }
            "incr" => {
                let value = ctx
                    .state()
                    .get("key")?
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0);
                Ok(ctx.tail_call_self("set", vec![Value::Int(value + 1)]))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// Bumps a counter of its own through a nested call and records how often it
/// was answered.
struct Via;

impl Actor for Via {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "bump" => {
                let far = ActorRef::new("Counter", "far");
                Ok(ctx.call_then(&far, "incr", vec![], |ctx, answer| {
                    answer?;
                    let state = ctx.state();
                    let bumps = state.get("bumps")?.and_then(|v| v.as_i64()).unwrap_or(0);
                    state.set("bumps", Value::Int(bumps + 1))?;
                    Ok(Outcome::value(Value::Int(bumps + 1)))
                }))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// One simulated run across a stale placement: `Via/v` lives on alpha, the
/// counter it bumps on beta; beta is killed and recovered from, and the
/// counter's placement is pinned back onto it — what a caller sees between a
/// rebalance and the reconciliation's rewrite (in the simulator the recovery
/// lane runs both in one step, so the window has to be held open by hand).
/// A told `bump` then meets the stale placement on the reactor lane: its
/// round parks on the virtual clock and is retried until the test — at a
/// fixed step — repairs the placement.
fn run_stale_placement(seed: u64) -> (Vec<String>, String, i64) {
    let mesh = Mesh::new(MeshConfig::deterministic(seed));
    let node = mesh.add_node();
    let alpha = mesh.add_component(node, "alpha", |b| {
        b.host("Counter", || Box::new(Accumulator))
            .host("Via", || Box::new(Via))
    });
    let beta = mesh.add_component(node, "beta", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    let far = ActorRef::new("Counter", "far");
    let placed_on = |component: kar_types::ComponentId| {
        mesh.store()
            .admin_set(&placement_key(&far), component_to_value(component));
    };
    let bumps = || {
        mesh.store()
            .admin_hgetall("state/Via/v")
            .get("bumps")
            .and_then(Value::as_i64)
            .unwrap_or(0)
    };
    let client = mesh.client();
    let via = ActorRef::new("Via", "v");
    placed_on(beta);
    assert_eq!(client.call(&via, "bump", vec![]).unwrap(), Value::Int(1));
    mesh.sim_schedule_kill(mesh.sim_step_count() + 5, beta);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(120)));
    placed_on(beta);
    client.tell(&via, "bump", vec![]).unwrap();
    // 200 steps: the round is tried, parked and retried many times over.
    mesh.sim_steps(200);
    assert_eq!(bumps(), 1, "the bump went through a stale placement");
    placed_on(alpha);
    assert!(
        mesh.sim_run_until(|| bumps() == 2, 100_000),
        "never repaired"
    );
    let value = client.call(&far, "get", vec![]).expect("get");
    let trace = mesh.sim_take_trace();
    let report = mesh.debug_report();
    mesh.shutdown();
    (
        trace,
        report,
        value.as_i64().expect("counter value is an int"),
    )
}

/// One simulated run: a two-component mesh, a handful of increments spread
/// over three actors, final reads. Returns everything observable about the
/// execution, and how many response-batcher flushes the servers performed.
fn run_quiet(seed: u64) -> (Vec<String>, String, Vec<i64>, u64) {
    let mesh = Mesh::new(MeshConfig::deterministic(seed));
    let node = mesh.add_node();
    let servers = [
        mesh.add_component(node, "alpha", |b| {
            b.host("Counter", || Box::new(Accumulator))
        }),
        mesh.add_component(node, "beta", |b| {
            b.host("Counter", || Box::new(Accumulator))
        }),
    ];
    let client = mesh.client();
    for i in 0..9 {
        let actor = ActorRef::new("Counter", format!("c{}", i % 3));
        client
            .call(&actor, "incr", vec![])
            .expect("incr cannot fail in a quiet run");
    }
    let mut values = Vec::new();
    for i in 0..3 {
        let actor = ActorRef::new("Counter", format!("c{i}"));
        let value = client.call(&actor, "get", vec![]).expect("get");
        values.push(value.as_i64().expect("counter value is an int"));
    }
    let trace = mesh.sim_take_trace();
    let report = mesh.debug_report();
    let flushes = servers
        .iter()
        .map(|server| mesh.response_batch_stats(*server).unwrap().1)
        .sum();
    mesh.shutdown();
    (trace, report, values, flushes)
}

/// One simulated chaos run: kill the first component at a scheduled step
/// mid-workload, wait for recovery, finish the workload.
fn run_chaos(seed: u64, kill_step: u64) -> (Vec<String>, String, Vec<i64>, usize) {
    let mesh = Mesh::new(MeshConfig::deterministic(seed));
    let node = mesh.add_node();
    let alpha = mesh.add_component(node, "alpha", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    mesh.add_component(node, "beta", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    let client = mesh.client();
    for i in 0..6 {
        let actor = ActorRef::new("Counter", format!("c{}", i % 3));
        client.call(&actor, "incr", vec![]).expect("warm-up incr");
    }
    mesh.sim_schedule_kill(mesh.sim_step_count() + kill_step, alpha);
    let recovered = mesh.wait_for_recoveries(1, Duration::from_secs(120));
    assert!(recovered, "recovery must complete in virtual time");
    for i in 0..6 {
        let actor = ActorRef::new("Counter", format!("c{}", i % 3));
        client.call(&actor, "incr", vec![]).expect("post-kill incr");
    }
    let mut values = Vec::new();
    for i in 0..3 {
        let actor = ActorRef::new("Counter", format!("c{i}"));
        let value = client.call(&actor, "get", vec![]).expect("get");
        values.push(value.as_i64().expect("counter value is an int"));
    }
    let trace = mesh.sim_take_trace();
    let report = mesh.debug_report();
    let recoveries = mesh.recoveries();
    mesh.shutdown();
    (trace, report, values, recoveries)
}

#[test]
fn a_quiet_run_is_exact_and_replays_byte_identically() {
    let (trace_a, report_a, values_a, flushes_a) = run_quiet(42);
    assert_eq!(values_a, vec![3, 3, 3], "9 increments over 3 actors");
    assert!(!trace_a.is_empty(), "the trace records the schedule");
    assert!(
        flushes_a > 0,
        "the simulator must run the response batcher the product ships"
    );
    let (trace_b, report_b, values_b, flushes_b) = run_quiet(42);
    assert_eq!(values_a, values_b);
    assert_eq!(flushes_a, flushes_b);
    assert_eq!(report_a, report_b, "final counters replay exactly");
    assert_eq!(trace_a, trace_b, "the schedule replays byte-identically");
}

#[test]
fn different_seeds_explore_different_schedules() {
    let (trace_a, _, values_a, _) = run_quiet(7);
    let (trace_c, _, values_c, _) = run_quiet(8);
    // Different interleavings, same answers: determinism is about replay,
    // correctness must hold on every schedule.
    assert_eq!(values_a, values_c);
    assert_ne!(trace_a, trace_c, "a new seed explores a new interleaving");
}

#[test]
fn a_chaos_run_with_a_scheduled_kill_replays_byte_identically() {
    let (trace_a, report_a, values_a, recoveries_a) = run_chaos(1234, 40);
    assert_eq!(recoveries_a, 1);
    assert_eq!(
        values_a,
        vec![4, 4, 4],
        "12 increments over 3 actors survive the kill exactly-once"
    );
    assert!(
        trace_a.iter().any(|line| line.contains("kill:")),
        "the kill is part of the recorded schedule: {trace_a:?}"
    );
    let (trace_b, report_b, values_b, recoveries_b) = run_chaos(1234, 40);
    assert_eq!(values_a, values_b);
    assert_eq!(recoveries_a, recoveries_b);
    assert_eq!(report_a, report_b);
    assert_eq!(trace_a, trace_b, "chaos replays byte-identically");
}

#[test]
fn perturbing_the_kill_step_changes_the_schedule_but_not_the_answers() {
    let (trace_a, _, values_a, _) = run_chaos(99, 25);
    let (trace_b, _, values_b, _) = run_chaos(99, 26);
    assert_eq!(values_a, values_b, "exactly-once holds at every kill point");
    assert_ne!(
        trace_a, trace_b,
        "moving the kill by one step is a different schedule"
    );
}

#[test]
fn a_stale_placement_crossed_on_the_reactor_lane_replays_byte_identically() {
    let (trace_a, report_a, value_a) = run_stale_placement(77);
    assert_eq!(value_a, 2, "both bumps landed, each exactly once");
    // Zero latency: the only thing that ever parks is the round waiting for
    // its placement — so stages resumed from the heap are its retries.
    let io = report_a
        .lines()
        .find(|line| line.starts_with("io: "))
        .expect("the report has an io line");
    assert!(
        !io.contains(" resumed=0 "),
        "the round never parked on the stale placement: {io}"
    );
    let (trace_b, report_b, value_b) = run_stale_placement(77);
    assert_eq!(value_a, value_b);
    assert_eq!(report_a, report_b, "final counters replay exactly");
    assert_eq!(trace_a, trace_b, "the schedule replays byte-identically");
}
