//! Idle-actor passivation and admission watermarks, end to end:
//!
//! 1. **Lifecycle** — an actor idle past the (compressed) retention window
//!    is flushed and dropped from memory; the next request rehydrates it
//!    through the ordinary placement/admission path with its durable state
//!    intact, and `Mesh::debug_report` exposes the resident-set counters.
//! 2. **Aged-bookkeeping pin** — a passivated-then-rehydrated actor must
//!    not resurrect a stale dedup entry: sequence-numbered
//!    records stay exactly-once and in order across passivation,
//!    rehydration, *and* a kill/recovery of the hosting component
//!    (recovery treats a passivated actor exactly like one it never saw).
//! 3. **Seeded chaos** — components are killed at seeded random times
//!    while actors cycle busy → idle → passivated under store latency wide
//!    enough for kills to land mid-passivation-flush; acknowledged records
//!    stay exactly-once and FIFO, and the sweep still runs afterwards.
//! 4. **Watermarks** — past the hard resident watermark, new-actor
//!    activations are deferred with shaped backoff and re-queued (never
//!    dropped), drain as passivation frees slots, and the resident set
//!    settles back under the soft watermark once load subsides.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{chaos_seed, SplitMix64};
use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, ComponentId, KarError, KarResult, Value};

/// A durable event log with ordering verification built into the actor (the
/// same shape the dispatch and rebalance suites use): retries dedupe, and
/// any first execution arriving out of order is recorded as a violation in
/// durable state — detected at the point it would occur, whichever replica
/// (or rehydrated instance) executes it.
struct Ledger;

impl Actor for Ledger {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "record" => {
                let i = args[0].as_i64().unwrap_or(-1);
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                if entries.iter().any(|e| e.as_i64() == Some(i)) {
                    return Ok(Outcome::value("dup"));
                }
                if i != entries.len() as i64 {
                    ctx.state().set(
                        "violation",
                        Value::from(format!(
                            "record {i} arrived with {} entries applied",
                            entries.len()
                        )),
                    )?;
                }
                entries.push(Value::Int(i));
                ctx.state().set("log", Value::List(entries))?;
                Ok(Outcome::value("ok"))
            }
            "push" => {
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                entries.push(args[0].clone());
                ctx.state().set("log", Value::List(entries))?;
                Ok(Outcome::value(Value::Null))
            }
            "read" => Ok(Outcome::value(
                ctx.state().get("log")?.unwrap_or(Value::List(Vec::new())),
            )),
            "violation" => Ok(Outcome::value(
                ctx.state().get("violation")?.unwrap_or(Value::Null),
            )),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// `for_tests` with the retention clock shrunk so a passivation window
/// (one compressed retention) is `window_ms` of wall clock, instead of the
/// default 3 s. Everything sharing the clock (dedup aging, tombstones,
/// retirement) scales with it.
fn fast_passivation_config(window_ms: u64) -> MeshConfig {
    let mut config = MeshConfig::for_tests();
    config.retention = Duration::from_millis(window_ms * 200);
    config
}

/// Polls `condition` until it holds or `deadline` elapses; panics with
/// `what` on timeout.
fn wait_until(deadline: Duration, what: &str, mut condition: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !condition() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sum of `(passivations, rehydrations, admission_deferrals)` over the live
/// components of `mesh`.
fn total_passivation_stats(mesh: &Mesh) -> (u64, u64, u64) {
    mesh.live_components()
        .into_iter()
        .filter_map(|c| mesh.passivation_stats(c))
        .fold((0, 0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2))
}

#[test]
fn idle_actor_passivates_and_rehydrates_with_state_intact() {
    // 200 ms passivation window.
    let mesh = Mesh::new(fast_passivation_config(200));
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    let target = ActorRef::new("Ledger", "sleepy");

    for i in 0..3 {
        client.call(&target, "push", vec![Value::Int(i)]).unwrap();
    }
    assert_eq!(mesh.resident_actors(server), Some(1));

    // Idle for one to two windows: the sweep flushes and drops the slot.
    wait_until(Duration::from_secs(10), "the actor to passivate", || {
        mesh.passivation_stats(server).unwrap().0 >= 1
    });
    assert_eq!(
        mesh.resident_actors(server),
        Some(0),
        "passivated actor still resident"
    );
    let report = mesh.debug_report();
    assert!(
        report.contains("passivations=1"),
        "debug_report missing passivation counters:\n{report}"
    );
    assert!(
        report.contains("resident=0"),
        "debug_report missing resident set:\n{report}"
    );

    // The next request rehydrates through the ordinary admission path with
    // the flushed state intact.
    let log = client.call(&target, "read", vec![]).unwrap();
    let entries = log.as_list().map(<[Value]>::to_vec).unwrap();
    assert_eq!(
        entries,
        vec![Value::Int(0), Value::Int(1), Value::Int(2)],
        "state lost across passivation"
    );
    let (_, rehydrations, _) = mesh.passivation_stats(server).unwrap();
    assert!(rehydrations >= 1, "rehydration not counted");
    assert_eq!(mesh.resident_actors(server), Some(1));
    mesh.shutdown();
}

#[test]
fn rehydration_resurrects_no_stale_bookkeeping_across_recovery() {
    // The aged-lifetime pin: dedup entries age on a clock twice as long as
    // the passivation window, so a passivated-then-rehydrated actor can
    // never replay a completed request — including when a recovery re-homes
    // it in between.
    let mesh = Mesh::new(fast_passivation_config(400));
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    let target = ActorRef::new("Ledger", "pin");

    for i in 0..10 {
        client.call(&target, "record", vec![Value::Int(i)]).unwrap();
    }
    wait_until(Duration::from_secs(10), "the actor to passivate", || {
        mesh.passivation_stats(server).unwrap().0 >= 1
    });

    // Rehydrate and extend the log.
    for i in 10..20 {
        client.call(&target, "record", vec![Value::Int(i)]).unwrap();
    }
    assert!(mesh.passivation_stats(server).unwrap().1 >= 1);

    // Kill the hosting component mid-life; the replacement must see the
    // passivated actor exactly like one it has never seen.
    let node2 = mesh.add_node();
    mesh.add_component(node2, "replacement", |c| {
        c.host("Ledger", || Box::new(Ledger))
    });
    mesh.kill_component(server);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    for i in 20..30 {
        client.call(&target, "record", vec![Value::Int(i)]).unwrap();
    }

    assert_eq!(
        client.call(&target, "violation", vec![]).unwrap(),
        Value::Null,
        "out-of-order execution after rehydration"
    );
    let log = client.call(&target, "read", vec![]).unwrap();
    let entries = log.as_list().map(<[Value]>::to_vec).unwrap();
    assert_eq!(entries.len(), 30, "a record was lost or replayed");
    for (expected, entry) in entries.iter().enumerate() {
        assert_eq!(entry.as_i64(), Some(expected as i64), "log out of order");
    }
    mesh.shutdown();
}

#[test]
fn seeded_kills_during_passivation_keep_exactly_once_and_fifo() {
    const ACTORS: usize = 4;
    const CALLS: i64 = 30;

    let seed = chaos_seed(0x00C0_FFEE_5EED);
    println!("passivation chaos seed: {seed:#x} (pin with KAR_CHAOS_SEED)");
    let mut rng = SplitMix64::new(seed);

    // 300 ms passivation window, and 1 ms per store operation so a
    // passivation flush is a real window for a kill to land in.
    let mut config = fast_passivation_config(300);
    config.latency.store_op = Duration::from_millis(1);
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    mesh.add_component(node, "replica-a", |c| c.host("Ledger", || Box::new(Ledger)));
    mesh.add_component(node, "replica-b", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let kill_delays: Vec<u64> = (0..4).map(|_| rng.below(120, 320)).collect();
    let chaos_stop = stop.clone();
    let chaos_mesh = mesh.clone();
    let client_component = client.component_id();
    let chaos = std::thread::spawn(move || {
        for (round, delay) in kill_delays.into_iter().enumerate() {
            std::thread::sleep(Duration::from_millis(delay));
            if chaos_stop.load(Ordering::SeqCst) {
                return;
            }
            let victims: Vec<ComponentId> = chaos_mesh
                .live_components()
                .into_iter()
                .filter(|c| *c != client_component)
                .collect();
            if let Some(victim) = victims.into_iter().next_back() {
                chaos_mesh.kill_component(victim);
                let node = chaos_mesh.add_node();
                chaos_mesh.add_component(node, &format!("replacement-{round}"), |c| {
                    c.host("Ledger", || Box::new(Ledger))
                });
            }
        }
    });

    // Per-actor drivers issue sequence-numbered records, pausing past the
    // passivation window partway through so their actor goes idle, gets
    // swept, and must rehydrate mid-sequence — while kills land at the
    // seeded times, including during sweeps.
    let pauses: Vec<u64> = (0..ACTORS).map(|_| rng.below(350, 650)).collect();
    let drivers: Vec<_> = (0..ACTORS)
        .map(|actor| {
            let client = client.clone();
            let pause = pauses[actor];
            std::thread::spawn(move || {
                let target = ActorRef::new("Ledger", format!("chaos-{actor}"));
                for i in 0..CALLS {
                    if i == CALLS / 2 {
                        std::thread::sleep(Duration::from_millis(pause));
                    }
                    client.call(&target, "record", vec![Value::Int(i)]).unwrap();
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    chaos.join().unwrap();

    for actor in 0..ACTORS {
        let target = ActorRef::new("Ledger", format!("chaos-{actor}"));
        assert_eq!(
            client.call(&target, "violation", vec![]).unwrap(),
            Value::Null,
            "actor chaos-{actor} observed out-of-order execution (seed {seed:#x})"
        );
        let log = client.call(&target, "read", vec![]).unwrap();
        let entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
        assert_eq!(
            entries.len() as i64,
            CALLS,
            "actor chaos-{actor}: acknowledged records applied {} times, expected {CALLS} \
             (seed {seed:#x})",
            entries.len()
        );
        for (expected, entry) in entries.iter().enumerate() {
            assert_eq!(
                entry.as_i64(),
                Some(expected as i64),
                "actor chaos-{actor} log out of order (seed {seed:#x})"
            );
        }
    }

    // The sweep survived the chaos: the actors idle out and passivate on
    // the surviving components.
    wait_until(Duration::from_secs(10), "post-chaos passivation", || {
        total_passivation_stats(&mesh).0 >= 1
    });
    mesh.shutdown();
}

#[test]
fn hard_watermark_defers_activations_and_drains_without_drops() {
    const ACTORS: usize = 12;

    // 200 ms window; at most 4 resident actors, sweep eager past 2.
    let config = fast_passivation_config(200).with_resident_watermarks(2, 4);
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    // 12 concurrent activations against a hard watermark of 4: the excess
    // is shed with shaped backoff and re-queued, never dropped — every
    // blocking call must come back acknowledged as passivation frees slots.
    // A sampler watches the resident count meanwhile: admission checks the
    // watermark under the actors lock, so the set never exceeds it.
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (mesh, done) = (mesh.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(mesh.resident_actors(server).unwrap_or(0));
                std::thread::sleep(Duration::from_micros(200));
            }
            peak
        })
    };
    let drivers: Vec<_> = (0..ACTORS)
        .map(|actor| {
            let client = client.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Ledger", format!("cold-{actor}"));
                client.call(&target, "push", vec![Value::Int(1)]).unwrap();
                client.call(&target, "push", vec![Value::Int(2)]).unwrap();
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let peak = sampler.join().unwrap();
    assert!(
        (1..=4).contains(&peak),
        "resident set peaked at {peak} against a hard watermark of 4"
    );

    let (passivations, _, deferrals) = mesh.passivation_stats(server).unwrap();
    assert!(
        deferrals >= 1,
        "12 actors admitted against a hard watermark of 4 without a deferral"
    );
    assert!(
        passivations >= (ACTORS as u64).saturating_sub(4),
        "deferred activations drained without passivation making room: {passivations}"
    );

    // Every acknowledged call was applied exactly once, in order, despite
    // the deferrals and evictions in between.
    for actor in 0..ACTORS {
        let target = ActorRef::new("Ledger", format!("cold-{actor}"));
        let log = client.call(&target, "read", vec![]).unwrap();
        let entries = log.as_list().map(<[Value]>::to_vec).unwrap();
        assert_eq!(
            entries,
            vec![Value::Int(1), Value::Int(2)],
            "actor cold-{actor} log wrong after deferred admission"
        );
    }

    // Load has subsided: the sweep settles the resident set back under the
    // soft watermark (all the way to zero, since everything is idle).
    wait_until(
        Duration::from_secs(10),
        "the resident set to drain under the soft watermark",
        || mesh.resident_actors(server).unwrap() <= 2,
    );
    mesh.shutdown();
}

#[test]
fn soft_watermark_keeps_resident_set_bounded_under_churn() {
    const ACTORS: usize = 48;

    // 300 ms window, soft watermark 8 with plenty of hard headroom: the
    // sweep turns eager (coldest first) instead of waiting out the idle
    // clock, but admission is never deferred.
    let config = fast_passivation_config(300)
        .with_resident_watermarks(8, 1024)
        .with_partitions_per_component(4);
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    for actor in 0..ACTORS {
        let target = ActorRef::new("Ledger", format!("churn-{actor}"));
        client.call(&target, "push", vec![Value::Int(1)]).unwrap();
    }
    let (_, _, deferrals) = mesh.passivation_stats(server).unwrap();
    assert_eq!(deferrals, 0, "soft watermark must not defer admissions");

    // The eager sweep pulls the set under the watermark without waiting for
    // the full idle window per actor.
    wait_until(
        Duration::from_secs(10),
        "the eager sweep to reach the soft watermark",
        || mesh.resident_actors(server).unwrap() <= 8,
    );
    let (passivations, _, _) = mesh.passivation_stats(server).unwrap();
    assert!(
        passivations >= (ACTORS as u64) - 8,
        "eager sweep passivated only {passivations}"
    );

    // Rehydration still works for an evicted-cold actor.
    let log = client
        .call(&ActorRef::new("Ledger", "churn-0"), "read", vec![])
        .unwrap();
    assert_eq!(log.as_list().map(<[Value]>::len), Some(1));
    mesh.shutdown();
}
