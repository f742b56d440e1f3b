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
//! 4. **Watermarks** — past the soft watermark an admission that activates
//!    an actor first evicts the coldest quiescent, clean resident, so churn
//!    never reaches the hard watermark; only when every resident is busy
//!    are new-actor activations deferred with shaped backoff and re-queued
//!    (never dropped), draining as residents come free.
//! 5. **Placement release** — once a passivated actor's tombstone ages out,
//!    its host releases the placement record, so the store keeps records
//!    for live work only; a released counter re-activates through the cold
//!    path and continues from its durable count, and an activation that
//!    lands while the release is in flight defers until it settles.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use common::{chaos_seed, SplitMix64};
use kar::placement::{component_to_value, placement_key};
use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, ComponentId, KarError, KarResult, LatencyProfile, Value};

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

/// A durable counter: `add` bumps it and answers the new count.
struct Counter;

impl Actor for Counter {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "add" => {
                let count = ctx.state().get("count")?.and_then(|v| v.as_i64());
                let count = count.unwrap_or(0) + 1;
                ctx.state().set("count", Value::Int(count))?;
                Ok(Outcome::value(Value::Int(count)))
            }
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

/// A gate the test opens: while it is shut, [`Gate`]'s `wait` does not
/// return, so a [`Holder`] parked on it stays busy.
type Shut = Arc<(Mutex<bool>, Condvar)>;

fn open(gate: &Shut) {
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
}

/// Answers `wait` once the gate is open (or after 20 s, so a failed test
/// cannot wedge its reactor).
struct Gate(Shut);

impl Actor for Gate {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        let (shut, opened) = &*self.0;
        let guard = shut.lock().unwrap();
        let _open = opened
            .wait_timeout_while(guard, Duration::from_secs(20), |open| !*open)
            .unwrap();
        Ok(Outcome::value(Value::Null))
    }
}

/// `hold` parks on a nested call to the gate: until the gate opens the
/// holder stays busy — neither quiescent nor evictable — without holding a
/// reactor or a consumer lane of its own component.
struct Holder;

impl Actor for Holder {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        let gate = ActorRef::new("Gate", "g");
        Ok(ctx.call_then(&gate, "wait", Vec::new(), |_ctx, result| {
            Ok(Outcome::value(result?))
        }))
    }
}

#[test]
fn hard_watermark_defers_activations_and_drains_without_drops() {
    const HOLDERS: usize = 4;
    const ACTORS: usize = 8;

    // 200 ms window; admission evicts past 2 residents and defers past 4.
    let config = fast_passivation_config(200)
        .with_resident_watermarks(2, HOLDERS)
        .with_reactor_threads(3);
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| {
        c.host("Ledger", || Box::new(Ledger))
            .host("Holder", || Box::new(Holder))
    });
    let gate: Shut = Arc::default();
    mesh.add_component(node, "gate", {
        let gate = Arc::clone(&gate);
        move |c| c.host("Gate", move || Box::new(Gate(Arc::clone(&gate))))
    });
    let client = mesh.client();

    // Fill the resident set to the hard watermark with holders parked on
    // the shut gate, one of them with a second call mailboxed behind it.
    // None of them can be evicted until the gate opens, so every activation
    // past this point is provably deferred — not by timing.
    let holders: Vec<_> = (0..=HOLDERS)
        .map(|i| {
            let client = client.clone();
            let target = ActorRef::new("Holder", format!("h{}", i % HOLDERS));
            std::thread::spawn(move || client.call(&target, "hold", Vec::new()).unwrap())
        })
        .collect();
    wait_until(Duration::from_secs(10), "the holders to park", || {
        mesh.resident_actors(server) == Some(HOLDERS)
    });

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
    wait_until(Duration::from_secs(10), "a deferred activation", || {
        mesh.passivation_stats(server).unwrap().2 >= 1
    });
    assert_eq!(
        mesh.passivation_stats(server).unwrap().0,
        0,
        "a holder parked on the gate was evicted"
    );

    // The gate opens: the holders finish, admission evicts them, and the
    // deferred activations drain — every blocking call comes back.
    open(&gate);
    for holder in holders {
        holder.join().unwrap();
    }
    for driver in drivers {
        driver.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let peak = sampler.join().unwrap();
    assert!(
        peak <= HOLDERS,
        "resident set peaked at {peak} against a hard watermark of {HOLDERS}"
    );
    // Twelve activations through four slots: at least eight evictions.
    let (passivations, _, _) = mesh.passivation_stats(server).unwrap();
    assert!(
        passivations >= ACTORS as u64,
        "deferred activations drained without evictions making room: {passivations}"
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

    // Load has subsided: the idle sweep settles the resident set back under
    // the soft watermark (all the way to zero, since everything is idle).
    wait_until(
        Duration::from_secs(10),
        "the resident set to drain under the soft watermark",
        || mesh.resident_actors(server).unwrap() <= 2,
    );
    mesh.shutdown();
}

#[test]
fn tells_to_a_cold_actor_keep_their_order_across_its_ownership_read() {
    const TELLS: i64 = 8;
    const STORE_OP: Duration = Duration::from_millis(5);
    // The simulator's one reactor on a virtual clock, with a store latency:
    // the first record of a never-activated actor parks on its ownership
    // read — its slot held — and the records polled behind it meanwhile
    // wait in its mailbox.
    let mesh = Mesh::new(MeshConfig {
        latency: LatencyProfile {
            store_op: STORE_OP,
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::deterministic(5)
    });
    let node = mesh.add_node();
    mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    let target = ActorRef::new("Ledger", "cold");
    for i in 0..TELLS {
        client.tell(&target, "record", vec![Value::Int(i)]).unwrap();
    }
    let key = format!("state/{}", target.qualified_name());
    let applied = || {
        let log = mesh.store().admin_hgetall(&key).get("log").cloned();
        log.and_then(|log| log.as_list().map(<[Value]>::len)) == Some(TELLS as usize)
    };
    assert!(mesh.sim_run_until(applied, 100_000), "the tells never ran");
    let state = mesh.store().admin_hgetall(&key);
    assert_eq!(state.get("violation"), None, "{state:?}");
    let log: Vec<Value> = (0..TELLS).map(Value::Int).collect();
    assert_eq!(state.get("log"), Some(&Value::List(log)));
    mesh.shutdown();
}

#[test]
fn soft_watermark_keeps_resident_set_bounded_under_churn() {
    const ACTORS: usize = 48;

    // 300 ms window, soft watermark 8 with plenty of hard headroom: each
    // activation past 8 residents evicts the coldest one inline, so the set
    // never grows past the watermark and nothing is ever deferred.
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
    // Right after the loop, no sweep waited for.
    let resident = mesh.resident_actors(server).unwrap();
    assert!(
        resident <= 8,
        "{resident} residents past a soft watermark of 8"
    );
    let (passivations, _, deferrals) = mesh.passivation_stats(server).unwrap();
    assert_eq!(deferrals, 0, "soft watermark must not defer admissions");
    assert!(
        passivations >= (ACTORS as u64) - 8,
        "admission evicted only {passivations}"
    );

    // Rehydration still works for an evicted-cold actor.
    let log = client
        .call(&ActorRef::new("Ledger", "churn-0"), "read", vec![])
        .unwrap();
    assert_eq!(log.as_list().map(<[Value]>::len), Some(1));
    mesh.shutdown();
}

#[test]
fn placements_are_reclaimed_once_tombstones_age_out() {
    const COUNTERS: usize = 5_000;
    const SOFT: usize = 64;

    // A 20 ms passivation window: the bookkeeping interval is 40 ms, so a
    // tombstone ages out 40 to 80 ms after its actor passivated.
    let window = Duration::from_millis(20);
    let config = fast_passivation_config(20).with_resident_watermarks(SOFT, 2 * SOFT);
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Counter", || Box::new(Counter)));
    let client = mesh.client();
    let store = mesh.store();
    let counter = |i: usize| ActorRef::new("Counter", format!("c{i}"));
    let mut counts = vec![0i64; COUNTERS];
    let mut add = |i: usize| {
        counts[i] += 1;
        let answer = client.call(&counter(i), "add", vec![]).unwrap();
        assert_eq!(answer, Value::Int(counts[i]), "counter c{i} lost its count");
    };

    // Churn through the watermarks: every new counter past the soft one
    // evicts the coldest, and every seventh call goes back to an older
    // counter whose placement may be released, or in flight, by then.
    for i in 0..COUNTERS {
        add(i);
        if i % 7 == 0 {
            add(i / 3);
        }
    }
    let churned = mesh.passivation_stats(server).unwrap().0;
    assert!(
        churned >= (COUNTERS - 2 * SOFT) as u64,
        "only {churned} passivations"
    );

    // Two bookkeeping intervals on, the records left are the residents' and
    // those of the actors passivated since the churn (the idle sweep's).
    std::thread::sleep(4 * window);
    wait_until(
        Duration::from_secs(10),
        "the aged-out placements to be released",
        || {
            let placed = store.admin_keys_with_prefix("placement/").len();
            let resident = mesh.resident_actors(server).unwrap();
            let since = mesh.passivation_stats(server).unwrap().0 - churned;
            placed <= resident + since as usize
        },
    );
    assert!(
        store.admin_keys_with_prefix("placement/").len() <= 2 * SOFT,
        "placements still track every counter ever touched"
    );

    // Released counters come back through the cold path, from their
    // durable counts, and every resident's record names its host.
    for i in (0..COUNTERS).step_by(50) {
        add(i);
    }
    assert_eq!(mesh.misplaced_residents(), Vec::<String>::new());
    assert!(
        mesh.debug_report().contains("placements_released="),
        "debug_report missing the release counter"
    );
    mesh.shutdown();
}

#[test]
fn an_activation_during_a_placement_release_defers_until_it_settles() {
    // Every store round trip is acknowledged 2 ms after its submit, and the
    // heartbeat is 5 ms: a release round's compare-and-delete applies at
    // once and settles on a later heartbeat. A 2 s retention is a 10 ms
    // passivation window and a 20 ms bookkeeping interval.
    let mut config = MeshConfig {
        latency: LatencyProfile {
            store_op: Duration::from_millis(2),
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::deterministic(0x5EED)
    };
    config.retention = Duration::from_secs(2);
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Counter", || Box::new(Counter)));
    let client = mesh.client();
    let store = mesh.store();
    let target = ActorRef::new("Counter", "racer");
    let key = placement_key(&target);
    assert_eq!(client.call(&target, "add", vec![]).unwrap(), Value::Int(1));

    // Idle: the sweep passivates the counter, its tombstone ages out, and
    // the release round deletes the record. Its ack is still in flight.
    assert!(
        mesh.sim_run_until(|| store.admin_get(&key).is_none(), 1_000_000),
        "the placement was never released"
    );
    let (passivations, _, deferrals) = mesh.passivation_stats(server).unwrap();
    assert_eq!(passivations, 1);

    // The call's activation lands in the window: it defers until the round
    // settles, then re-places the counter and runs once.
    assert_eq!(client.call(&target, "add", vec![]).unwrap(), Value::Int(2));
    let (_, rehydrations, deferred) = mesh.passivation_stats(server).unwrap();
    assert!(
        deferred > deferrals,
        "the activation did not wait for the release to settle"
    );
    assert_eq!(rehydrations, 0, "a released actor activates like a new one");
    assert_eq!(store.admin_get(&key), Some(component_to_value(server)));
    assert_eq!(mesh.misplaced_residents(), Vec::<String>::new());
    assert_eq!(client.call(&target, "add", vec![]).unwrap(), Value::Int(3));
    mesh.shutdown();
}
