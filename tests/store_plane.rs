//! State-plane tests: sharded store parallelism, pipeline semantics,
//! fencing atomicity across flushes, and crash consistency of the
//! per-activation actor-state cache (flush-before-respond) under seeded
//! kill/recovery chaos.

use std::time::{Duration, Instant};

use kar::placement::{component_from_value, hosts_key, placement_key};
use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_store::{Store, StoreConfig};
use kar_types::{ActorRef, ComponentId, KarError, KarResult, LatencyProfile, Value};

mod common;
use common::{chaos_seed, SplitMix64};

// ---------------------------------------------------------------------
// Store-level: sharding and pipelines
// ---------------------------------------------------------------------

#[test]
fn round_trips_overlap_across_threads_and_shards() {
    // 8 threads x 5 commands at 5 ms per round trip: a state plane that
    // serialized its round trips (or slept while holding a data lock) would
    // need >= 200 ms; overlapping clients finish in roughly one thread's
    // share. Generous bound for CI noise.
    let store = Store::with_config(StoreConfig::with_op_latency(Duration::from_millis(5)));
    let started = Instant::now();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                let conn = store.connect(ComponentId::from_raw(t + 1));
                for i in 0..5 {
                    conn.set(&format!("t{t}/k{i}"), Value::from(i)).unwrap();
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(120),
        "8x5 commands at 5ms serialized: {elapsed:?}"
    );
    assert_eq!(store.len(), 40);
}

#[test]
fn two_threads_on_distinct_shards_do_not_contend() {
    // Deterministically pick two keys on different shards, then hammer them
    // from two threads: every acquisition should find its shard lock free.
    let store = Store::new();
    let key_a = "alpha".to_string();
    let mut key_b = None;
    for i in 0..1000 {
        let candidate = format!("beta{i}");
        if store.shard_of_key(&candidate) != store.shard_of_key(&key_a) {
            key_b = Some(candidate);
            break;
        }
    }
    let key_b = key_b.expect("found a key on another shard");
    let threads: Vec<_> = [key_a.clone(), key_b.clone()]
        .into_iter()
        .enumerate()
        .map(|(t, key)| {
            let store = store.clone();
            std::thread::spawn(move || {
                let conn = store.connect(ComponentId::from_raw(t as u64 + 1));
                for i in 0..2000 {
                    conn.set(&key, Value::from(i)).unwrap();
                    conn.get(&key).unwrap();
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    let contention: u64 = [&key_a, &key_b]
        .iter()
        .map(|key| store.shard_contention()[store.shard_of_key(key)])
        .sum();
    assert_eq!(
        contention, 0,
        "threads on distinct shards contended {contention} times"
    );
}

#[test]
fn a_fence_is_atomic_across_a_pipeline_flush() {
    // A fence racing a 16-command flush must observe all of it or none of
    // it: the epoch-table read guard spans the whole application. Repeat
    // with jittered fence timing to sweep the race window.
    const BATCH: usize = 16;
    for round in 0..12u64 {
        let store = Store::with_config(StoreConfig::with_op_latency(Duration::from_millis(2)));
        let component = ComponentId::from_raw(1);
        let conn = store.connect(component);
        let fencer = {
            let store = store.clone();
            std::thread::spawn(move || {
                // Land anywhere from before the latency charge to after the
                // application.
                std::thread::sleep(Duration::from_micros(300 * round));
                store.fence(component);
            })
        };
        let mut pipe = conn.pipeline();
        for i in 0..BATCH {
            pipe.set(&format!("round{round}/k{i}"), Value::from(i as i64));
        }
        let outcome = pipe.flush();
        fencer.join().unwrap();
        let applied = store
            .admin_keys_with_prefix(&format!("round{round}/"))
            .len();
        match outcome {
            Ok(_) => assert_eq!(
                applied, BATCH,
                "round {round}: flush succeeded but applied a partial batch"
            ),
            Err(error) => {
                assert!(error.is_fenced());
                assert_eq!(
                    applied, 0,
                    "round {round}: fenced flush left a partial batch behind"
                );
            }
        }
    }
}

#[test]
fn pipeline_applies_commands_in_submission_order_per_key() {
    // Per-key (and therefore per-shard) order is submission order, whatever
    // shard interleaving the flush picks: a read-modify-write chain through
    // one pipeline lands in program order.
    let store = Store::new();
    let conn = store.connect(ComponentId::from_raw(1));
    let mut pipe = conn.pipeline();
    for key in ["a", "b", "c", "d"] {
        pipe.set(key, Value::from(1))
            .compare_and_swap(key, Some(Value::from(1)), Value::from(2))
            .set(key, Value::from(3))
            .get(key);
    }
    let results = pipe.flush().unwrap();
    for (index, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
        let base = index * 4;
        assert_eq!(
            results[base + 1],
            kar_store::PipelineResult::Cas(Ok(())),
            "cas on {key} saw a stale value"
        );
        assert_eq!(
            results[base + 3].clone().into_value(),
            Some(Value::from(3)),
            "get on {key} ran out of order"
        );
        assert_eq!(conn.get(key).unwrap(), Some(Value::from(3)));
    }
}

// ---------------------------------------------------------------------
// Mesh-level: actor-state cache and placement-check locality
// ---------------------------------------------------------------------

/// An actor exercising the state cache: `put` writes `fields` fields tagged
/// with the round number and acknowledges it; `round` reads the durable
/// round back; `incr` is the §2.3 tail-call accumulator.
struct Profile;

const PROFILE_FIELDS: usize = 3;

impl Actor for Profile {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "put" => {
                let round = args[0].as_i64().unwrap_or(0);
                for field in 0..PROFILE_FIELDS {
                    ctx.state().set(&format!("f{field}"), Value::Int(round))?;
                }
                Ok(Outcome::value(Value::Int(round)))
            }
            "round" => Ok(Outcome::value(
                ctx.state().get("f0")?.unwrap_or(Value::Int(-1)),
            )),
            "get" => Ok(Outcome::value(
                ctx.state().get("n")?.unwrap_or(Value::Int(0)),
            )),
            "set" => {
                ctx.state().set("n", args[0].clone())?;
                Ok(Outcome::value("OK"))
            }
            "incr" => {
                let value = ctx.state().get("n")?.and_then(|v| v.as_i64()).unwrap_or(0);
                Ok(ctx.tail_call_self("set", vec![Value::Int(value + 1)]))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

#[test]
fn acknowledged_state_is_durable_before_the_response_returns() {
    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Profile", || Box::new(Profile)));
    let client = mesh.client();
    let actor = ActorRef::new("Profile", "p-1");
    let store = mesh.store();

    for round in 1..=5i64 {
        client.call(&actor, "put", vec![Value::Int(round)]).unwrap();
        // Flush-before-respond: the instant the call returns, every field of
        // the acknowledged round is durable — and atomically so (one
        // pipelined flush), never a mix of rounds.
        let durable = store.admin_hgetall(&format!("state/{}", actor.qualified_name()));
        assert_eq!(durable.len(), PROFILE_FIELDS);
        for field in 0..PROFILE_FIELDS {
            assert_eq!(
                durable[&format!("f{field}")],
                Value::Int(round),
                "field f{field} lagged the acknowledged round {round}"
            );
        }
    }
    assert_eq!(
        mesh.cached_state_count(server),
        Some(1),
        "the hot actor's state image should be cached"
    );

    // Steady state: one invocation writing 3 fields costs one store round
    // trip (the flush), not one per field.
    let before = store.stats();
    client.call(&actor, "put", vec![Value::Int(9)]).unwrap();
    let delta = store.stats().since(&before);
    assert_eq!(
        delta.round_trips, 1,
        "steady-state invocation should cost exactly the flush round trip"
    );
    mesh.shutdown();
}

#[test]
fn hot_actors_skip_placement_lookups_via_slot_stamps() {
    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Profile", || Box::new(Profile)));
    let client = mesh.client();
    let actor = ActorRef::new("Profile", "hot");

    for round in 0..20 {
        client.call(&actor, "put", vec![Value::Int(round)]).unwrap();
    }
    let counters = mesh.placement_counters(server).unwrap();
    assert!(
        counters.slot_hits >= 15,
        "hot actor admissions should ride the slot stamp: {counters:?}"
    );
    assert!(
        counters.hits + counters.misses <= 5,
        "placement cache still consulted per admitted request: {counters:?}"
    );

    // Recovery bumps the cache epoch, invalidating every stamp: the next
    // admission re-verifies ownership (cache/store) and re-stamps.
    let extra_node = mesh.add_node();
    let doomed = mesh.add_component(extra_node, "doomed", |c| {
        c.host("Doomed", || Box::new(Profile))
    });
    mesh.kill_component(doomed);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    let before = mesh.placement_counters(server).unwrap();
    for round in 0..5 {
        client.call(&actor, "put", vec![Value::Int(round)]).unwrap();
    }
    let after = mesh.placement_counters(server).unwrap();
    assert!(
        after.hits + after.misses > before.hits + before.misses,
        "post-recovery admissions must re-verify ownership: {before:?} -> {after:?}"
    );
    assert!(
        after.slot_hits > before.slot_hits,
        "the slot stamp must re-arm after re-verification"
    );
    mesh.shutdown();
}

#[test]
fn the_hosts_hash_holds_exactly_the_live_hosts_across_a_failure() {
    let mesh = Mesh::new(MeshConfig::for_tests());
    let node_a = mesh.add_node();
    let a = mesh.add_component(node_a, "a", |c| c.host("Profile", || Box::new(Profile)));
    let node_b = mesh.add_node();
    let b = mesh.add_component(node_b, "b", |c| c.host("Profile", || Box::new(Profile)));
    let client = mesh.client();
    let store = mesh.store();
    let announced = || -> Vec<ComponentId> {
        let mut hosts: Vec<ComponentId> = store
            .admin_hgetall(&hosts_key("Profile"))
            .keys()
            .map(|field| ComponentId::from_raw(field.parse().expect("a component id")))
            .collect();
        hosts.sort();
        hosts
    };
    assert_eq!(announced(), vec![a, b]);
    for i in 0..20 {
        let actor = ActorRef::new("Profile", format!("warm-{i}"));
        client.call(&actor, "put", vec![Value::Int(1)]).unwrap();
    }

    mesh.kill_node(node_a);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    assert_eq!(
        announced(),
        vec![b],
        "reconciliation withdraws the dead host"
    );
    let node_c = mesh.add_node();
    let c = mesh.add_component(node_c, "c", |c| c.host("Profile", || Box::new(Profile)));
    assert_eq!(announced(), vec![b, c]);

    let mut placed_on = std::collections::BTreeMap::new();
    for i in 0..200 {
        let actor = ActorRef::new("Profile", format!("fresh-{i}"));
        client.call(&actor, "put", vec![Value::Int(1)]).unwrap();
        let placed = store
            .admin_get(&placement_key(&actor))
            .as_ref()
            .and_then(component_from_value)
            .expect("a fresh actor is placed");
        assert!(placed == b || placed == c, "{actor} placed on {placed}");
        *placed_on.entry(placed).or_insert(0) += 1;
    }
    assert_eq!(placed_on.len(), 2, "the replacement hosts fresh actors too");
    mesh.shutdown();
}

// ---------------------------------------------------------------------
// Crash-consistency chaos: kills around the flush/respond boundary
// ---------------------------------------------------------------------

/// Seeded kill/recovery chaos against the cached state plane, with a store
/// latency wide enough that kills land *between* an invocation's state flush
/// and its response. Invariants, per seed:
///
/// * exactly-once (§2.3): the tail-call accumulator never loses an
///   acknowledged increment and never double-applies one;
/// * no acknowledged multi-field write is lost: the durable round is at
///   least the last acknowledged round;
/// * flush atomicity: the durable fields always carry one single round,
///   never a mix (the flush is one pipelined application).
#[test]
fn state_cache_chaos_preserves_exactly_once_and_flush_atomicity() {
    let seed = chaos_seed(0x5_7A7E_5EED);
    println!("state-plane chaos seed: {seed:#x} (override with KAR_CHAOS_SEED)");
    let mut rng = SplitMix64::new(seed);

    let mut config = MeshConfig::for_tests();
    config.latency = LatencyProfile {
        store_op: Duration::from_micros(500),
        ..LatencyProfile::ZERO
    };
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    mesh.add_component(node, "replica-a", |c| {
        c.host("Profile", || Box::new(Profile))
    });
    mesh.add_component(node, "replica-b", |c| {
        c.host("Profile", || Box::new(Profile))
    });
    let client = mesh.client();
    let counter = ActorRef::new("Profile", "counter");
    let profile = ActorRef::new("Profile", "profile");
    client.call(&counter, "set", vec![Value::Int(0)]).unwrap();

    let attempts = 24i64;
    let rounds = 16i64;
    let kill_count = 5;
    let kill_times: Vec<Duration> = (0..kill_count)
        .map(|_| Duration::from_millis(rng.below(25, 90)))
        .collect();
    let client_component = client.component_id();
    let mesh_for_chaos = mesh.clone();
    let chaos = std::thread::spawn(move || {
        for (round, pause) in kill_times.into_iter().enumerate() {
            std::thread::sleep(pause);
            let victims: Vec<_> = mesh_for_chaos
                .live_components()
                .into_iter()
                .filter(|c| *c != client_component)
                .collect();
            if let Some(victim) = victims.into_iter().next_back() {
                mesh_for_chaos.kill_component(victim);
                let node = mesh_for_chaos.add_node();
                mesh_for_chaos.add_component(node, &format!("replacement-{round}"), |c| {
                    c.host("Profile", || Box::new(Profile))
                });
            }
        }
    });

    // Worker 1: the exactly-once accumulator.
    let incr_client = client.clone();
    let incr_counter = counter.clone();
    let incr = std::thread::spawn(move || {
        let mut acknowledged = 0i64;
        for _ in 0..attempts {
            if incr_client.call(&incr_counter, "incr", vec![]).is_ok() {
                acknowledged += 1;
            }
        }
        acknowledged
    });
    // Worker 2: monotonic multi-field writes.
    let mut acknowledged_round = 0i64;
    for round in 1..=rounds {
        if client
            .call(&profile, "put", vec![Value::Int(round)])
            .is_ok()
        {
            acknowledged_round = round;
        }
    }
    let acknowledged_incrs = incr.join().unwrap();
    chaos.join().unwrap();

    // Let retried-but-unacknowledged work settle before reading.
    std::thread::sleep(Duration::from_millis(300));
    let value = client
        .call(&counter, "get", vec![])
        .unwrap()
        .as_i64()
        .unwrap();
    assert!(
        value >= acknowledged_incrs,
        "seed {seed:#x}: confirmed increment lost: value {value} < acknowledged {acknowledged_incrs}"
    );
    assert!(
        value <= attempts,
        "seed {seed:#x}: increment applied twice: value {value} > attempts {attempts}"
    );

    let durable = mesh
        .store()
        .admin_hgetall(&format!("state/{}", profile.qualified_name()));
    let f0 = durable
        .get("f0")
        .and_then(Value::as_i64)
        .expect("profile state present");
    assert!(
        f0 >= acknowledged_round,
        "seed {seed:#x}: acknowledged round {acknowledged_round} lost (durable {f0})"
    );
    for field in 1..PROFILE_FIELDS {
        assert_eq!(
            durable.get(&format!("f{field}")).and_then(Value::as_i64),
            Some(f0),
            "seed {seed:#x}: flush was not atomic: fields carry mixed rounds {durable:?}"
        );
    }
    mesh.shutdown();
}
