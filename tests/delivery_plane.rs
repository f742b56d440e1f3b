//! Delivery-plane tests: group-wait consumers, per-destination response
//! batching, and post-recovery retirement of adopted partitions.
//!
//! * **Group wait**: a consumer thread owning several partitions parks on
//!   one shared `WaitSignalGroup`; an append to *any* member must be
//!   delivered without waiting out the old 2 ms rotation slice.
//! * **Response batching**: bursts of completions towards one destination
//!   partition share durable acks (group commit) without changing any
//!   result, tail-call outcome, or exactly-once guarantee; and a response
//!   leaves when its invocation responds, not when its mailbox drain ends.
//! * **Retirement**: an adopted (drain-only) partition whose retirement
//!   horizon passed and whose log drained is fenced and dropped — the
//!   consumer-thread count returns to the pre-failure steady state, and no
//!   acknowledged record is lost or duplicated across the whole
//!   kill → adopt → drain → retire cycle (seeded, reproducible).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_queue::{Broker, BrokerConfig, Consumer};
use kar_types::{
    ActorRef, ComponentId, KarError, KarResult, LatencyProfile, Value, WaitSignalGroup,
};

mod common;
use common::{chaos_seed, SplitMix64};

/// The mesh topic every component's partitions live in (`kar::mesh::TOPIC`).
const TOPIC: &str = "kar";

/// A durable sequence-numbered ledger (the chaos harness shape): dedupes
/// retries and flags out-of-order first executions in the actor itself.
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
            "read" => Ok(Outcome::value(
                ctx.state().get("log")?.unwrap_or(Value::List(Vec::new())),
            )),
            "violation" => Ok(Outcome::value(
                ctx.state().get("violation")?.unwrap_or(Value::Null),
            )),
            // Tail-call increment, so batching covers the continuation path.
            "incr" => {
                let value = ctx
                    .state()
                    .get("value")?
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0);
                Ok(ctx.tail_call_self("set", vec![Value::Int(value + 1)]))
            }
            "set" => {
                ctx.state().set("value", args[0].clone())?;
                Ok(Outcome::value("OK"))
            }
            "get" => Ok(Outcome::value(
                ctx.state().get("value")?.unwrap_or(Value::Int(0)),
            )),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Group wait
// ---------------------------------------------------------------------

/// The wakeup-latency regression the group wait closes: a consumer thread
/// sweeping several partitions and parking on the shared group must deliver
/// an append to a partition it did NOT drain last — under the old rotating
/// park such an append waited out up to a full 2 ms slice; under group wait
/// it is a condvar wake, orders of magnitude below the slice.
#[test]
fn group_wait_delivers_unparked_partition_appends_without_a_rotation_slice() {
    const PARTITIONS: usize = 4;
    const APPENDS: usize = 24;
    let broker: Broker<Instant> = Broker::new(BrokerConfig::default());
    broker.create_topic("t", PARTITIONS).unwrap();

    let consumer_broker = broker.clone();
    let consumer = std::thread::spawn(move || {
        let consumers: Vec<Consumer<Instant>> = (0..PARTITIONS)
            .map(|p| {
                consumer_broker
                    .consumer(ComponentId::from_raw(1), "t", p)
                    .unwrap()
            })
            .collect();
        let group = Arc::new(WaitSignalGroup::new());
        for consumer in &consumers {
            consumer.join_wait_group(&group);
        }
        let mut latencies = Vec::with_capacity(APPENDS);
        while latencies.len() < APPENDS {
            let seen = group.current();
            let mut drained = false;
            for consumer in &consumers {
                for record in consumer.poll(16).unwrap() {
                    latencies.push(record.into_payload().elapsed());
                    drained = true;
                }
            }
            if !drained {
                group.wait(seen, Duration::from_millis(2));
            }
        }
        for consumer in &consumers {
            consumer.leave_wait_group(&group);
        }
        latencies
    });

    // Cycle the appends across partitions with gaps long enough that the
    // consumer has swept (and parked) before each append: every append hits
    // a partition whose last drain is several parks old.
    let producer = broker.producer(ComponentId::from_raw(2));
    for i in 0..APPENDS {
        std::thread::sleep(Duration::from_millis(3));
        producer.send("t", i % PARTITIONS, Instant::now()).unwrap();
    }
    let mut latencies = consumer.join().unwrap();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "group wait should wake in microseconds; median append→deliver was \
         {median:?} (the old rotating park averaged ~1 ms and peaked at the \
         full 2 ms slice)"
    );
}

/// End-to-end: calls that land on arbitrary partitions of a parked
/// component are served promptly on both the request and the response leg.
#[test]
fn sparse_calls_on_any_partition_are_served_promptly() {
    let mesh = Mesh::new(
        MeshConfig::for_tests()
            .with_partitions_per_component(4)
            .with_dispatch_workers(4),
    );
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    // Warm-up places the actors and verifies the spread.
    for i in 0..8 {
        client
            .call(&ActorRef::new("Ledger", format!("g{i}")), "get", vec![])
            .unwrap();
    }
    let set = mesh.partition_set(server).unwrap();
    let broker = mesh.broker();
    let touched = set
        .home()
        .iter()
        .filter(|p| broker.end_offset(TOPIC, **p) > 0)
        .count();
    assert!(touched >= 3, "8 actors only touched {touched} partitions");
    assert_eq!(mesh.consumer_threads(server), Some(4), "one lane per home");

    // Sparse sequential calls: the reactors park between them, so every
    // call exercises the wakeup path on both legs. Under the
    // old rotation each leg averaged ~1 ms of slice wait; with group wait
    // the whole call stays well under one slice.
    let mut latencies = Vec::new();
    for round in 0..30 {
        let target = ActorRef::new("Ledger", format!("g{}", round % 8));
        std::thread::sleep(Duration::from_millis(3));
        let t0 = Instant::now();
        client.call(&target, "get", vec![]).unwrap();
        latencies.push(t0.elapsed());
    }
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median sparse-call latency {median:?} suggests consumers are \
         rotation-parking again (one 2 ms slice per leg)"
    );
    mesh.shutdown();
}

// ---------------------------------------------------------------------
// Response batching
// ---------------------------------------------------------------------

/// Concurrent completions towards one destination partition must share
/// durable acks — and change nothing observable: results, tail-call chains
/// and exactly-once bookkeeping are what an ack per completion would give.
#[test]
fn response_batching_amortizes_acks_without_changing_results() {
    let mesh = Mesh::new(
        MeshConfig {
            latency: LatencyProfile {
                queue_append: Duration::from_micros(300),
                ..LatencyProfile::ZERO
            },
            ..MeshConfig::for_tests()
        }
        .with_partitions_per_component(1),
    );
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    // 8 concurrent callers, sequential calls each: every response (and
    // every incr tail-call continuation) funnels into a single-partition
    // destination, so bursts overlap acks.
    let drivers: Vec<_> = (0..8)
        .map(|caller| {
            let client = client.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Ledger", format!("b{caller}"));
                for i in 0..8 {
                    client.call(&target, "record", vec![Value::Int(i)]).unwrap();
                    client.call(&target, "incr", vec![]).unwrap();
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap();
    }
    for caller in 0..8 {
        let target = ActorRef::new("Ledger", format!("b{caller}"));
        let log = client.call(&target, "read", vec![]).unwrap();
        assert_eq!(
            log.as_list().map(<[Value]>::len),
            Some(8),
            "acknowledged records lost or duplicated"
        );
        assert_eq!(
            client.call(&target, "violation", vec![]).unwrap(),
            Value::Null,
            "out-of-order execution"
        );
        assert_eq!(
            client.call(&target, "get", vec![]).unwrap(),
            Value::Int(8),
            "tail-call increments lost"
        );
    }
    let (enqueued, flushes) = mesh.response_batch_stats(server).unwrap();
    assert!(enqueued > 0, "batcher never saw a completion");
    assert!(
        flushes < enqueued,
        "8 concurrent callers at a 300 µs ack never shared a flush \
         ({flushes} flushes for {enqueued} completions)"
    );
    mesh.shutdown();
}

/// What the mailbox-drain actors share with the test body.
#[derive(Default)]
struct DrainProbe {
    mesh: OnceLock<Mesh>,
    /// Set once the gate holds the first call parked.
    gate_entered: AtomicBool,
    /// Set by the first caller once its call returned.
    first_answered: AtomicBool,
}

/// Spins until `done` holds, for at most two seconds; says whether it did.
fn spin_until(done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// `first` parks on a nested call to the gate, so the actor stays busy and
/// `second` is mailboxed behind it; `second` then runs in the very frame
/// that completed `first`, and reports whether `first`'s caller already has
/// its answer.
struct Drained {
    probe: Arc<DrainProbe>,
}

impl Actor for Drained {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "first" => {
                let home = Value::Int(ctx.component_id().as_u64() as i64);
                let gate = ActorRef::new("Gate", "g");
                Ok(ctx.call_then(&gate, "hold", vec![home], |_, held| {
                    held.map(|_| Outcome::value("first"))
                }))
            }
            "second" => {
                let probe = &self.probe;
                let arrived = spin_until(|| probe.first_answered.load(Ordering::SeqCst));
                Ok(Outcome::value(Value::Bool(arrived)))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// Holds its caller parked until a request is mailboxed on the component
/// named in its argument.
struct Gate {
    probe: Arc<DrainProbe>,
}

impl Actor for Gate {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "hold" => {
                let home = ComponentId::from_raw(args[0].as_i64().unwrap_or(0) as u64);
                self.probe.gate_entered.store(true, Ordering::SeqCst);
                let mesh = self.probe.mesh.get().expect("mesh registered");
                spin_until(|| mesh.mailboxed_requests(home).unwrap_or(0) >= 1);
                Ok(Outcome::value(Value::Null))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// A response leaves at its own `Respond` step: the next invocation of a
/// mailbox drain running in the same frame does not hold it back. The second
/// handler waits (bounded) for the first caller's answer, which can only
/// arrive if the first completion was appended before the second handler
/// started.
#[test]
fn a_response_leaves_before_the_next_invocation_of_its_mailbox_drain() {
    let probe = Arc::new(DrainProbe::default());
    // Paper-scale failure detection: a handler spinning for its whole bound
    // must not get its component declared failed.
    let mesh = Mesh::new(MeshConfig::default().with_reactor_threads(2));
    let node = mesh.add_node();
    let for_drained = Arc::clone(&probe);
    mesh.add_component(node, "server", move |c| {
        c.host("Drained", move || {
            Box::new(Drained {
                probe: Arc::clone(&for_drained),
            })
        })
    });
    let for_gate = Arc::clone(&probe);
    mesh.add_component(node, "gate", move |c| {
        c.host("Gate", move || {
            Box::new(Gate {
                probe: Arc::clone(&for_gate),
            })
        })
    });
    assert!(probe.mesh.set(mesh.clone()).is_ok());
    let client = mesh.client();
    let actor = ActorRef::new("Drained", "d");

    let first = {
        let (client, actor, probe) = (client.clone(), actor.clone(), Arc::clone(&probe));
        std::thread::spawn(move || {
            let answer = client.call(&actor, "first", vec![]);
            probe.first_answered.store(true, Ordering::SeqCst);
            answer
        })
    };
    assert!(
        spin_until(|| probe.gate_entered.load(Ordering::SeqCst)),
        "the first call never reached the gate"
    );
    let second = client.call(&actor, "second", vec![]).unwrap();
    assert_eq!(first.join().unwrap().unwrap(), Value::from("first"));
    assert_eq!(
        second,
        Value::Bool(true),
        "the first response was held back until the mailbox drain ended"
    );
    mesh.shutdown();
}

// ---------------------------------------------------------------------
// Partition retirement
// ---------------------------------------------------------------------

/// The full kill → adopt → drain → retire cycle under a seeded mid-traffic
/// kill: the retired range never loses or duplicates an acknowledged record,
/// the consumer-thread count returns to the pre-failure steady state, and
/// the retired partitions end up fenced, empty, and out of every set.
#[test]
fn adopted_partitions_retire_after_the_horizon_under_seeded_chaos() {
    let seed = chaos_seed(0x0DE1_1BED);
    eprintln!("delivery retirement chaos: seed {seed:#x} (KAR_CHAOS_SEED overrides)");
    let mut rng = SplitMix64::new(seed);
    const PARTITIONS: usize = 2;
    // Retention compressed to 600 ms (120 s * 0.005): the retirement horizon
    // is 1.2 s, so the whole cycle fits in a test.
    let mesh = Mesh::new(
        MeshConfig {
            retention: Duration::from_secs(120),
            ..MeshConfig::for_tests()
        }
        .with_partitions_per_component(PARTITIONS)
        .with_dispatch_workers(2),
    );
    let node = mesh.add_node();
    let a = mesh.add_component(node, "replica-a", |c| c.host("Ledger", || Box::new(Ledger)));
    let b = mesh.add_component(node, "replica-b", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    let actors = 4;
    let calls = 8 + rng.below(0, 5) as i64;
    // Seeded mid-traffic kill: victim and timing come from the seed.
    let victim = if rng.below(0, 2) == 0 { a } else { b };
    let survivor = if victim == a { b } else { a };
    let kill_after = rng.below(5, 30);
    let steady_consumers = mesh.consumer_threads(survivor).unwrap();
    assert_eq!(steady_consumers, PARTITIONS, "1:1 consumer layout expected");
    let killer = {
        let mesh = mesh.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(kill_after));
            mesh.kill_component(victim);
        })
    };
    let drivers: Vec<_> = (0..actors)
        .map(|actor| {
            let client = client.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Ledger", format!("ret-{actor}"));
                for i in 0..calls {
                    client
                        .call(&target, "record", vec![Value::Int(i)])
                        .unwrap_or_else(|e| panic!("[seed {seed:#x}] call {i} failed: {e:?}"));
                }
            })
        })
        .collect();
    for driver in drivers {
        driver
            .join()
            .unwrap_or_else(|_| panic!("[seed {seed:#x}] driver panicked"));
    }
    killer.join().unwrap();
    assert!(
        mesh.wait_for_recoveries(1, Duration::from_secs(10)),
        "[seed {seed:#x}] recovery never completed"
    );
    let rehomed = mesh.recovery_log().remove(0).rehomed_partitions;
    assert_eq!(
        rehomed.len(),
        PARTITIONS,
        "[seed {seed:#x}] victim's range not fully re-homed: {rehomed:?}"
    );
    // The adopted range runs on an extra consumer thread until retirement.
    let adopted_now = mesh.partition_set(survivor).unwrap().adopted().to_vec();
    assert_eq!(adopted_now, rehomed, "[seed {seed:#x}] adoption mismatch");

    // Wait out the horizon: the adopted partitions drain, then retire.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let set = mesh.partition_set(survivor).unwrap();
        if set.adopted().is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "[seed {seed:#x}] adopted range {:?} never retired (horizon 1.2s)",
            set.adopted()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let mut retired = mesh.retired_partitions(survivor).unwrap();
    retired.sort_unstable();
    assert_eq!(retired, rehomed, "[seed {seed:#x}] retirement log mismatch");
    let broker = mesh.broker();
    for partition in &retired {
        assert_eq!(
            broker.partition_len(TOPIC, *partition),
            0,
            "[seed {seed:#x}] retired partition {partition} still holds records"
        );
        assert!(
            broker.partition_epoch(TOPIC, *partition).as_u64() >= 2,
            "[seed {seed:#x}] retired partition {partition} was not re-fenced"
        );
    }
    // The consumer-thread count is back to the pre-failure steady state.
    let settle = Instant::now() + Duration::from_secs(5);
    loop {
        if mesh.consumer_threads(survivor) == Some(steady_consumers) {
            break;
        }
        assert!(
            Instant::now() < settle,
            "[seed {seed:#x}] consumer threads stuck at {:?}, steady state is {steady_consumers}",
            mesh.consumer_threads(survivor)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Exactly-once + FIFO survived the whole cycle, and traffic still flows
    // (the retired range is out of every routing path).
    for actor in 0..actors {
        let target = ActorRef::new("Ledger", format!("ret-{actor}"));
        assert_eq!(
            client.call(&target, "violation", vec![]).unwrap(),
            Value::Null,
            "[seed {seed:#x}] ret-{actor} executed out of order"
        );
        let log = client.call(&target, "read", vec![]).unwrap();
        let entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
        assert_eq!(
            entries.len() as i64,
            calls,
            "[seed {seed:#x}] ret-{actor}: {} of {calls} acknowledged records applied",
            entries.len()
        );
        for (expected, entry) in entries.iter().enumerate() {
            assert_eq!(
                entry.as_i64(),
                Some(expected as i64),
                "[seed {seed:#x}] ret-{actor} log out of order at {expected}"
            );
        }
    }
    mesh.shutdown();
}

// ---------------------------------------------------------------------
// State-cache eviction (PR 4 discovery, closed here)
// ---------------------------------------------------------------------

/// Clean actor-state cache entries idle for a retention window are evicted
/// (and counted), and the evicted actor transparently re-loads its durable
/// state on the next touch.
#[test]
fn idle_state_cache_entries_are_evicted_on_the_retention_clock() {
    // Retention compressed to 150 ms: the heartbeat-driven eviction clock
    // fires well within the test.
    let mesh = Mesh::new(MeshConfig {
        retention: Duration::from_secs(30),
        ..MeshConfig::for_tests()
    });
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    for i in 0..6 {
        client
            .call(
                &ActorRef::new("Ledger", format!("idle-{i}")),
                "record",
                vec![Value::Int(0)],
            )
            .unwrap();
    }
    assert!(mesh.cached_state_count(server).unwrap_or(0) > 0);

    // Idle for > two retention windows: every clean entry ages out.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if mesh.cached_state_count(server) == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle state-cache entries never evicted ({} left, {} evictions)",
            mesh.cached_state_count(server).unwrap_or(0),
            mesh.state_cache_evictions(server).unwrap_or(0)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(mesh.state_cache_evictions(server).unwrap() >= 6);

    // Evicted actors re-load durable state transparently.
    let log = client
        .call(&ActorRef::new("Ledger", "idle-0"), "read", vec![])
        .unwrap();
    assert_eq!(log.as_list().map(<[Value]>::len), Some(1));
    mesh.shutdown();
}
