//! Stress tests for parallel dispatch: with several consumer lanes per
//! component (`partitions_per_component > 1`), each admitting and running
//! what it polls, exactly-once and per-actor ordering must hold exactly as
//! they did under serial dispatch, including across kill/recovery fault
//! injection.
//!
//! Three phases:
//!
//! 1. **Ordered calls under failures** — per-actor client threads issue
//!    sequence-numbered blocking calls while components are killed and
//!    replaced; the actor itself checks that every *first* execution of a
//!    sequence number arrives in order (a reordering would be recorded as a
//!    violation in durable state) and dedupes runtime retries, so the final
//!    log length proves every acknowledged call was applied exactly once.
//! 2. **Mailbox FIFO under parallel dispatch** — a single actor receives a
//!    stream of asynchronous `tell`s; the recorded log must be exactly the
//!    sent sequence, proving the lanes never reorder one actor's mailbox
//!    even with many of them.
//! 3. **Tail-call exactly-once under failures** — the §2.3 accumulator
//!    guarantee re-checked with a multi-lane mesh.
//!
//! Plus the admission claim: one request polled from two lanes at once runs
//! once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{
    ActorRef, CallKind, Envelope, KarError, KarResult, RequestId, RequestMessage, Value,
};

/// A durable event log with ordering verification built into the actor, so
/// ordering violations are detected at the point they would occur, no matter
/// which component replica executes the invocation after a failure.
struct Ledger;

impl Actor for Ledger {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            // Sequence-numbered record: dedupes runtime retries, flags any
            // first execution that arrives out of order.
            "record" => {
                let i = args[0].as_i64().unwrap_or(-1);
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                if entries.iter().any(|e| e.as_i64() == Some(i)) {
                    // A retry of an already-applied request: idempotent.
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
            // Blind append, used by the FIFO phase (no failures injected).
            "push" => {
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                entries.push(args[0].clone());
                ctx.state().set("log", Value::List(entries))?;
                Ok(Outcome::value(Value::Null))
            }
            "len" => {
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                Ok(Outcome::value(Value::Int(
                    log.as_list().map(<[Value]>::len).unwrap_or(0) as i64,
                )))
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

/// The §2.3 accumulator (tail-call increment).
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

#[test]
fn ordered_calls_survive_failures_with_parallel_dispatch() {
    const ACTORS: usize = 6;
    const CALLS: i64 = 30;

    let mesh = Mesh::new(MeshConfig::for_tests().with_partitions_per_component(4));
    assert!(
        mesh.config().effective_partitions_per_component() > 1,
        "this test must run with parallel dispatch"
    );
    let node = mesh.add_node();
    mesh.add_component(node, "replica-a", |c| c.host("Ledger", || Box::new(Ledger)));
    mesh.add_component(node, "replica-b", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    // Kill and replace live application components while the drivers run.
    let stop = Arc::new(AtomicBool::new(false));
    let chaos_stop = stop.clone();
    let chaos_mesh = mesh.clone();
    let client_component = client.component_id();
    let chaos = std::thread::spawn(move || {
        for round in 0..4 {
            std::thread::sleep(Duration::from_millis(50));
            if chaos_stop.load(Ordering::SeqCst) {
                return;
            }
            let victims: Vec<_> = chaos_mesh
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

    let drivers: Vec<_> = (0..ACTORS)
        .map(|actor| {
            let client = client.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Ledger", format!("a{actor}"));
                for i in 0..CALLS {
                    // The runtime retries across failures; the call only
                    // returns once the record is durably applied.
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
        let target = ActorRef::new("Ledger", format!("a{actor}"));
        let violation = client.call(&target, "violation", vec![]).unwrap();
        assert_eq!(
            violation,
            Value::Null,
            "actor a{actor} observed out-of-order execution"
        );
        let log = client.call(&target, "read", vec![]).unwrap();
        let entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
        assert_eq!(
            entries.len() as i64,
            CALLS,
            "actor a{actor}: acknowledged records applied {} times, expected exactly {CALLS}",
            entries.len()
        );
        for (expected, entry) in entries.iter().enumerate() {
            assert_eq!(
                entry.as_i64(),
                Some(expected as i64),
                "actor a{actor} log out of order"
            );
        }
    }
    mesh.shutdown();
}

#[test]
fn one_actors_mailbox_stays_fifo_under_parallel_dispatch() {
    const MESSAGES: i64 = 200;

    let mesh = Mesh::new(MeshConfig::for_tests().with_partitions_per_component(8));
    let node = mesh.add_node();
    mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    let target = ActorRef::new("Ledger", "fifo");

    for i in 0..MESSAGES {
        client.tell(&target, "push", vec![Value::Int(i)]).unwrap();
    }
    // Tells are asynchronous: wait until they have all been applied.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let len = client
            .call(&target, "len", vec![])
            .unwrap()
            .as_i64()
            .unwrap();
        if len == MESSAGES {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {len}/{MESSAGES} tells applied"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let log = client.call(&target, "read", vec![]).unwrap();
    let entries = log.as_list().map(<[Value]>::to_vec).unwrap();
    for (expected, entry) in entries.iter().enumerate() {
        assert_eq!(
            entry.as_i64(),
            Some(expected as i64),
            "mailbox order violated at position {expected}"
        );
    }
    mesh.shutdown();
}

#[test]
fn tail_call_increments_stay_exactly_once_under_failures_with_parallel_dispatch() {
    let mesh = Mesh::new(MeshConfig::for_tests().with_partitions_per_component(4));
    let node = mesh.add_node();
    mesh.add_component(node, "replica-a", |c| {
        c.host("Accumulator", || Box::new(Accumulator))
    });
    mesh.add_component(node, "replica-b", |c| {
        c.host("Accumulator", || Box::new(Accumulator))
    });
    let client = mesh.client();
    let counter = ActorRef::new("Accumulator", "x");
    client.call(&counter, "set", vec![Value::Int(0)]).unwrap();

    let attempts = 24i64;
    let chaos_mesh = mesh.clone();
    let client_component = client.component_id();
    let chaos = std::thread::spawn(move || {
        for round in 0..3 {
            std::thread::sleep(Duration::from_millis(40));
            let victims: Vec<_> = chaos_mesh
                .live_components()
                .into_iter()
                .filter(|c| *c != client_component)
                .collect();
            if let Some(victim) = victims.into_iter().next_back() {
                chaos_mesh.kill_component(victim);
                let node = chaos_mesh.add_node();
                chaos_mesh.add_component(node, &format!("replacement-{round}"), |c| {
                    c.host("Accumulator", || Box::new(Accumulator))
                });
            }
        }
    });

    let mut acknowledged = 0i64;
    for _ in 0..attempts {
        if client.call(&counter, "incr", vec![]).is_ok() {
            acknowledged += 1;
        }
    }
    chaos.join().unwrap();

    // Let retried-but-unacknowledged work settle before reading.
    std::thread::sleep(Duration::from_millis(300));
    let value = client
        .call(&counter, "get", vec![])
        .unwrap()
        .as_i64()
        .unwrap();
    assert!(
        value >= acknowledged,
        "a confirmed increment was lost: value {value} < acknowledged {acknowledged}"
    );
    assert!(
        value <= attempts,
        "an increment was applied more than once: value {value} > attempts {attempts}"
    );
    mesh.shutdown();
}

/// Counts its executions per argument in memory the test shares: unlike a
/// durable log with a dedupe in the handler, it sees every execution.
struct Counter(Arc<Mutex<HashMap<i64, u32>>>);

impl Actor for Counter {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "count" => {
                let key = args[0].as_i64().unwrap_or(-1);
                *self.0.lock().unwrap().entry(key).or_default() += 1;
                Ok(Outcome::value(Value::Null))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

#[test]
fn one_request_on_two_lanes_executes_once() {
    const IDS: i64 = 1000;

    let mesh = Mesh::new(MeshConfig::for_tests().with_reactor_threads(2));
    let node = mesh.add_node();
    let executions: Arc<Mutex<HashMap<i64, u32>>> = Arc::default();
    let counts = Arc::clone(&executions);
    let server = mesh.add_component(node, "server", move |c| {
        c.host("Counter", move || Box::new(Counter(Arc::clone(&counts))))
    });
    let home = mesh.partition_set(server).unwrap().home().to_vec();
    let broker = mesh.broker();
    for i in 0..IDS {
        let request = RequestMessage {
            // Far above the ids the mesh hands out itself.
            id: RequestId::from_raw((1 << 40) + i as u64),
            caller: None,
            target: ActorRef::new("Counter", format!("c{}", i % 8)),
            method: "count".into(),
            args: vec![Value::Int(i)],
            kind: CallKind::Tell,
            lineage: Vec::new(),
            pending_callee: None,
            caller_actor: None,
            reply_to: None,
            retry: None,
            single_copy: false,
        };
        // One request, two records, two lanes: both copies are admitted at
        // about the same moment, on different reactors.
        broker
            .admin_append("kar", home[0], Envelope::Request(request.clone()))
            .unwrap();
        broker
            .admin_append("kar", home[1], Envelope::Request(request))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while executions.lock().unwrap().len() < IDS as usize {
        assert!(Instant::now() < deadline, "not every request ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Give a late second execution the time to show.
    std::thread::sleep(Duration::from_millis(200));
    let twice: Vec<(i64, u32)> = executions
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, runs)| **runs != 1)
        .map(|(id, runs)| (*id, *runs))
        .collect();
    assert!(
        twice.is_empty(),
        "requests executed more than once: {twice:?}"
    );
    mesh.shutdown();
}
