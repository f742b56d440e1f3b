//! Modelled I/O is a completion (see `kar::io` — the module is private; its
//! invariants are restated in the README's "Modelled I/O is a completion"):
//! every latency the mesh models is a *due time*, and a reactor parks an
//! invocation until then instead of sleeping. Every other tier-1 suite runs
//! at zero latency, where each stage runs inline; this one runs the parked
//! path. Timing is asserted on a thread-local `VirtualClock` or read off the
//! runtime's counters, never measured on the wall clock.
//!
//! * the substrates: rounds submitted together to one partition are
//!   acknowledged one append latency apart, to distinct partitions together;
//!   a multi-partition round is one ack behind its busiest partition; a
//!   record is unreadable before its ack plus the delivery latency; a store
//!   round trip is applied at submit and acknowledged one latency later;
//! * the pipeline: with a single reactor, independent callers have more than
//!   one I/O outstanding at a time, and all of them complete; independent
//!   nested calls overlap their rounds' hops and acks too, and cold
//!   activations their state loads; a failed attempt's retry copy waits for
//!   its ack without the reactor; at zero latency nothing ever parks;
//! * a stale placement: the round of a nested call whose callee's placement
//!   points at a failed component parks — its reactor goes on serving other
//!   actors — and completes exactly once when the placement is repaired, or
//!   resumes its continuation with `Timeout` at the call-timeout deadline;
//! * failure: a component killed with stages parked completes nothing, leaves
//!   nothing parked, and the `kar-semantics` history oracle is clean after
//!   the recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kar::placement::{component_to_value, placement_key};
use kar::{
    Actor, ActorContext, BrownoutSpec, ComponentBuilder, FaultPlan, Mesh, MeshConfig, Outcome,
    RetryPolicy,
};
use kar_queue::{Broker, BrokerConfig, PartitionSet};
use kar_semantics::{HistoryChecker, HistoryEvent};
use kar_store::{Store, StoreConfig};
use kar_types::{
    ActorRef, ComponentId, DeploymentProfile, KarError, KarResult, LatencyProfile, Value,
    VirtualClock,
};

const ACK: Duration = Duration::from_millis(2);
const DELIVER: Duration = Duration::from_millis(3);

fn c(id: u64) -> ComponentId {
    ComponentId::from_raw(id)
}

/// Installs a fresh virtual clock on this thread and builds a broker with
/// [`ACK`]/[`DELIVER`] latencies on it.
fn broker_on_virtual_clock(partitions: usize) -> (Arc<VirtualClock>, Broker<u32>) {
    let clock = Arc::new(VirtualClock::new());
    kar_types::install_virtual_clock(Arc::clone(&clock));
    let broker: Broker<u32> = Broker::new(BrokerConfig {
        append_latency: ACK,
        deliver_latency: DELIVER,
        ..BrokerConfig::default()
    });
    broker.create_topic("t", partitions).unwrap();
    (clock, broker)
}

#[test]
fn acks_are_sequenced_per_partition_and_overlap_across_partitions() {
    const K: u32 = 5;
    let (clock, broker) = broker_on_virtual_clock(K as usize + 1);
    let producer = broker.producer(c(1));
    clock.advance(Duration::from_millis(10));
    let t = clock.now();

    // K rounds submitted together to ONE partition: nothing waits, nothing
    // moves the clock, and the acks are due at t+L, t+2L, …, t+KL.
    let dues: Vec<Duration> = (0..K)
        .map(|i| {
            let completion = producer.submit_round("t", vec![(0, vec![i])]).unwrap();
            let offsets = u64::from(i)..u64::from(i) + 1;
            assert_eq!(completion.result.unwrap(), vec![(0, offsets)]);
            completion.due.expect("a modelled ack is never immediate")
        })
        .collect();
    assert_eq!(clock.now(), t, "a submit must not wait");
    let expected: Vec<Duration> = (1..=K).map(|i| t + ACK * i).collect();
    assert_eq!(dues, expected, "one partition acknowledges in sequence");
    assert_eq!(broker.end_offset("t", 0), u64::from(K), "applied at submit");

    // K rounds submitted together to K DISTINCT partitions: all due at t+L.
    for partition in 1..=K as usize {
        let completion = producer
            .submit_round("t", vec![(partition, vec![7])])
            .unwrap();
        assert_eq!(completion.due, Some(t + ACK), "partition {partition}");
    }

    // A multi-partition round is ONE ack: it queues behind its busiest
    // partition (partition 0, busy until t+KL) and keeps every partition it
    // touches busy until it fires.
    let round = producer
        .submit_round("t", vec![(1, vec![8]), (0, vec![9]), (2, vec![])])
        .unwrap();
    assert_eq!(round.due, Some(t + ACK * (K + 1)));
    let behind = producer.submit_round("t", vec![(1, vec![10])]).unwrap();
    assert_eq!(behind.due, Some(t + ACK * (K + 2)), "partition 1 was held");
    // The empty group's partition was not.
    let free = producer.submit_round("t", vec![(2, vec![11])]).unwrap();
    assert_eq!(free.due, Some(t + ACK * 2));

    // The blocking form is the same submit plus the wait: one more append to
    // the idle partition K advances the clock by exactly one latency.
    clock.advance(Duration::from_secs(1));
    let before = clock.now();
    producer.send("t", K as usize, 12).unwrap();
    assert_eq!(clock.now() - before, ACK);
    kar_types::clear_virtual_clock();
}

#[test]
fn a_record_is_unreadable_before_its_ack_plus_the_delivery_latency() {
    let (clock, broker) = broker_on_virtual_clock(1);
    let producer = broker.producer(c(1));
    let consumer = broker.consumer(c(2), "t", 0).unwrap();
    let t = clock.now();
    let first = producer.submit_round("t", vec![(0, vec![1, 2])]).unwrap();
    let second = producer.submit_round("t", vec![(0, vec![3])]).unwrap();
    assert_eq!((first.due, second.due), (Some(t + ACK), Some(t + ACK * 2)));

    // Appended, not readable: neither at submit nor at the ack itself.
    assert_eq!(broker.end_offset("t", 0), 3);
    assert_eq!(broker.visible_end("t", 0), 0);
    assert!(!consumer.ready());
    assert!(consumer.poll(10).unwrap().is_empty());
    assert_eq!(consumer.next_visible_at(), Some(t + ACK + DELIVER));
    clock.advance(ACK);
    assert!(consumer.poll(10).unwrap().is_empty(), "readable at the ack");
    // One tick short of ack + deliver: still nothing.
    clock.advance(DELIVER - Duration::from_nanos(1));
    assert!(!consumer.ready());
    assert!(consumer.poll(10).unwrap().is_empty());
    // At ack + deliver the first batch — and only it — is readable.
    clock.advance(Duration::from_nanos(1));
    assert!(consumer.ready());
    let payloads: Vec<u32> = consumer
        .poll(10)
        .unwrap()
        .iter()
        .map(|record| *record.payload)
        .collect();
    assert_eq!(payloads, vec![1, 2]);
    assert_eq!(broker.visible_end("t", 0), 2);
    assert!(!consumer.ready());
    assert_eq!(consumer.next_visible_at(), Some(t + ACK * 2 + DELIVER));
    // A blocking poll waits out exactly the remaining latency.
    let records = consumer.poll_wait(10, Duration::from_secs(5)).unwrap();
    assert_eq!(*records[0].payload, 3);
    assert_eq!(clock.now(), t + ACK * 2 + DELIVER);
    assert_eq!(consumer.next_visible_at(), None);
    kar_types::clear_virtual_clock();
}

#[test]
fn a_store_round_trip_is_applied_at_submit_and_acknowledged_one_latency_later() {
    const OP: Duration = Duration::from_millis(4);
    let clock = Arc::new(VirtualClock::new());
    kar_types::install_virtual_clock(Arc::clone(&clock));
    let store = Store::with_config(StoreConfig::with_op_latency(OP));
    let conn = store.connect(c(1));
    clock.advance(Duration::from_millis(10));
    let t = clock.now();
    // Three round trips submitted together overlap: all due at t + OP.
    let first = conn
        .submit_hset_multi("h", [("a".to_owned(), Value::Int(1))])
        .unwrap();
    let mut pipeline = conn.pipeline();
    pipeline.hset("h", "b", Value::Int(2));
    pipeline.hdel("h", "a");
    let second = pipeline.submit().unwrap();
    let read = conn.submit_hgetall("h").unwrap();
    assert_eq!(
        (first.due, second.due, read.due),
        (Some(t + OP), Some(t + OP), Some(t + OP))
    );
    assert_eq!(clock.now(), t, "a submit must not wait");
    // Applied already: the store's ground truth shows both writes, and the
    // read carries it as it stood at its submit.
    let stored = store.admin_hgetall("h");
    assert_eq!(stored.get("b"), Some(&Value::Int(2)));
    assert_eq!(stored.get("a"), None);
    assert_eq!(read.result.unwrap(), stored);
    assert_eq!(store.stats().round_trips, 3);
    // The blocking command is the same round trip plus the wait.
    assert_eq!(conn.hget("h", "b").unwrap(), Some(Value::Int(2)));
    assert_eq!(clock.now(), t + OP);
    // A fenced submit is refused on the spot with nothing applied.
    store.fence(c(1));
    assert!(conn
        .submit_hset_multi("h", [("c".to_owned(), Value::Int(3))])
        .unwrap_err()
        .is_fenced());
    assert_eq!(store.admin_hgetall("h").get("c"), None);
    kar_types::clear_virtual_clock();
}

// ---------------------------------------------------------------------
// The pipeline, on a real mesh
// ---------------------------------------------------------------------

/// `for_tests` with every ClusterDev latency multiplied by `factor`.
fn config_with_latency(factor: f64) -> MeshConfig {
    MeshConfig {
        latency: DeploymentProfile::ClusterDev
            .latency_profile()
            .scaled(factor),
        ..MeshConfig::for_tests()
    }
}

/// The `io: parked= parked_max= resumed= inline=` line of the debug report.
#[derive(Debug, Clone, Copy)]
struct IoLine {
    parked: u64,
    parked_max: u64,
    resumed: u64,
    inline: u64,
}

fn io_line(mesh: &Mesh) -> IoLine {
    let report = mesh.debug_report();
    let line = report
        .lines()
        .find(|line| line.starts_with("io: "))
        .unwrap_or_else(|| panic!("no io line in:\n{report}"));
    let field = |name: &str| -> u64 {
        line.split_whitespace()
            .find_map(|word| word.strip_prefix(name)?.strip_prefix('='))
            .and_then(|value| value.parse().ok())
            .unwrap_or_else(|| panic!("no {name}= in {line:?}"))
    };
    IoLine {
        parked: field("parked"),
        parked_max: field("parked_max"),
        resumed: field("resumed"),
        inline: field("inline"),
    }
}

fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A durable counter whose increments are idempotent per request id: the
/// commit — marker and count in one flush — happens at most once however
/// often the invocation is retried. Announces each first application.
struct Ledger {
    commits: Sender<u64>,
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
                let marker = format!("r{req}");
                let state = ctx.state();
                let count = state.get("count")?.and_then(|v| v.as_i64()).unwrap_or(0);
                if state.get(&marker)?.is_none() {
                    state.set(&marker, Value::Int(1))?;
                    state.set("count", Value::Int(count + 1))?;
                    let _ = self.commits.send(req);
                    return Ok(Outcome::value(Value::Int(count + 1)));
                }
                Ok(Outcome::value(Value::Int(count)))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

fn host_ledger(commits: &Sender<u64>) -> impl FnOnce(ComponentBuilder) -> ComponentBuilder {
    let commits = Mutex::new(commits.clone());
    move |builder| {
        builder.host("Ledger", move || {
            Box::new(Ledger {
                commits: commits.lock().unwrap().clone(),
            })
        })
    }
}

fn ledger(id: impl std::fmt::Display) -> ActorRef {
    ActorRef::new("Ledger", format!("l{id}"))
}

fn stored_count(mesh: &Mesh, actor: &ActorRef) -> Option<i64> {
    mesh.store()
        .admin_hgetall(&format!("state/{}", actor.qualified_name()))
        .get("count")
        .and_then(Value::as_i64)
}

#[test]
fn one_reactor_overlaps_the_io_of_independent_callers() {
    const CALLERS: usize = 6;
    const CALLS: i64 = 8;
    let (commits, _committed) = channel();
    // One reactor: before, it slept through every ack itself, so the mesh
    // never had more than one I/O outstanding.
    let mesh = Mesh::new(config_with_latency(1.0).with_reactor_threads(1));
    let node = mesh.add_node();
    mesh.add_component(node, "server", host_ledger(&commits));
    let client = mesh.client();
    let callers: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let client = client.clone();
            std::thread::spawn(move || {
                for call in 1..=CALLS {
                    let req = Value::Int(caller as i64 * 1000 + call);
                    let count = client.call(&ledger(caller), "apply", vec![req]).unwrap();
                    assert_eq!(count, Value::Int(call), "caller {caller}");
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().unwrap();
    }
    for caller in 0..CALLERS {
        assert_eq!(stored_count(&mesh, &ledger(caller)), Some(CALLS));
    }
    let io = io_line(&mesh);
    assert!(
        io.parked_max > 1,
        "a single reactor never had two I/Os outstanding: {io:?}"
    );
    assert!(io.resumed > 0, "{io:?}");
    // Every stage that parked ran: only the responses' acks may still be out.
    eventually("every parked stage has run", || io_line(&mesh).parked == 0);
    mesh.shutdown();
}

/// Fails its first run and answers `Null` from then on, counting every run.
struct FailsOnce {
    runs: Arc<AtomicU64>,
}

impl Actor for FailsOnce {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        if self.runs.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err(KarError::application("the first attempt fails"));
        }
        Ok(Outcome::value(Value::Null))
    }
}

#[test]
fn a_retry_copy_parks_on_its_ack_and_holds_no_reactor() {
    const CALLS: i64 = 5;
    // Every append to the failing actor's home partition — its retry copy's
    // above all — is acknowledged this much late: a broker brownout on that
    // one partition.
    const SLOW: Duration = Duration::from_millis(250);
    let config = config_with_latency(1.0).with_reactor_threads(1);
    // The first component's home partitions.
    let home = PartitionSet::contiguous(0, config.effective_partitions_per_component());
    let failing = ActorRef::new("FailsOnce", "f");
    let slow = home.partition_for_key(&failing.qualified_name()).unwrap();
    let plan = FaultPlan::new(1).with_broker_brownout(BrownoutSpec {
        lane: Some(slow as u64),
        after_ops: 0,
        ops: u64::MAX,
        extra_latency: SLOW,
    });
    let mesh = Mesh::new(config.with_fault_plan(plan));
    let node = mesh.add_node();
    let (commits, _committed) = channel();
    let runs = Arc::new(AtomicU64::new(0));
    let server = mesh.add_component(node, "server", {
        let (runs, ledgers) = (Arc::clone(&runs), host_ledger(&commits));
        move |builder| {
            ledgers(builder).host("FailsOnce", move || {
                Box::new(FailsOnce {
                    runs: Arc::clone(&runs),
                })
            })
        }
    });
    assert_eq!(mesh.partition_set(server), Some(home.clone()));
    // An independent caller's ledger, on another partition: placed first.
    let bystander = (0..)
        .map(ledger)
        .find(|actor| home.partition_for_key(&actor.qualified_name()) != Some(slow))
        .unwrap();
    let client = mesh.client();
    client
        .call(&bystander, "apply", vec![Value::Int(0)])
        .unwrap();

    let failed = {
        let client = mesh.client();
        let policy = RetryPolicy::fixed(3, Duration::from_millis(10)).retry_all_errors();
        std::thread::spawn(move || client.call_with_policy(&failing, "work", vec![], policy))
    };
    eventually("the first attempt failed", || {
        runs.load(Ordering::SeqCst) >= 1
    });
    // Its retry copy is on its way to the one reactor's only queue: while
    // the copy waits for its ack, the bystander's calls keep completing. A
    // reactor that slept through that ack would serve none of them before
    // the copy was durable.
    let mut before_the_ack = 0;
    for call in 1..=CALLS {
        let count = client
            .call(&bystander, "apply", vec![Value::Int(call)])
            .unwrap();
        assert_eq!(count, Value::Int(call + 1));
        if mesh.retry_metrics().scheduled == 0 {
            before_the_ack += 1;
        }
    }
    assert_eq!(
        before_the_ack,
        CALLS,
        "the bystander waited for the retry copy's ack\n{}",
        mesh.debug_report()
    );
    assert_eq!(failed.join().unwrap().unwrap(), Value::Null);
    assert_eq!(mesh.retry_metrics().scheduled, 1);
    assert_eq!(runs.load(Ordering::SeqCst), 2);
    eventually("every parked stage has run", || io_line(&mesh).parked == 0);
    mesh.shutdown();
}

/// Calls — and parks on — a ledger of its own: `relay(req)` applies `req` to
/// `Ledger/l<own id>` and completes with what the ledger answered, or with
/// the text of the error that kept the nested call from completing. Counts
/// its resumptions; `fan(k)` tells relays `0..k` to relay request 1, and
/// `spread(k, req)` tells ledgers `0..k` to apply `req`.
struct Relay {
    resumed: Arc<AtomicU64>,
}

impl Actor for Relay {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "relay" => {
                let resumed = Arc::clone(&self.resumed);
                let own = ledger(ctx.self_ref().actor_id());
                Ok(
                    ctx.call_then(&own, "apply", args.to_vec(), move |_, answer| {
                        resumed.fetch_add(1, Ordering::SeqCst);
                        Ok(Outcome::value(answer.unwrap_or_else(|error| {
                            Value::from(format!("relay failed: {error}"))
                        })))
                    }),
                )
            }
            "fan" => {
                for i in 0..args[0].as_i64().unwrap_or(0) {
                    ctx.tell(&relay(i), "relay", vec![Value::Int(1)])?;
                }
                Ok(Outcome::value(Value::Null))
            }
            "spread" => {
                for i in 0..args[0].as_i64().unwrap_or(0) {
                    ctx.tell(&ledger(i), "apply", vec![args[1].clone()])?;
                }
                Ok(Outcome::value(Value::Null))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

fn relay(id: impl std::fmt::Display) -> ActorRef {
    ActorRef::new("Relay", id.to_string())
}

/// Hosts `Relay` next to whatever `rest` hosts.
fn host_relay(
    resumed: &Arc<AtomicU64>,
    rest: impl FnOnce(ComponentBuilder) -> ComponentBuilder,
) -> impl FnOnce(ComponentBuilder) -> ComponentBuilder {
    let resumed = Arc::clone(resumed);
    move |builder| {
        rest(builder).host("Relay", move || {
            Box::new(Relay {
                resumed: Arc::clone(&resumed),
            })
        })
    }
}

#[test]
fn independent_nested_calls_overlap_their_rounds_on_one_reactor() {
    const K: i64 = 6;
    const HOP: Duration = Duration::from_millis(10);
    // The simulator: one reactor lane on a virtual clock, where a wait that
    // blocks the lane *advances the clock* — so time held on the reactor is
    // read off exactly, and nothing here is measured on the wall clock.
    let latency = LatencyProfile {
        sidecar_hop: HOP,
        queue_append: ACK,
        ..LatencyProfile::ZERO
    };
    let mesh = Mesh::new(MeshConfig {
        latency,
        ..MeshConfig::deterministic(11).with_partitions_per_component(16)
    });
    let (commits, committed) = channel();
    let resumed = Arc::new(AtomicU64::new(0));
    let node = mesh.add_node();
    mesh.add_component(node, "server", host_relay(&resumed, host_ledger(&commits)));
    let client = mesh.client();
    // Warm up: place every actor, so the measured part is nothing but hops
    // and acks.
    for i in 0..K {
        assert_eq!(
            client
                .call(&relay(i), "relay", vec![Value::Int(0)])
                .unwrap(),
            Value::Int(1)
        );
    }
    client
        .call(&relay("fan"), "fan", vec![Value::Int(0)])
        .unwrap();
    assert_eq!(committed.try_iter().count() as i64, K);
    let warm = resumed.load(Ordering::SeqCst);

    // One handler tells all K relays in one round: K independent `call_then`
    // invocations become runnable at the same instant on the one reactor.
    let asked = kar_types::mono_now();
    client
        .call(&relay("fan"), "fan", vec![Value::Int(K)])
        .unwrap();
    let all_resumed = || resumed.load(Ordering::SeqCst) == warm + K as u64;
    assert!(
        mesh.sim_run_until(all_resumed, 100_000),
        "relays never finished"
    );
    let elapsed = kar_types::mono_now() - asked;
    assert_eq!(committed.try_iter().count() as i64, K);

    // One relay's path from the client's call: the client's hop and its
    // request's ack; the fan's start hop, its outbox round's hop and ack;
    // the relay's start hop, its nested round's hop and ack; the ledger's
    // start hop, its response's hop and ack; the relay's resume hop. The K
    // relays walk it side by side — a little behind each other where their
    // acks share a partition — so all of them are done in about that. A
    // reactor that waits out each nested round's hop and ack itself adds
    // (K - 1) × (hop + ack) to it.
    let one = HOP * 8 + ACK * 4;
    let held = (HOP + ACK) * (K as u32 - 1);
    assert!(
        elapsed < one + held / 2,
        "{K} independent nested calls took {elapsed:?}: one takes {one:?}, \
         and a reactor held by every round adds {held:?}\n{}",
        mesh.debug_report()
    );
    mesh.shutdown();
}

/// A [`Ledger`] that stamps the virtual clock each time a handler of it
/// starts.
struct Stamped {
    ledger: Ledger,
    starts: Arc<Mutex<Vec<Duration>>>,
}

impl Actor for Stamped {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        self.starts.lock().unwrap().push(kar_types::mono_now());
        self.ledger.invoke(ctx, method, args)
    }
}

/// The simulator's one reactor and virtual clock, where only the store models
/// a latency, `load`: a server hosting [`Relay`]s and [`Stamped`] ledgers,
/// whose handler starts are stamped into the returned list, and a victim
/// component, hosting only `FailsOnce`, to kill.
fn stamped_mesh(load: Duration) -> (Mesh, ComponentId, ComponentId, Arc<Mutex<Vec<Duration>>>) {
    let latency = LatencyProfile {
        store_op: load,
        ..LatencyProfile::ZERO
    };
    let mesh = Mesh::new(MeshConfig {
        latency,
        ..MeshConfig::deterministic(17)
    });
    let (commits, _committed) = channel();
    let starts = Arc::new(Mutex::new(Vec::new()));
    let resumed = Arc::new(AtomicU64::new(0));
    let node = mesh.add_node();
    let stamped = {
        let commits = Mutex::new(commits);
        let starts = Arc::clone(&starts);
        move |builder: ComponentBuilder| {
            builder.host("Ledger", move || {
                Box::new(Stamped {
                    ledger: Ledger {
                        commits: commits.lock().unwrap().clone(),
                    },
                    starts: Arc::clone(&starts),
                })
            })
        }
    };
    let server = mesh.add_component(node, "server", host_relay(&resumed, stamped));
    let victim = mesh.add_component(node, "victim", |builder| {
        builder.host("FailsOnce", || {
            Box::new(FailsOnce {
                runs: Arc::new(AtomicU64::new(0)),
            })
        })
    });
    (mesh, server, victim, starts)
}

#[test]
fn cold_activations_overlap_their_state_loads_on_one_reactor() {
    const K: i64 = 6;
    const LOAD: Duration = Duration::from_millis(10);
    let (mesh, server, victim, starts) = stamped_mesh(LOAD);
    let client = mesh.client();
    // Warm up: place the ledgers and the fan on the server.
    for i in 0..K {
        let count = client.call(&ledger(i), "apply", vec![Value::Int(0)]);
        assert_eq!(count.unwrap(), Value::Int(1));
    }
    client
        .call(&relay("fan"), "spread", vec![Value::Int(0), Value::Int(0)])
        .unwrap();
    // A recovery's refresh unloads every idle image in place: the ledgers
    // stay resident, their state cold.
    mesh.kill_component(victim);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(120)));
    assert_eq!(mesh.cached_state_count(server), Some(0));
    starts.lock().unwrap().clear();

    // One handler tells all K ledgers in one round — placing them on its
    // way, so their admissions read no store — and K cold activations are
    // runnable at the same instant on the one reactor.
    client
        .tell(&relay("fan"), "spread", vec![Value::Int(K), Value::Int(1)])
        .unwrap();
    let all_started = || starts.lock().unwrap().len() == K as usize;
    assert!(
        mesh.sim_run_until(all_started, 100_000),
        "ledgers never started"
    );
    for i in 0..K {
        assert!(
            mesh.sim_run_until(|| stored_count(&mesh, &ledger(i)) == Some(2), 100_000),
            "ledger {i} never committed"
        );
    }

    // The first handler starts where one cold activation does: its state
    // loaded, one store latency after its admission. The others load side
    // by side with it. A reactor that waits out each load itself starts
    // the last (K - 1) loads after the first.
    let starts = starts.lock().unwrap().clone();
    let one = starts[0];
    let last = *starts.last().unwrap();
    let held = LOAD * (K as u32 - 1);
    assert!(
        last < one + held / 2,
        "{K} cold activations started over {:?}: a reactor held by every \
         load spreads them over {held:?}\n{}",
        last - one,
        mesh.debug_report()
    );
    mesh.shutdown();

    // Never placed, and never warmed: only the fan is placed and resident.
    // Its one round places all K ledgers on its way — one round trip reads
    // their records and their type's hosts, one more claims a host for
    // each — and each activation reads its ownership and its state in one
    // more: the last ledger starts about three loads after the tell. A
    // reactor that blocks on each lookup holds the round for three round
    // trips per ledger, and every activation for one more: about 3K + K.
    let (mesh, _, _, starts) = stamped_mesh(LOAD);
    let client = mesh.client();
    client
        .call(&relay("fan"), "spread", vec![Value::Int(0), Value::Int(0)])
        .unwrap();
    assert!(starts.lock().unwrap().is_empty(), "a ledger was warmed");
    let asked = kar_types::mono_now();
    client
        .tell(&relay("fan"), "spread", vec![Value::Int(K), Value::Int(1)])
        .unwrap();
    let all_started = || starts.lock().unwrap().len() == K as usize;
    assert!(
        mesh.sim_run_until(all_started, 100_000),
        "never-placed ledgers never started"
    );
    let last = *starts.lock().unwrap().iter().max().unwrap();
    assert!(
        last - asked < LOAD * 4,
        "{K} never-placed ledgers started {:?} after the tell: one round's \
         lookup and their activations take three loads\n{}",
        last - asked,
        mesh.debug_report()
    );
    for i in 0..K {
        assert!(
            mesh.sim_run_until(|| stored_count(&mesh, &ledger(i)) == Some(1), 100_000),
            "never-placed ledger {i} never committed"
        );
    }
    mesh.shutdown();
}

/// A one-reactor mesh in which relay `r` lives on the survivor and its
/// ledger `lr` lived on the victim, which was killed and recovered from —
/// and has the ledger's placement pinned back onto it: what a caller sees
/// between a rebalance and the reconciliation's rewrite, held open for as
/// long as the test likes, with the survivor unpaused. Returns the mesh, the
/// survivor and the relays' resumption counter (1: the warm-up).
fn mesh_with_a_stale_callee(
    config: MeshConfig,
    commits: &Sender<u64>,
) -> (Mesh, ComponentId, Arc<AtomicU64>) {
    let resumed = Arc::new(AtomicU64::new(0));
    let mesh = Mesh::new(config.with_reactor_threads(1));
    let node = mesh.add_node();
    let survivor = mesh.add_component(node, "survivor", host_relay(&resumed, host_ledger(commits)));
    let victim = mesh.add_component(node, "victim", host_ledger(commits));
    let stale = component_to_value(victim);
    let client = mesh.client();
    // Place the ledger on the victim by hand, before anybody resolves it.
    mesh.store()
        .admin_set(&placement_key(&ledger("r")), stale.clone());
    let warm = client.call(&relay("r"), "relay", vec![Value::Int(0)]);
    assert_eq!(warm.unwrap(), Value::Int(1));
    let warm = client.call(&ledger("bystander"), "apply", vec![Value::Int(0)]);
    assert_eq!(warm.unwrap(), Value::Int(1));
    if mesh.store().admin_get(&placement_key(&ledger("bystander"))) == Some(stale.clone()) {
        // Placed on the victim: let the recovery move it.
        mesh.store().admin_del(&placement_key(&ledger("bystander")));
    }
    mesh.kill_component(victim);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    mesh.store().admin_set(&placement_key(&ledger("r")), stale);
    (mesh, survivor, resumed)
}

#[test]
fn a_round_that_meets_a_stale_placement_parks_and_completes_once_repaired() {
    let (commits, committed) = channel();
    let (mesh, survivor, resumed) = mesh_with_a_stale_callee(MeshConfig::for_tests(), &commits);
    let client = mesh.client();
    let _ = committed.try_iter().count();
    let parks_before = io_line(&mesh).resumed;
    let stalled = {
        let client = client.clone();
        std::thread::spawn(move || client.call(&relay("r"), "relay", vec![Value::Int(7)]))
    };
    // The relay's round is a parked stage, tried again every few ms.
    eventually("the stalled round is parked", || io_line(&mesh).parked >= 1);
    eventually("the stalled round was retried", || {
        io_line(&mesh).resumed >= parks_before + 3
    });
    // Meanwhile the one reactor serves an unrelated actor of the relay's
    // own component — nobody is waiting on it.
    for call in 1..=20 {
        let count = client
            .call(&ledger("bystander"), "apply", vec![Value::Int(call)])
            .unwrap();
        assert_eq!(count, Value::Int(call + 1));
    }
    // (Polled: an attempt takes the round off the heap for a moment.)
    eventually("the round is still parked", || io_line(&mesh).parked >= 1);
    assert_eq!(
        resumed.load(Ordering::SeqCst),
        1,
        "only the warm-up resumed"
    );
    // Reconciliation's rewrite: the ledger now lives on the survivor.
    mesh.store()
        .admin_set(&placement_key(&ledger("r")), component_to_value(survivor));
    assert_eq!(stalled.join().unwrap().unwrap(), Value::Int(2));
    assert_eq!(resumed.load(Ordering::SeqCst), 2, "resumed exactly once");
    let applied: Vec<u64> = committed.try_iter().collect();
    assert_eq!(applied, (1..=20).chain([7]).collect::<Vec<u64>>());
    eventually("nothing is left parked", || io_line(&mesh).parked == 0);
    mesh.shutdown();
}

#[test]
fn a_round_whose_placement_stays_stale_fails_with_timeout_at_the_deadline() {
    const CALL_TIMEOUT: Duration = Duration::from_millis(300);
    let (commits, committed) = channel();
    let config = MeshConfig {
        call_timeout: CALL_TIMEOUT,
        ..MeshConfig::for_tests()
    };
    let (mesh, _survivor, resumed) = mesh_with_a_stale_callee(config, &commits);
    let client = mesh.client();
    let _ = committed.try_iter().count();
    // A tell: a calling client would give up at the same deadline, a moment
    // before the relay's round does.
    let issued = Instant::now();
    client
        .tell(&relay("r"), "relay", vec![Value::Int(7)])
        .unwrap();
    eventually("the stalled round is parked", || io_line(&mesh).parked >= 1);
    eventually("the continuation is resumed", || {
        resumed.load(Ordering::SeqCst) == 2
    });
    assert!(
        issued.elapsed() >= CALL_TIMEOUT,
        "the round gave up after {:?}, before its deadline",
        issued.elapsed()
    );
    // With the timeout, nothing else: the ledger was never called, and the
    // relay is free for its next request, which fails the same way — the
    // caller gives up at its own deadline, unless the relay's answer (its
    // round's deadline is a moment later) makes it first.
    match client.call(&relay("r"), "relay", vec![Value::Int(8)]) {
        Err(KarError::Timeout { .. }) => {}
        Ok(Value::Str(said)) if said.contains("timed out") => {}
        other => panic!("neither deadline fired: {other:?}"),
    }
    eventually("the second continuation is resumed", || {
        resumed.load(Ordering::SeqCst) == 3
    });
    assert_eq!(committed.try_iter().count(), 0);
    eventually("nothing is left parked", || io_line(&mesh).parked == 0);
    mesh.shutdown();
}

#[test]
fn at_zero_latency_every_stage_runs_inline() {
    let (commits, _committed) = channel();
    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    mesh.add_component(node, "server", host_ledger(&commits));
    let client = mesh.client();
    for call in 1..=20 {
        let count = client
            .call(&ledger(0), "apply", vec![Value::Int(call)])
            .unwrap();
        assert_eq!(count, Value::Int(call));
    }
    let io = io_line(&mesh);
    assert_eq!((io.parked, io.parked_max, io.resumed), (0, 0, 0), "{io:?}");
    assert!(io.inline > 0, "{io:?}");
    assert_eq!(LatencyProfile::ZERO, mesh.config().latency);
    mesh.shutdown();
}

#[test]
fn a_component_killed_with_stages_parked_completes_nothing_and_recovers_exactly_once() {
    const CALLS: u64 = 12;
    const KILL_AT: u64 = 6;
    let (commits, committed) = channel();
    // Latencies long enough that the victim is observed — and killed — with
    // its invocation parked between the state flush and the response.
    let mesh = Mesh::new(config_with_latency(10.0));
    let node = mesh.add_node();
    let servers = [
        mesh.add_component(node, "server-a", host_ledger(&commits)),
        mesh.add_component(node, "server-b", host_ledger(&commits)),
    ];
    let client = mesh.client();
    let actor = ledger("victim");
    let state_key = format!("state/{}", actor.qualified_name());

    let mut checker = HistoryChecker::new();
    let record_commits = |checker: &mut HistoryChecker| {
        for req in committed.try_iter() {
            checker.record(HistoryEvent::Commit {
                req,
                actor: actor.qualified_name(),
            });
        }
    };
    let mut victim = None;
    for req in 1..=CALLS {
        checker.record(HistoryEvent::Issue {
            req,
            caller: "client".into(),
            actor: actor.qualified_name(),
            seq: req,
        });
        let result = if req == KILL_AT {
            // The component the actor was placed on by the earlier calls.
            let placed = mesh
                .store()
                .admin_get(&format!("placement/{}", actor.qualified_name()))
                .and_then(|value| value.as_i64())
                .map(|raw| ComponentId::from_raw(raw as u64))
                .expect("the actor is placed");
            assert!(servers.contains(&placed));
            let answered_before = mesh.response_batch_stats(placed).unwrap().0;
            let call = {
                let (client, actor) = (client.clone(), actor.clone());
                std::thread::spawn(move || {
                    client.call(&actor, "apply", vec![Value::Int(req as i64)])
                })
            };
            // The store applies a flush at submit: the marker showing up
            // means the state flush is in flight — the invocation is parked
            // on it, with the response hop and the response still ahead.
            let marker = format!("r{req}");
            eventually("the invocation's state flush is submitted", || {
                mesh.store().admin_hgetall(&state_key).contains_key(&marker)
            });
            assert!(io_line(&mesh).parked >= 1, "nothing parked at the kill");
            mesh.kill_component(placed);
            checker.record(HistoryEvent::Kill {
                component: format!("{placed}"),
            });
            // Its parked stages are gone with it, and it answers nobody: the
            // call can only complete through recovery.
            eventually("the victim's parked stages are dropped", || {
                io_line(&mesh).parked == 0
            });
            victim = Some((placed, answered_before));
            call.join().unwrap()
        } else {
            client.call(&actor, "apply", vec![Value::Int(req as i64)])
        };
        record_commits(&mut checker);
        checker.record(HistoryEvent::Complete {
            req,
            ok: result.is_ok(),
        });
        assert_eq!(result.unwrap(), Value::Int(req as i64), "request {req}");
    }
    let (victim, answered_before) = victim.expect("the kill happened");
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    checker.record(HistoryEvent::Recovered {
        component: format!("{victim}"),
    });
    assert_eq!(
        mesh.response_batch_stats(victim).unwrap().0,
        answered_before,
        "the killed component emitted a completion after its kill"
    );
    // Late duplicates (a re-homed copy re-applying) would land here.
    std::thread::sleep(Duration::from_millis(200));
    record_commits(&mut checker);
    let violations = checker.finalize();
    assert!(
        violations.is_empty(),
        "history violations: {violations:?}\n{}",
        mesh.debug_report()
    );
    assert_eq!(stored_count(&mesh, &actor), Some(CALLS as i64));
    assert_eq!(io_line(&mesh).parked, 0);
    mesh.shutdown();
}
