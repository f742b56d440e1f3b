//! Settled-prefix trimming of the partition logs (see `kar::settle` — the
//! module is private; its invariants are restated in the README's "Log
//! retention and trimming"):
//!
//! * steady state: a long run of echo calls keeps every home partition's
//!   log bounded, although retention is ten minutes and nothing expires;
//! * what must *not* be trimmed stays: a response that does not name its
//!   request's only record, and everything behind an unfinished parked
//!   `call_then`;
//! * failure model: killing a server whose logs have been trimmed still
//!   yields an exactly-once history (the `kar-semantics` oracle).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_queue::Broker;
use kar_semantics::{HistoryChecker, HistoryEvent};
use kar_types::{
    ActorRef, ComponentId, DeploymentProfile, Envelope, KarError, KarResult, LatencyProfile, Value,
};

/// The mesh topic (`kar::mesh`'s private constant, as `bench/` spells it).
const TOPIC: &str = "kar";

struct Echo;

impl Actor for Echo {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "echo" => Ok(Outcome::value(args[0].clone())),
            // Answers through a tail call: the response belongs to the
            // *successor* record, a second record of the request id.
            "relay" => Ok(ctx.tail_call_self("echo", args.to_vec())),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

fn home_partitions(mesh: &Mesh, component: ComponentId) -> Vec<usize> {
    mesh.partition_set(component)
        .expect("component exists")
        .home()
        .to_vec()
}

/// Polls `done` for up to two seconds (trims ride the timer tick).
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn home_partition_logs_stay_bounded_over_a_long_echo_run() {
    const CALLERS: usize = 2;
    const CALLS_PER_CALLER: usize = 25_000;
    const ACTORS: usize = 64;
    /// Settled records wait for the next sweep (every 64 settle events, or
    /// the timer tick), and a response also for the callee's trim of its
    /// origin; a handful of sweep batches per partition is the steady state,
    /// whatever the call count.
    const BOUND: usize = 1024;

    // The product defaults: real-time clock, 600 s retention, size bound
    // one million records — nothing in this run expires by itself.
    let mesh = Mesh::new(MeshConfig::default());
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Echo", || Box::new(Echo)));
    let client = mesh.client();
    let broker = mesh.broker();
    let mut partitions = home_partitions(&mesh, server);
    partitions.extend(home_partitions(&mesh, client.component_id()));

    let peak = Arc::new(Mutex::new(0usize));
    let callers: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let client = client.clone();
            let broker = broker.clone();
            let partitions = partitions.clone();
            let peak = Arc::clone(&peak);
            std::thread::spawn(move || {
                for i in 0..CALLS_PER_CALLER {
                    let actor =
                        ActorRef::new("Echo", format!("e{}", (i * CALLERS + caller) % ACTORS));
                    let sent = Value::Int(i as i64);
                    let got = client.call(&actor, "echo", vec![sent.clone()]).unwrap();
                    assert_eq!(got, sent);
                    if i % 500 == 0 {
                        let longest = partitions
                            .iter()
                            .map(|p| broker.partition_len(TOPIC, *p))
                            .max()
                            .unwrap_or(0);
                        let mut peak = peak.lock().unwrap();
                        *peak = (*peak).max(longest);
                    }
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().unwrap();
    }

    let appended: u64 = partitions
        .iter()
        .map(|p| broker.end_offset(TOPIC, *p))
        .sum();
    assert!(
        appended >= 2 * (CALLERS * CALLS_PER_CALLER) as u64,
        "every call appends a request and a response; saw {appended} appends"
    );
    let peak = *peak.lock().unwrap();
    println!("longest home partition mid-run: {peak} records of {appended} appended");
    assert!(
        peak < BOUND,
        "a home partition held {peak} records mid-run (bound {BOUND}, {appended} appended)\n{}",
        mesh.debug_report()
    );
    for partition in &partitions {
        let len = broker.partition_len(TOPIC, *partition);
        assert!(
            len < BOUND,
            "home partition {partition} ended at {len} records (bound {BOUND})\n{}",
            mesh.debug_report()
        );
    }
    // Every home partition — the server's requests and the client's
    // responses alike — lost almost everything it ever held.
    for partition in &partitions {
        let (start, end) = (
            broker.log_start(TOPIC, *partition),
            broker.end_offset(TOPIC, *partition),
        );
        assert!(start + (BOUND as u64) > end && start > 0);
    }
    let report = mesh.debug_report();
    assert!(
        report.contains("log_start=") && report.contains(" open=") && report.contains(" trimmed="),
        "debug_report must say why a log is (not) shrinking:\n{report}"
    );
    mesh.shutdown();
}

/// A long-retention variant of the test configuration: the compressed
/// failure-detection clock of `for_tests`, but nothing expires by age
/// within a test's lifetime — what disappears was trimmed.
fn long_retention_config() -> MeshConfig {
    let mut config = MeshConfig::for_tests();
    config.retention = Duration::from_secs(400_000);
    config
}

/// `(responses naming an origin, responses naming none)` in `partitions`.
fn responses_by_origin(broker: &Broker<Envelope>, partitions: &[usize]) -> (usize, usize) {
    let mut counts = (0, 0);
    for record in partitions
        .iter()
        .flat_map(|p| broker.read_partition(TOPIC, *p))
    {
        match record.payload.as_response() {
            Some(response) if response.origin.is_some() => counts.0 += 1,
            Some(_) => counts.1 += 1,
            None => {}
        }
    }
    counts
}

#[test]
fn a_response_that_names_no_origin_is_never_trimmed_early() {
    const CALLS: usize = 300;
    let mesh = Mesh::new(long_retention_config());
    let node = mesh.add_node();
    mesh.add_component(node, "server", |c| c.host("Echo", || Box::new(Echo)));
    let client = mesh.client();
    let broker = mesh.broker();
    let client_partitions = home_partitions(&mesh, client.component_id());
    let actor = ActorRef::new("Echo", "relay");

    // Plain calls first: each response names its request's only record and
    // is trimmed once the callee trimmed that record.
    for i in 0..CALLS {
        client
            .call(&actor, "echo", vec![Value::Int(i as i64)])
            .unwrap();
    }
    eventually("the single-copy responses are trimmed", || {
        responses_by_origin(&broker, &client_partitions) == (0, 0)
    });

    // Responses produced by a tail-call successor: the request id has (had)
    // two records, so the response names no origin and must outlive every
    // sweep — only time retention may drop it.
    for i in 0..CALLS {
        client
            .call(&actor, "relay", vec![Value::Int(i as i64)])
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        responses_by_origin(&broker, &client_partitions).1,
        CALLS,
        "responses without an origin must stay until retention\n{}",
        mesh.debug_report()
    );
    // And they pin everything consumed after them on the same partition:
    // plain calls keep completing, but their responses queue up behind.
    for i in 0..CALLS {
        client
            .call(&actor, "echo", vec![Value::Int(i as i64)])
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(150));
    let (with_origin, without) = responses_by_origin(&broker, &client_partitions);
    assert_eq!(without, CALLS);
    assert!(with_origin >= CALLS, "pinned responses were trimmed");
    mesh.shutdown();
}

/// Parks on a nested call to `Gate/g`, which holds the invocation until the
/// test opens the gate.
struct Front;

impl Actor for Front {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "apply" => Ok(ctx.call_then(
                &ActorRef::new("Gate", "g"),
                "pass",
                args.to_vec(),
                |_ctx, result| Ok(Outcome::value(result?)),
            )),
            "echo" => Ok(Outcome::value(args[0].clone())),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

struct Gate {
    open: Arc<AtomicBool>,
}

impl Actor for Gate {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "pass" => {
                while !self.open.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Outcome::value(args[0].clone()))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

#[test]
fn a_partition_holding_an_unfinished_parked_call_is_not_trimmed() {
    // A record settles when its completion's ack *arrives*: with no modelled
    // latency that is the append itself, inline; with one, the settle rides
    // a stage parked until the ack's due time. Same rule on both arms.
    for latency in [
        LatencyProfile::ZERO,
        DeploymentProfile::ClusterDev.latency_profile().scaled(0.2),
    ] {
        a_parked_call_pins_its_partition_until_its_completion_is_acked(latency);
    }
}

fn a_parked_call_pins_its_partition_until_its_completion_is_acked(latency: LatencyProfile) {
    const CALLS: usize = 100;
    let open = Arc::new(AtomicBool::new(false));
    let config = MeshConfig {
        latency,
        ..long_retention_config()
    };
    let mesh = Mesh::new(config.with_reactor_threads(3));
    let node = mesh.add_node();
    let front = mesh.add_component(node, "front", |c| c.host("Front", || Box::new(Front)));
    mesh.add_component(node, "gate", {
        let open = Arc::clone(&open);
        move |c| {
            c.host("Gate", move || {
                Box::new(Gate {
                    open: Arc::clone(&open),
                })
            })
        }
    });
    let client = mesh.client();
    let broker = mesh.broker();

    // The parked caller and a bystander actor that hashes onto the same
    // home partition of the front component.
    let parked = ActorRef::new("Front", "parked");
    let set = mesh.partition_set(front).unwrap();
    let partition = set.partition_for_key(&parked.qualified_name()).unwrap();
    let bystander = (0..)
        .map(|i| ActorRef::new("Front", format!("bystander-{i}")))
        .find(|actor| set.partition_for_key(&actor.qualified_name()) == Some(partition))
        .unwrap();

    let parked_call = {
        let client = client.clone();
        let parked = parked.clone();
        std::thread::spawn(move || client.call(&parked, "apply", vec![Value::Int(7)]))
    };
    eventually("the caller is parked on its nested call", || {
        mesh.parked_continuations(front) == Some(1)
    });
    let parked_offset = broker
        .read_partition(TOPIC, partition)
        .iter()
        .find(|record| {
            record
                .payload
                .as_request()
                .is_some_and(|request| request.method == "apply")
        })
        .map(|record| record.offset)
        .expect("the parked request's record is in its home partition");

    // Traffic behind the parked record settles but cannot be trimmed: the
    // log only ever loses a fully settled *prefix*.
    for i in 0..CALLS {
        client
            .call(&bystander, "echo", vec![Value::Int(i as i64)])
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        broker.log_start(TOPIC, partition) <= parked_offset,
        "the parked request's record was trimmed while its invocation is unfinished\n{}",
        mesh.debug_report()
    );
    assert!(broker.partition_len(TOPIC, partition) > CALLS);

    // Open the gate: the parked invocation completes, its record settles,
    // and the whole prefix goes at once.
    open.store(true, Ordering::SeqCst);
    assert_eq!(parked_call.join().unwrap().unwrap(), Value::Int(7));
    eventually("the settled prefix is trimmed", || {
        broker.partition_len(TOPIC, partition) == 0
    });
    assert!(broker.log_start(TOPIC, partition) > parked_offset);
    mesh.shutdown();
}

/// One durable write per request id, logged on first application only —
/// the idempotent-commit discipline of `kar-bench`'s simulation scenarios.
struct Ledger {
    commits: Arc<Mutex<Vec<u64>>>,
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
                let key = format!("r{req}");
                if ctx.state().get(&key)?.is_none() {
                    ctx.state().set(&key, Value::Int(1))?;
                    self.commits.lock().unwrap().push(req);
                }
                Ok(Outcome::value(args[0].clone()))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

#[test]
fn killing_a_server_with_trimmed_logs_keeps_exactly_once() {
    const CALLS: u64 = 2400;
    const KILL_AT: u64 = 1200;
    const ACTORS: u64 = 4;

    let commits: Arc<Mutex<Vec<u64>>> = Arc::default();
    let host = |commits: &Arc<Mutex<Vec<u64>>>| {
        let commits = Arc::clone(commits);
        move |c: kar::ComponentBuilder| {
            c.host("Ledger", move || {
                Box::new(Ledger {
                    commits: Arc::clone(&commits),
                })
            })
        }
    };
    let mesh = Mesh::new(long_retention_config());
    let node = mesh.add_node();
    let victim = mesh.add_component(node, "victim", host(&commits));
    let survivor = mesh.add_component(node, "survivor", host(&commits));
    let client = mesh.client();
    let broker = mesh.broker();

    let mut checker = HistoryChecker::new();
    let mut drained = 0;
    let mut seqs = vec![0u64; ACTORS as usize];
    for req in 1..=CALLS {
        if req == KILL_AT {
            // The logs the recovery is about to catalogue have lost their
            // settled prefixes already.
            let trimmed: u64 = [victim, survivor]
                .iter()
                .flat_map(|c| home_partitions(&mesh, *c))
                .map(|p| broker.log_start(TOPIC, p))
                .sum();
            assert!(trimmed > 0, "nothing was trimmed before the kill");
            mesh.kill_component(victim);
            checker.record(HistoryEvent::Kill {
                component: "victim".into(),
            });
            let node = mesh.add_node();
            mesh.add_component(node, "replacement", host(&commits));
        }
        let index = (req % ACTORS) as usize;
        let actor = ActorRef::new("Ledger", format!("l{index}"));
        seqs[index] += 1;
        checker.record(HistoryEvent::Issue {
            req,
            caller: "client".into(),
            actor: actor.qualified_name(),
            seq: seqs[index],
        });
        let result = client.call(&actor, "apply", vec![Value::Int(req as i64)]);
        let log = commits.lock().unwrap();
        for &committed in &log[drained..] {
            checker.record(HistoryEvent::Commit {
                req: committed,
                actor: format!("Ledger/l{}", committed % ACTORS),
            });
        }
        drained = log.len();
        drop(log);
        checker.record(HistoryEvent::Complete {
            req,
            ok: result.is_ok(),
        });
    }
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    checker.record(HistoryEvent::Recovered {
        component: "victim".into(),
    });
    // Late duplicates (a re-homed copy executing after its caller was
    // answered) would land here.
    std::thread::sleep(Duration::from_millis(200));
    for &committed in &commits.lock().unwrap()[drained..] {
        checker.record(HistoryEvent::Commit {
            req: committed,
            actor: format!("Ledger/l{}", committed % ACTORS),
        });
    }
    let violations = checker.finalize();
    assert!(
        violations.is_empty(),
        "history violations after a kill over trimmed logs: {violations:?}\n{}",
        mesh.debug_report()
    );
    assert_eq!(commits.lock().unwrap().len() as u64, CALLS);
    mesh.shutdown();
}
