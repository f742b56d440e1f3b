//! Integration tests for the retry-orchestration scenarios of Figures 1 and 2
//! of the paper: nested calls interrupted by failures at different points,
//! the happen-before guarantee between a retried caller and its outstanding
//! callee, tail-call lock retention, and cancellation of orphaned callees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, CancellationPolicy, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarError, KarResult, Value};

/// An actor that appends events to a shared in-memory journal so tests can
/// assert ordering properties across retries. The journal survives failures
/// (it lives in the test harness), while the actor's in-memory state does not
/// — exactly the visibility a human operator has when reading service logs.
#[derive(Clone, Default)]
struct Journal {
    events: Arc<std::sync::Mutex<Vec<String>>>,
    slow_task_ms: Arc<AtomicU64>,
}

impl Journal {
    fn record(&self, event: impl Into<String>) {
        self.events.lock().expect("journal lock").push(event.into());
    }

    fn events(&self) -> Vec<String> {
        self.events.lock().expect("journal lock").clone()
    }
}

/// Caller actor: `main` performs a nested call to `B/b.task` and resumes —
/// `main:end` — with its result: the paper's `await actor.call(...)`.
struct CallerA {
    journal: Journal,
}

/// Callee actor: `task` optionally sleeps (so the test can interleave a
/// failure) and calls back into the caller (`callback`) to exercise
/// reentrancy: the callback is admitted along the lineage while `main` is
/// parked on `task`, holding its actor's lock.
struct CalleeB {
    journal: Journal,
}

impl Actor for CallerA {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "main" => {
                self.journal.record("main:start");
                let journal = self.journal.clone();
                Ok(ctx.call_then(
                    &ActorRef::new("B", "b"),
                    "task",
                    args.to_vec(),
                    move |_, result| {
                        let result = result?;
                        journal.record("main:end");
                        Ok(Outcome::value(result))
                    },
                ))
            }
            "callback" => {
                self.journal.record("callback");
                Ok(Outcome::value(args.first().cloned().unwrap_or(Value::Null)))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

impl Actor for CalleeB {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "task" => {
                self.journal.record("task:start");
                let delay = self.journal.slow_task_ms.load(Ordering::Relaxed);
                if delay > 0 {
                    std::thread::sleep(Duration::from_millis(delay));
                }
                let journal = self.journal.clone();
                Ok(ctx.call_then(
                    &ActorRef::new("A", "a"),
                    "callback",
                    args.to_vec(),
                    move |_, value| {
                        let value = value?;
                        journal.record("task:end");
                        Ok(Outcome::value(value))
                    },
                ))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

struct Topology {
    mesh: Mesh,
    journal: Journal,
}

/// The component currently hosting `actor`, read from the placement store.
fn placed_on(mesh: &Mesh, actor: &ActorRef) -> kar_types::ComponentId {
    let key = kar::placement::placement_key(actor);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(value) = mesh.store().admin_get(&key) {
            if let Some(component) = kar::placement::component_from_value(&value) {
                return component;
            }
        }
        assert!(Instant::now() < deadline, "actor {actor} was never placed");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Builds a mesh where actor A and actor B live on different components (so
/// they can fail independently), with standby replicas for both types.
fn caller_callee_topology(config: MeshConfig) -> Topology {
    let journal = Journal::default();
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let ja = journal.clone();
    mesh.add_component(node, "a-primary", move |c| {
        let ja = ja.clone();
        c.host("A", move || {
            Box::new(CallerA {
                journal: ja.clone(),
            })
        })
    });
    let jb = journal.clone();
    mesh.add_component(node, "b-primary", move |c| {
        let jb = jb.clone();
        c.host("B", move || {
            Box::new(CalleeB {
                journal: jb.clone(),
            })
        })
    });
    // Standby replicas hosting both types so re-placement always succeeds.
    let js = journal.clone();
    mesh.add_component(node, "standby", move |c| {
        let ja = js.clone();
        let jb = js.clone();
        c.host("A", move || {
            Box::new(CallerA {
                journal: ja.clone(),
            })
        })
        .host("B", move || {
            Box::new(CalleeB {
                journal: jb.clone(),
            })
        })
    });
    Topology { mesh, journal }
}

#[test]
fn scenario_1_failure_free_nested_call_with_reentrancy() {
    let topology = caller_callee_topology(MeshConfig::for_tests());
    let client = topology.mesh.client();
    let result = client
        .call(&ActorRef::new("A", "a"), "main", vec![Value::Int(42)])
        .unwrap();
    assert_eq!(result, Value::Int(42));
    let events = topology.journal.events();
    assert_eq!(
        events,
        vec![
            "main:start",
            "task:start",
            "callback",
            "task:end",
            "main:end"
        ]
    );
    topology.mesh.shutdown();
}

#[test]
fn scenario_3_callee_failure_is_retried_and_the_caller_still_completes() {
    // Fig. 1 (3): the failure hits the callee only; the callee is retried and
    // the caller's call eventually returns.
    let topology = caller_callee_topology(MeshConfig::for_tests());
    let client = topology.mesh.client();
    topology.journal.slow_task_ms.store(200, Ordering::Relaxed);

    let mesh = topology.mesh.clone();
    let killer = std::thread::spawn(move || {
        // Let the callee start, then kill the component actually hosting it
        // mid-execution.
        std::thread::sleep(Duration::from_millis(60));
        let victim = placed_on(&mesh, &ActorRef::new("B", "b"));
        mesh.kill_component(victim);
    });
    let result = client
        .call(&ActorRef::new("A", "a"), "main", vec![Value::Int(7)])
        .unwrap();
    killer.join().unwrap();
    assert_eq!(result, Value::Int(7));

    let events = topology.journal.events();
    // The task started at least twice (original + retry); the caller observed
    // exactly one completion and the callback ran for every task execution.
    let task_starts = events.iter().filter(|e| *e == "task:start").count();
    let task_ends = events.iter().filter(|e| *e == "task:end").count();
    let main_ends = events.iter().filter(|e| *e == "main:end").count();
    assert!(
        task_starts >= 2,
        "expected a retry of the callee, events: {events:?}"
    );
    assert!((1..=task_starts).contains(&task_ends), "events: {events:?}");
    assert_eq!(main_ends, 1);
    assert_eq!(*events.last().unwrap(), "main:end");
    topology.mesh.shutdown();
}

#[test]
fn scenario_4_caller_failure_waits_for_the_callee_before_retrying() {
    // Fig. 1 (4) and Fig. 2 (a): the caller fails while the callee is still
    // running; the retry of the caller must happen after the callee's fate is
    // decided, so "main" can never restart while "task" is in progress.
    let topology = caller_callee_topology(MeshConfig::for_tests());
    let client = topology.mesh.client();
    topology.journal.slow_task_ms.store(300, Ordering::Relaxed);

    let mesh = topology.mesh.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        let victim = placed_on(&mesh, &ActorRef::new("A", "a"));
        mesh.kill_component(victim);
    });
    let result = client
        .call(&ActorRef::new("A", "a"), "main", vec![Value::Int(9)])
        .unwrap();
    killer.join().unwrap();
    assert_eq!(result, Value::Int(9));

    let events = topology.journal.events();
    // Happen-before: between the first task:start and its task:end there must
    // be no main:start (the retried caller never overlaps the in-flight
    // callee). Because the callback is reentrant, a second main:start before
    // task:end would also produce an interleaved callback.
    let first_task_start = events.iter().position(|e| e == "task:start").unwrap();
    let first_task_end = events.iter().position(|e| e == "task:end").unwrap();
    let main_starts_inside = events[first_task_start + 1..first_task_end]
        .iter()
        .filter(|e| *e == "main:start")
        .count();
    assert_eq!(
        main_starts_inside, 0,
        "the caller was retried while its callee was still running: {events:?}"
    );
    assert!(events.iter().filter(|e| *e == "main:end").count() >= 1);
    topology.mesh.shutdown();
}

#[test]
fn scenario_6_joint_failure_retries_both_in_order() {
    // Fig. 1 (6): the failure hits caller and callee together; both are
    // retried and the call completes exactly once from the client's view.
    let topology = caller_callee_topology(MeshConfig::for_tests());
    let client = topology.mesh.client();
    topology.journal.slow_task_ms.store(200, Ordering::Relaxed);

    let mesh = topology.mesh.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        // Kill the hosts of both the caller and the callee "at once" (the
        // same-node failure of the paper's experiments).
        let a_host = placed_on(&mesh, &ActorRef::new("A", "a"));
        let b_host = placed_on(&mesh, &ActorRef::new("B", "b"));
        mesh.kill_component(a_host);
        if b_host != a_host {
            mesh.kill_component(b_host);
        }
    });
    let result = client
        .call(&ActorRef::new("A", "a"), "main", vec![Value::Int(5)])
        .unwrap();
    killer.join().unwrap();
    assert_eq!(result, Value::Int(5));
    let events = topology.journal.events();
    assert_eq!(events.iter().filter(|e| *e == "main:end").count(), 1);
    assert!(events.iter().filter(|e| *e == "main:start").count() >= 2);
    topology.mesh.shutdown();
}

#[test]
fn completed_invocations_are_never_repeated_after_recovery() {
    // Theorem 3.2 at the runtime level: a request that already produced its
    // response is discarded by reconciliation, not re-executed.
    let journal = Journal::default();
    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    let j1 = journal.clone();
    let primary = mesh.add_component(node, "primary", move |c| {
        let j1 = j1.clone();
        c.host("A", move || {
            Box::new(CallerA {
                journal: j1.clone(),
            })
        })
    });
    let j2 = journal.clone();
    mesh.add_component(node, "standby", move |c| {
        let j2 = j2.clone();
        c.host("A", move || {
            Box::new(CallerA {
                journal: j2.clone(),
            })
        })
    });
    let client = mesh.client();
    // `callback` is a plain method with no nested call: run it a few times.
    for i in 0..5 {
        client
            .call(&ActorRef::new("A", "a"), "callback", vec![Value::Int(i)])
            .unwrap();
    }
    let completed_before = journal.events().len();
    // Kill the hosting component *after* the invocations completed; recovery
    // must not replay any of them.
    mesh.kill_component(primary);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        journal.events().len(),
        completed_before,
        "a completed invocation was replayed"
    );
    // And the application still works on the standby.
    client
        .call(&ActorRef::new("A", "a"), "callback", vec![Value::Int(99)])
        .unwrap();
    mesh.shutdown();
}

#[test]
fn cancellation_elides_orphaned_callees() {
    // §4.4: with the Cancel policy, a callee whose caller's component failed
    // is elided and a synthetic response is produced instead of running it.
    let topology = caller_callee_topology(
        MeshConfig::for_tests().with_cancellation(CancellationPolicy::Cancel),
    );
    let client = topology.mesh.client();
    topology.journal.slow_task_ms.store(200, Ordering::Relaxed);
    let mesh = topology.mesh.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        let victim = placed_on(&mesh, &ActorRef::new("A", "a"));
        mesh.kill_component(victim);
    });
    // The root call still completes (the caller is retried on the standby).
    let result = client
        .call(&ActorRef::new("A", "a"), "main", vec![Value::Int(3)])
        .unwrap();
    killer.join().unwrap();
    assert_eq!(result, Value::Int(3));
    topology.mesh.shutdown();
}

#[test]
fn tail_call_to_self_keeps_other_requests_out_of_the_critical_section() {
    // §2.3: between `incr` and its tail-called `set`, no other invocation of
    // the same actor may interleave, even under concurrent callers.
    struct LockedCounter;
    impl Actor for LockedCounter {
        fn invoke(
            &mut self,
            ctx: &mut ActorContext<'_>,
            method: &str,
            args: &[Value],
        ) -> KarResult<Outcome> {
            match method {
                "get" => Ok(Outcome::value(
                    ctx.state().get("v")?.unwrap_or(Value::Int(0)),
                )),
                "set" => {
                    // Simulate a slow external store write.
                    std::thread::sleep(Duration::from_millis(5));
                    ctx.state().set("v", args[0].clone())?;
                    Ok(Outcome::value("OK"))
                }
                "incr" => {
                    let v = ctx.state().get("v")?.and_then(|x| x.as_i64()).unwrap_or(0);
                    std::thread::sleep(Duration::from_millis(5));
                    Ok(ctx.tail_call_self("set", vec![Value::Int(v + 1)]))
                }
                other => Err(KarError::application(format!("no method {other}"))),
            }
        }
    }

    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    mesh.add_component(node, "server", |c| {
        c.host("Counter", || Box::new(LockedCounter))
    });
    let counter = ActorRef::new("Counter", "c");
    let clients: Vec<_> = (0..4).map(|_| mesh.client()).collect();
    let started = Instant::now();
    let handles: Vec<_> = clients
        .into_iter()
        .map(|client| {
            let counter = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    client.call(&counter, "incr", vec![]).unwrap();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let client = mesh.client();
    let value = client.call(&counter, "get", vec![]).unwrap();
    // 4 clients × 5 increments, all serialized by the actor lock retained
    // across each incr→set tail call: no lost updates.
    assert_eq!(value, Value::Int(20));
    assert!(started.elapsed() >= Duration::from_millis(20 * 10));
    mesh.shutdown();
}

#[test]
fn retry_bookkeeping_empties_after_two_intervals() {
    // Guarantee (2) needs a completed id only while a queue copy of it can
    // still arrive: the dedup sets rotate on the doubled retention clock and
    // hold nothing two intervals after the last call. A compressed retention
    // of 500 ms makes the bookkeeping interval one second.
    let config = MeshConfig {
        retention: Duration::from_secs(100),
        ..MeshConfig::for_tests()
    };
    let interval = config.time_scale.compress(config.retention * 2);
    let journal = Journal::default();
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", move |c| {
        c.host("A", move || {
            Box::new(CallerA {
                journal: journal.clone(),
            })
        })
    });
    let client = mesh.client();
    let actor = ActorRef::new("A", "a");
    const CALLS: usize = 20;
    for i in 0..CALLS {
        client
            .call(&actor, "callback", vec![Value::Int(i as i64)])
            .unwrap();
    }
    // Well inside one interval: nothing can have been dropped yet.
    assert_eq!(
        mesh.retry_bookkeeping_len(server),
        Some((CALLS, 0)),
        "the server remembers every completed call"
    );
    assert_eq!(
        mesh.retry_bookkeeping_len(client.component_id()),
        Some((0, CALLS)),
        "the client remembers every response it saw"
    );
    std::thread::sleep(interval * 2);
    let deadline = Instant::now() + Duration::from_secs(10);
    for component in [server, client.component_id()] {
        while mesh.retry_bookkeeping_len(component) != Some((0, 0)) {
            assert!(
                Instant::now() < deadline,
                "bookkeeping of {component:?} never emptied: {:?}",
                mesh.retry_bookkeeping_len(component)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Emptied bookkeeping forgets nothing a live call needs.
    assert_eq!(
        client
            .call(&actor, "callback", vec![Value::Int(7)])
            .unwrap(),
        Value::Int(7)
    );
    assert_eq!(mesh.retry_bookkeeping_len(server), Some((1, 0)));
    mesh.shutdown();
}

/// Holds its handler until the test opens the gate, after signalling that
/// it has started (or for 20 s, so a failed test cannot wedge a reactor).
struct Gate(Arc<(std::sync::Mutex<(bool, bool)>, std::sync::Condvar)>);

impl Actor for Gate {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        let (state, changed) = &*self.0;
        let mut state = state.lock().unwrap();
        state.0 = true;
        changed.notify_all();
        let _open = changed
            .wait_timeout_while(state, Duration::from_secs(20), |state| !state.1)
            .unwrap();
        Ok(Outcome::value(Value::Null))
    }
}

#[test]
fn a_blocked_call_returns_killed_when_its_component_is_killed() {
    // The kill answers every edge caller blocked on the killed component at
    // once: the call fails with `Killed`, long before its timeout.
    let config = MeshConfig {
        call_timeout: Duration::from_secs(30),
        ..MeshConfig::for_tests().with_reactor_threads(2)
    };
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    let gate: Arc<(std::sync::Mutex<(bool, bool)>, std::sync::Condvar)> = Arc::default();
    mesh.add_component(node, "gate", {
        let gate = Arc::clone(&gate);
        move |c| c.host("Gate", move || Box::new(Gate(Arc::clone(&gate))))
    });
    let client = mesh.client();
    let caller = client.component_id();
    let started = Instant::now();
    let call = std::thread::spawn({
        let client = client.clone();
        move || client.call(&ActorRef::new("Gate", "g"), "wait", Vec::new())
    });
    // The handler runs: the call is issued, and its caller blocked on it.
    {
        let (state, changed) = &*gate;
        let state = state.lock().unwrap();
        let state = changed
            .wait_timeout_while(state, Duration::from_secs(10), |state| !state.0)
            .unwrap()
            .0;
        assert!(state.0, "the gate's handler never ran");
    }
    mesh.kill_component(caller);
    let result = call.join().unwrap();
    assert_eq!(result, Err(KarError::Killed { component: caller }));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the killed call took {:?}",
        started.elapsed()
    );
    let (state, changed) = &*gate;
    state.lock().unwrap().1 = true;
    changed.notify_all();
    mesh.shutdown();
}
