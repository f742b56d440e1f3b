//! The price of one warm call, in heap allocations and bytes.
//!
//! A std-only counting global allocator counts every allocation the process
//! makes — the client, the reactors, the timer — while one caller thread
//! runs warm calls against a mesh whose actors are all resident:
//!
//! - *echo*: the `echo_inmem` shape — 64 stateless `Echo` actors on one
//!   server, product defaults (zero latency), a 20-byte payload;
//! - *counter*: the `counter_ack` shape at zero latency — 64 `Counter`
//!   actors that read and write one durable field per call.
//!
//! Each prints its allocations and bytes per call (run with `--nocapture`
//! to see them) and asserts a ceiling 25 % above the measured value, so a
//! change that adds an allocation to the call path fails here. The retry
//! bookkeeping (completed and seen-response ids) adds none in steady state:
//! its bitmaps grow by one word per 64 calls.
//!
//! Where a warm echo call's ~18 allocations go (three are this file's own:
//! the arguments and the expected reply): the request's target and method
//! strings (3), its one-message run (2), a log record per envelope (2), a
//! poll batch per delivery (2), the response payload's `Arc` and the
//! caller's owned copy of it (2), the response run and the records it
//! settles (2), the handler's result (1), and the settle tracker's
//! bookkeeping (under 1).
//!
//! A third test prices a *cold* activation: the first call to a fresh
//! `Counter`, which places the actor, activates it, loads its (empty) state
//! hash and flushes its first write.
//!
//! A fourth test counts what an idle mesh allocates: its reactors sweep
//! every component every idle slice, and a sweep must allocate nothing.
//!
//! A fifth prices a call in time rather than memory: a warm counter call
//! under the ClusterDev profile against the sum of the modelled latencies
//! on its critical path. What is left over is the runtime's own work plus
//! how late each wait for a modelled instant wakes. A sixth does the same
//! for a first call, whose placement lookup and activation add three store
//! round trips to that path and nothing else.
//!
//! A seventh prices the hand-off between threads: the calling thread's
//! voluntary context switches per warm echo call (Linux only), printed
//! beside the allocations. A caller that parks on its slot sleeps once per
//! call; one that yields for its answer first almost never does. The two
//! timing tests and this one run only in release builds.
//!
//! The last two price a warm echo and a warm counter call in lock
//! acquisitions — every `parking_lot` lock taken by any thread, counted per
//! call site by the shim's `count` feature (this package's test builds
//! enable it) — and print the busiest sites. The std locks of the call
//! slot and the wait signals are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Client, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, DeploymentProfile, KarError, KarResult, Value};

/// Counts allocations (an in-place or moving `realloc` counts as one) and
/// the bytes they ask for, then defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocator is process-wide: one measurement at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const WARM_ACTORS: usize = 64;
const WARMUP_CALLS: usize = 20_000;
const MEASURED_CALLS: usize = 10_000;
const COLD_WARMUP_CALLS: usize = 2_000;
const COLD_MEASURED_CALLS: usize = 2_000;

/// `echo(payload)` returns `payload`.
struct Echo;

impl Actor for Echo {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "echo" => Ok(Outcome::value(args.first().cloned().unwrap_or(Value::Null))),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// `bump()` increments the durable `count` field and returns it.
struct Counter;

impl Actor for Counter {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "bump" => {
                let count = ctx
                    .state()
                    .get("count")?
                    .and_then(|value| value.as_i64())
                    .unwrap_or(0)
                    + 1;
                ctx.state().set("count", Value::Int(count))?;
                Ok(Outcome::value(Value::Int(count)))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// What one warm call cost, averaged over the measured calls.
#[derive(Debug)]
struct PerCall {
    allocations: f64,
    bytes: f64,
    /// The calling thread's voluntary context switches — where
    /// `/proc/thread-self/status` says.
    switches: Option<f64>,
}

/// The calling thread's voluntary context switches so far, or `None`
/// where `/proc/thread-self/status` is absent (not Linux).
fn voluntary_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()
}

/// Runs `call(i)` for the warm-up, then counts what `MEASURED_CALLS` more
/// allocate, and how often the calling thread blocked meanwhile (read
/// outside the allocation window: reading it allocates).
fn measure(name: &str, mut call: impl FnMut(usize)) -> PerCall {
    for i in 0..WARMUP_CALLS {
        call(i);
    }
    let switches = voluntary_switches();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);
    for i in WARMUP_CALLS..WARMUP_CALLS + MEASURED_CALLS {
        call(i);
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - allocations;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes;
    let calls = MEASURED_CALLS as f64;
    let per_call = PerCall {
        allocations: allocations as f64 / calls,
        bytes: bytes as f64 / calls,
        switches: switches
            .zip(voluntary_switches())
            .map(|(before, after)| (after - before) as f64 / calls),
    };
    let switches = per_call.switches.map_or_else(String::new, |switches| {
        format!(", {switches:.2} voluntary switches/call")
    });
    println!(
        "{name}: {:.2} allocations/call, {:.0} bytes/call{switches} over {MEASURED_CALLS} warm calls",
        per_call.allocations, per_call.bytes
    );
    per_call
}

/// [`measure`] for first calls: fewer of them, as each leaves a resident
/// actor and its store records behind.
fn measure_cold(name: &str, mut call: impl FnMut(usize)) -> PerCall {
    for i in 0..COLD_WARMUP_CALLS {
        call(i);
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);
    for i in COLD_WARMUP_CALLS..COLD_WARMUP_CALLS + COLD_MEASURED_CALLS {
        call(i);
    }
    let calls = COLD_MEASURED_CALLS as f64;
    let per_call = PerCall {
        allocations: (ALLOCATIONS.load(Ordering::SeqCst) - allocations) as f64 / calls,
        bytes: (BYTES.load(Ordering::SeqCst) - bytes) as f64 / calls,
        switches: None,
    };
    println!(
        "{name}: {:.2} allocations/call, {:.0} bytes/call over {COLD_MEASURED_CALLS} first calls",
        per_call.allocations, per_call.bytes
    );
    per_call
}

/// A mesh with one server hosting `actor_type`, and a client.
fn mesh_hosting(actor_type: &'static str, make: fn() -> Box<dyn Actor>) -> (Mesh, Client) {
    mesh_of(MeshConfig::default(), actor_type, make)
}

/// [`mesh_hosting`] under `config`.
fn mesh_of(
    config: MeshConfig,
    actor_type: &'static str,
    make: fn() -> Box<dyn Actor>,
) -> (Mesh, Client) {
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    mesh.add_component(node, "server", move |c| c.host(actor_type, make));
    let client = mesh.client();
    (mesh, client)
}

/// Warm echo calls on the `echo_inmem` shape, measured.
fn measure_echo(name: &str) -> PerCall {
    let (mesh, client) = mesh_hosting("Echo", || Box::new(Echo));
    let targets: Vec<ActorRef> = (0..WARM_ACTORS)
        .map(|actor| ActorRef::new("Echo", format!("e{actor}")))
        .collect();
    let payload = "x".repeat(20);
    let cost = measure(name, |i| echo_call(&client, &targets, &payload, i));
    mesh.shutdown();
    cost
}

/// Lock acquisitions per warm call, averaged over `MEASURED_CALLS` calls
/// after the warm-up.
#[derive(Debug)]
struct LocksPerCall {
    /// Every acquisition, `try_lock`s included.
    all: f64,
    /// Blocking acquisitions only: what the call's own path takes. The
    /// `try_lock`s are mostly reactors sweeping consumer lanes, whose count
    /// follows how often a reactor finds nothing to do.
    blocking: f64,
}

/// Counts the lock acquisitions of `MEASURED_CALLS` warm calls and prints
/// them with the busiest sites.
fn measure_locks(name: &str, mut call: impl FnMut(usize)) -> LocksPerCall {
    for i in 0..WARMUP_CALLS {
        call(i);
    }
    parking_lot::count::start();
    for i in WARMUP_CALLS..WARMUP_CALLS + MEASURED_CALLS {
        call(i);
    }
    parking_lot::count::stop();
    let calls = MEASURED_CALLS as f64;
    let sites = parking_lot::count::sites();
    let sum = |field: fn(&parking_lot::count::Tally) -> u64| {
        sites.iter().map(|(_, tally)| field(tally)).sum::<u64>() as f64 / calls
    };
    let per_call = LocksPerCall {
        all: sum(|tally| tally.acquisitions),
        blocking: sum(|tally| tally.acquisitions - tally.tries),
    };
    println!(
        "{name}: {:.2} lock acquisitions/call, {:.2} of them blocking, {:.2} contended, \
         over {MEASURED_CALLS} warm calls",
        per_call.all,
        per_call.blocking,
        sum(|tally| tally.contended)
    );
    for (site, tally) in sites.iter().take(LOCK_SITES_PRINTED) {
        println!(
            "  {:6.2} ({:.2} tries, {:.2} contended)  {}:{}",
            tally.acquisitions as f64 / calls,
            tally.tries as f64 / calls,
            tally.contended as f64 / calls,
            site.file(),
            site.line()
        );
    }
    per_call
}

/// A warm echo call on the `echo_inmem` shape, its payload checked.
fn echo_call(client: &Client, targets: &[ActorRef], payload: &str, i: usize) {
    let args = vec![Value::from(payload), Value::Int(i as i64)];
    let reply = client
        .call(&targets[i % targets.len()], "echo", args)
        .unwrap();
    assert_eq!(reply, Value::from(payload));
}

#[test]
fn a_warm_echo_call_stays_within_its_allocation_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cost = measure_echo("echo");
    assert!(cost.allocations <= ECHO_ALLOCATIONS_CEILING, "{cost:?}");
    assert!(cost.bytes <= ECHO_BYTES_CEILING, "{cost:?}");
}

#[test]
fn a_warm_counter_call_stays_within_its_allocation_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (mesh, client) = mesh_hosting("Counter", || Box::new(Counter));
    let targets: Vec<ActorRef> = (0..WARM_ACTORS)
        .map(|actor| ActorRef::new("Counter", format!("k{actor}")))
        .collect();
    let cost = measure("counter", |i| {
        let reply = client
            .call(&targets[i % WARM_ACTORS], "bump", vec![])
            .unwrap();
        assert_eq!(reply, Value::Int((i / WARM_ACTORS + 1) as i64));
    });
    mesh.shutdown();
    assert!(cost.allocations <= COUNTER_ALLOCATIONS_CEILING, "{cost:?}");
    assert!(cost.bytes <= COUNTER_BYTES_CEILING, "{cost:?}");
}

#[test]
fn a_cold_counter_activation_stays_within_its_allocation_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (mesh, client) = mesh_hosting("Counter", || Box::new(Counter));
    // Every call goes to an actor never called before: the warm-up grows
    // the store's and the resident set's tables past their first doublings.
    let cost = measure_cold("cold counter", |i| {
        let reply = client
            .call(&ActorRef::new("Counter", format!("c{i}")), "bump", vec![])
            .unwrap();
        assert_eq!(reply, Value::Int(1));
    });
    mesh.shutdown();
    assert!(cost.allocations <= COLD_ALLOCATIONS_CEILING, "{cost:?}");
    assert!(cost.bytes <= COLD_BYTES_CEILING, "{cost:?}");
}

#[test]
fn an_idle_mesh_allocates_nothing_per_sweep() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (mesh, client) = mesh_hosting("Echo", || Box::new(Echo));
    let targets: Vec<ActorRef> = (0..WARM_ACTORS)
        .map(|actor| ActorRef::new("Echo", format!("e{actor}")))
        .collect();
    for i in 0..WARMUP_CALLS / 10 {
        client
            .call(
                &targets[i % WARM_ACTORS],
                "echo",
                vec![Value::Int(i as i64)],
            )
            .unwrap();
    }
    // Two timer ticks trim the warm-up's settled records; from then on the
    // mesh has no work, and its reactors sweep it every idle slice.
    std::thread::sleep(2 * mesh.config().heartbeat_interval + IDLE_SETTLE_MARGIN);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    std::thread::sleep(IDLE_WINDOW);
    let idle = ALLOCATIONS.load(Ordering::SeqCst) - allocations;
    println!("idle: {idle} allocations over {IDLE_WINDOW:?}");
    mesh.shutdown();
    assert!(
        idle <= IDLE_ALLOCATIONS_CEILING,
        "{idle} allocations while idle"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times the optimised call path: run with --release"
)]
fn a_warm_counter_call_costs_its_modelled_latencies_and_little_more() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let profile = DeploymentProfile::ClusterDev;
    let latency = profile.latency_profile();
    // The critical path of one warm call: the client's sidecar hop, the
    // request's append ack and delivery, the server's hop in, the state
    // flush's store ack, its hop out, the response's append ack and
    // delivery, and the client's hop back — nine latencies, 6.95 ms.
    let modelled = 4 * latency.sidecar_hop
        + 2 * latency.queue_append
        + 2 * latency.queue_deliver
        + latency.store_op;
    let (mesh, client) = mesh_of(MeshConfig::for_deployment(profile), "Counter", || {
        Box::new(Counter)
    });
    let targets: Vec<ActorRef> = (0..FIDELITY_ACTORS)
        .map(|actor| ActorRef::new("Counter", format!("f{actor}")))
        .collect();
    // The first call to each actor also places it and loads its state.
    for target in &targets {
        client.call(target, "bump", vec![]).unwrap();
    }
    let mut samples: Vec<Duration> = (0..FIDELITY_CALLS)
        .map(|i| {
            let started = Instant::now();
            client
                .call(&targets[i % FIDELITY_ACTORS], "bump", vec![])
                .unwrap();
            started.elapsed()
        })
        .collect();
    mesh.shutdown();
    samples.sort();
    let median = samples[samples.len() / 2];
    let excess = median.saturating_sub(modelled);
    println!(
        "counter on {profile}: median {:.3} ms over {FIDELITY_CALLS} warm calls, \
         modelled critical path {:.3} ms, excess {:.3} ms",
        median.as_secs_f64() * 1e3,
        modelled.as_secs_f64() * 1e3,
        excess.as_secs_f64() * 1e3
    );
    assert!(
        excess <= FIDELITY_EXCESS_CEILING,
        "a warm call costs {excess:?} more than its modelled latencies"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times the optimised call path: run with --release"
)]
fn a_cold_counter_call_costs_its_modelled_latencies_and_little_more() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let profile = DeploymentProfile::ClusterDev;
    let latency = profile.latency_profile();
    // A first call to a fresh actor pays the warm call's nine latencies and
    // three store round trips more: the client's miss reads the record and
    // the type's hosts in one and claims a host in another, and the
    // activation reads its ownership and its state in one (the warm call
    // loads nothing) — 8.30 ms.
    let modelled = 4 * latency.sidecar_hop
        + 2 * latency.queue_append
        + 2 * latency.queue_deliver
        + 4 * latency.store_op;
    let (mesh, client) = mesh_of(MeshConfig::for_deployment(profile), "Counter", || {
        Box::new(Counter)
    });
    // One warm-up call, so the mesh's own first-use costs are not timed.
    client
        .call(&ActorRef::new("Counter", "warm"), "bump", vec![])
        .unwrap();
    let mut samples: Vec<Duration> = (0..FIDELITY_CALLS)
        .map(|i| {
            let fresh = ActorRef::new("Counter", format!("cold{i}"));
            let started = Instant::now();
            client.call(&fresh, "bump", vec![]).unwrap();
            started.elapsed()
        })
        .collect();
    mesh.shutdown();
    samples.sort();
    let median = samples[samples.len() / 2];
    let excess = median.saturating_sub(modelled);
    println!(
        "cold counter on {profile}: median {:.3} ms over {FIDELITY_CALLS} first calls, \
         modelled critical path {:.3} ms, excess {:.3} ms",
        median.as_secs_f64() * 1e3,
        modelled.as_secs_f64() * 1e3,
        excess.as_secs_f64() * 1e3
    );
    assert!(
        excess <= FIDELITY_EXCESS_CEILING,
        "a first call costs {excess:?} more than its modelled latencies"
    );
}

/// A blocked caller yields for its answer before it parks, so a warm
/// zero-latency call rarely sleeps on its slot: each park, and each wait
/// for a lock held elsewhere, is one voluntary context switch of the
/// calling thread.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times the optimised call path: run with --release"
)]
fn a_warm_echo_call_stays_within_its_hand_off_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cost = measure_echo("echo hand-off");
    let Some(switches) = cost.switches else {
        println!("no /proc/thread-self/status: the hand-off is not counted here");
        return;
    };
    assert!(switches <= ECHO_SWITCHES_CEILING, "{cost:?}");
}

#[test]
fn a_warm_echo_call_stays_within_its_lock_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (mesh, client) = mesh_hosting("Echo", || Box::new(Echo));
    let targets: Vec<ActorRef> = (0..WARM_ACTORS)
        .map(|actor| ActorRef::new("Echo", format!("e{actor}")))
        .collect();
    let payload = "x".repeat(20);
    let locks = measure_locks("echo", |i| echo_call(&client, &targets, &payload, i));
    mesh.shutdown();
    assert!(locks.blocking <= ECHO_BLOCKING_LOCKS_CEILING, "{locks:?}");
    assert!(locks.all <= ECHO_LOCKS_CEILING, "{locks:?}");
}

#[test]
fn a_warm_counter_call_stays_within_its_lock_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (mesh, client) = mesh_hosting("Counter", || Box::new(Counter));
    let targets: Vec<ActorRef> = (0..WARM_ACTORS)
        .map(|actor| ActorRef::new("Counter", format!("k{actor}")))
        .collect();
    let locks = measure_locks("counter", |i| {
        client
            .call(&targets[i % WARM_ACTORS], "bump", vec![])
            .unwrap();
    });
    mesh.shutdown();
    assert!(
        locks.blocking <= COUNTER_BLOCKING_LOCKS_CEILING,
        "{locks:?}"
    );
    assert!(locks.all <= COUNTER_LOCKS_CEILING, "{locks:?}");
}

const FIDELITY_ACTORS: usize = 8;
const FIDELITY_CALLS: usize = 200;
/// About three times the measured excess (0.06–0.09 ms on a 2-core
/// x86-64 Linux VM, release build) and under half of what it was while a
/// wait for a modelled instant paid the timer's slack (0.55 ms: eight
/// waits on the path, each waking 65–75 µs late).
const FIDELITY_EXCESS_CEILING: Duration = Duration::from_micros(250);

const IDLE_SETTLE_MARGIN: Duration = Duration::from_millis(200);
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// An idle reactor sweeps every 2 ms and must allocate nothing doing so;
/// what is left is the broker coordinator's retention pass (four per
/// 200 ms tick). Before the sweep walked shared snapshots, this window
/// counted 1 447.
const IDLE_ALLOCATIONS_CEILING: u64 = 25;

// Ceilings: the measurement plus 25 % (echo 17.8 allocations and 2 527
// bytes per call, counter 22.8 and 3 522; x86-64 Linux, glibc). The first
// measurement was echo 50.7 / 3 813 and counter 55.3 / 4 759, before the
// reactor sweep walked shared snapshots, one-partition rounds skipped the
// round scratch and admission shared the delivered envelope.
const ECHO_ALLOCATIONS_CEILING: f64 = 22.2;
const ECHO_BYTES_CEILING: f64 = 3_159.0;
const COUNTER_ALLOCATIONS_CEILING: f64 = 28.5;
const COUNTER_BYTES_CEILING: f64 = 4_403.0;
// A cold activation, measured when the first state access still read the
// hash through inside the handler: 50.8 allocations and 6 766 bytes per
// first call. Loading it ahead of the handler must cost no more.
const COLD_ALLOCATIONS_CEILING: f64 = 63.5;
const COLD_BYTES_CEILING: f64 = 8_460.0;
// The calling thread's voluntary context switches per warm echo call:
// 0.99 while a blocked caller parked on its slot at once (one futex sleep
// per call), 0.00–0.01 since it yields for its answer first (the same with
// two CPU hogs beside the test; x86-64 Linux, 2 cores). A quarter above
// that is under one switch per thousand calls — noise, not a ceiling — so
// the ceiling is ten times the highest measurement: a caller that parks on
// one call in ten fails it.
const ECHO_SWITCHES_CEILING: f64 = 0.1;

const LOCK_SITES_PRINTED: usize = 12;
// Lock acquisitions per warm call, by every thread. Blocking ones: the
// measurement plus 25 % (echo 38.39, counter 42.39; x86-64 Linux, 2 cores,
// three release runs — 40.44 and 44.40 while each polled batch read a
// locked table of consumed offsets, 44.45 and 48.41 while the membership
// was six locked tables, whose two live-set and two topology reads a call
// paid). All of them: 25 % above the highest of six release runs (echo
// 71.6, counter 77.3), as the lane sweeps' share swings with scheduling.
const ECHO_BLOCKING_LOCKS_CEILING: f64 = 48.0;
const ECHO_LOCKS_CEILING: f64 = 89.5;
const COUNTER_BLOCKING_LOCKS_CEILING: f64 = 53.0;
const COUNTER_LOCKS_CEILING: f64 = 96.7;
