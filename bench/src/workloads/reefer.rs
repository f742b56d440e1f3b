//! `reefer_failures`: the paper's §6.1 experiment. The Reefer application
//! runs on two victim nodes (an actors server and a singletons server each)
//! on a clock compressed to 1 %, one thread submits orders without pause,
//! and the driver thread kills a seeded victim node, waits for the recovery,
//! replaces the node and moves the world on (ships, anomalies) before the
//! next kill.
//!
//! The window is bound by a failure *count* derived from the requested
//! seconds, not by the clock: reconciliation time grows with the unexpired
//! log, so the outage distribution depends on how many failures a run
//! injects, and a fixed count is what makes two runs comparable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use kar::{Client, Mesh, MeshConfig, OutageRecord};
use kar_reefer::app::{actors_server, singletons_server};
use kar_reefer::{refs, AnomalySimulator, InvariantChecker, OrderSimulator, ShipSimulator};
use kar_types::{ComponentId, KarResult, NodeId, RequestId, RequestMessage, Value};

use super::{FailureStats, Workload};
use crate::harness::Window;
use crate::rng::SplitMix64;
use crate::trace;

/// Compression of the paper-scale detection and recovery constants.
const TIME_SCALE: f64 = 0.01;
/// Failures injected per requested second of window (25 in the 20 s run,
/// which take about 12 s), and the floor for short runs.
const FAILURES_PER_SECOND: f64 = 1.25;
const MIN_FAILURES: usize = 3;
/// Pause of the order thread between bookings (the order simulator's rate).
const ORDER_THINK_TIME: Duration = Duration::from_millis(2);
/// Load runs this long before each kill so bookings are in flight.
const KILL_DELAY: Duration = Duration::from_millis(20);
const RECOVERY_DEADLINE: Duration = Duration::from_secs(10);
/// Quiet time before the invariant pass, so asynchronous tells drain.
const QUIESCE: Duration = Duration::from_millis(300);
/// Orders whose tracking the invariant pass verifies one by one.
const AUDITED_ORDERS: usize = 200;
const WARMUP_ORDERS: usize = 4;

const PORTS: [&str; 4] = ["Oakland", "Shanghai", "Singapore", "Rotterdam"];
const CONTAINERS_PER_DEPOT: i64 = 5_000;
/// Bookable voyages depart after any run ends and never fill up.
const BOOKABLE_VOYAGES: usize = 6;
const VOYAGE_CAPACITY: i64 = 100_000;
const DEPARTURE_DAY: i64 = 10_000;

fn failures_for(seconds: f64) -> usize {
    ((seconds * FAILURES_PER_SECOND) as usize).max(MIN_FAILURES)
}

pub struct ReeferFailures {
    mesh: Mesh,
    victims: Vec<NodeId>,
    replacements: usize,
    /// Records of the mesh's recovery log already attributed to a failure.
    consumed_recoveries: usize,
    /// The victim schedule: the seed picks which node dies first, then the
    /// kills alternate. Actors live on the node that survived the last
    /// kill, so alternating always kills the node doing the work; a coin
    /// per kill would mix such kills with kills of an idle replica in a
    /// seed-dependent ratio, and two seeds would measure different things.
    next_victim: usize,
    voyages: Vec<String>,
    ships: ShipSimulator,
    anomalies: AnomalySimulator,
    /// Seeds each window's order simulator.
    rng: SplitMix64,
    /// Orders confirmed to a client since set-up, and their containers.
    confirmed: Vec<String>,
    containers: Vec<String>,
    stats: FailureStats,
}

/// Depots, two voyages that sail within the first days (so departures and
/// anomalies carry real cargo), and the voyages the order threads book on.
fn bootstrap_world(client: &Client) -> KarResult<Vec<String>> {
    for port in PORTS {
        client.call(
            &refs::depot(port),
            "create",
            vec![Value::from(CONTAINERS_PER_DEPOT)],
        )?;
    }
    let create = |id: &str, leg: usize, depart: i64, capacity: i64| {
        client.call(
            &refs::voyage_manager(),
            "create_voyage",
            vec![
                Value::from(id),
                Value::from(PORTS[leg % PORTS.len()]),
                Value::from(PORTS[(leg + 1) % PORTS.len()]),
                Value::from(depart),
                Value::from(2i64),
                Value::from(capacity),
            ],
        )
    };
    for early in 0..2 {
        let id = format!("EARLY-{early}");
        create(&id, early, 1, 200)?;
        client.call(
            &refs::order_manager(),
            "book",
            vec![
                Value::from(format!("early-{early}")),
                Value::from(id),
                Value::from("reefer goods"),
                Value::from(2i64),
            ],
        )?;
    }
    (0..BOOKABLE_VOYAGES)
        .map(|voyage| {
            let id = format!("V{voyage:03}");
            create(&id, voyage, DEPARTURE_DAY, VOYAGE_CAPACITY).map(|_| id)
        })
        .collect()
}

fn add_victim_node(mesh: &Mesh, label: &str) -> NodeId {
    let node = mesh.add_node();
    mesh.add_component(node, &format!("actors-{label}"), actors_server);
    mesh.add_component(node, &format!("singletons-{label}"), singletons_server);
    node
}

pub fn setup(seed: u64) -> ReeferFailures {
    let mesh = Mesh::new(MeshConfig::for_fault_experiments(TIME_SCALE));
    let victims = (0..2)
        .map(|n| add_victim_node(&mesh, &n.to_string()))
        .collect();
    let voyages = bootstrap_world(&mesh.client()).expect("bootstrapping Reefer failed");
    let mut rng = SplitMix64::new(seed, 0);
    let mut workload = ReeferFailures {
        ships: ShipSimulator::new(mesh.client()),
        anomalies: AnomalySimulator::new(mesh.client(), rng.next_u64()),
        mesh,
        victims,
        replacements: 0,
        consumed_recoveries: 0,
        next_victim: rng.below(2),
        voyages,
        rng,
        confirmed: Vec::new(),
        containers: Vec::new(),
        stats: FailureStats::default(),
    };
    // Warm-up: place the managers, put a few orders through, move a day.
    let mut orders = workload.order_simulator();
    for _ in 0..WARMUP_ORDERS {
        orders.submit_one().expect("warm-up order failed");
    }
    workload.keep(&orders);
    workload
        .ships
        .advance_day()
        .expect("warm-up day failed to advance");
    // One failure cycle before any is measured: every measured kill then
    // hits a mesh that has already recovered once and runs on a
    // replacement node, like all the kills after it.
    workload
        .one_failure()
        .expect("warm-up failure did not recover");
    workload.stats = FailureStats::default();
    workload
}

/// One booking of the order thread, on the wall clock.
struct Booking {
    start: Instant,
    end: Instant,
    ok: bool,
}

impl ReeferFailures {
    fn order_simulator(&mut self) -> OrderSimulator {
        OrderSimulator::new(
            self.mesh.client(),
            self.voyages.clone(),
            self.rng.next_u64(),
        )
    }

    fn keep(&mut self, orders: &OrderSimulator) {
        self.confirmed.extend_from_slice(orders.confirmed_orders());
        self.containers.extend_from_slice(orders.containers());
    }

    /// Waits until every component in `victims` has been removed by a logged
    /// recovery, and returns the records that did it. Usually that is one
    /// record; but the two components of a node heartbeat on their own
    /// phases, so on a slow host their detections can fall into two
    /// successive rebalances — counting records instead of victims would
    /// then leave one over that satisfies the *next* failure's wait early.
    fn await_recovery(&mut self, victims: &[ComponentId]) -> Result<Vec<OutageRecord>, String> {
        let deadline = Instant::now() + RECOVERY_DEADLINE;
        loop {
            let log = self.mesh.recovery_log();
            let fresh = &log[self.consumed_recoveries..];
            let recovered = |victim| {
                fresh
                    .iter()
                    .any(|record| record.failed_components.contains(victim))
            };
            if victims.iter().all(recovered) {
                let records = fresh.to_vec();
                self.consumed_recoveries = log.len();
                return Ok(records);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!(
                    "the recovery of {victims:?} did not complete within {RECOVERY_DEADLINE:?}"
                ));
            }
            self.mesh.wait_for_recoveries(log.len() + 1, left);
        }
    }

    /// Kills the next victim, waits for the recovery, replaces the node and
    /// moves the world on. Returns the wall-clock outage interval.
    fn one_failure(&mut self) -> Result<(Instant, Instant), String> {
        std::thread::sleep(KILL_DELAY);
        let slot = self.next_victim;
        self.next_victim = (slot + 1) % self.victims.len();
        let victims = self.mesh.components_on(self.victims[slot]);
        let killed = Instant::now();
        self.mesh.kill_node(self.victims[slot]);
        let records = self.await_recovery(&victims)?;
        let resumed = Instant::now();
        self.replacements += 1;
        self.victims[slot] = add_victim_node(&self.mesh, &format!("r{}", self.replacements));

        let day_started = Instant::now();
        let day = self.ships.advance_day();
        self.stats
            .advance_day_ms
            .push(day_started.elapsed().as_secs_f64() * 1e3);
        day.map_err(|error| format!("advance_day failed: {error}"))?;
        self.anomalies
            .inject_random(&self.containers)
            .map_err(|error| format!("anomaly injection failed: {error}"))?;

        // The outage runs from the kill to the last record's resumption;
        // phases that a split recovery went through twice add up.
        let paper = |wall: Duration| wall.as_secs_f64() / TIME_SCALE;
        let killed_at = records.iter().filter_map(|r| r.killed_at).min();
        let since_kill = |at: Option<Duration>| match (killed_at, at) {
            (Some(killed_at), Some(at)) => paper(at.saturating_sub(killed_at)),
            _ => 0.0,
        };
        self.stats
            .outages_s
            .push(since_kill(records.iter().map(|r| r.reconciled_at).max()));
        self.stats
            .detections_s
            .push(since_kill(records.iter().map(|r| r.detected_at).min()));
        self.stats
            .consensus_s
            .push(paper(records.iter().map(OutageRecord::consensus).sum()));
        self.stats.reconciliations_s.push(paper(
            records.iter().map(OutageRecord::reconciliation).sum(),
        ));
        self.stats
            .rehomed_requests
            .push(records.iter().map(|r| r.rehomed_requests).sum::<usize>() as f64);
        Ok((killed, resumed))
    }

    fn run_failures(&mut self, failures: usize) -> Window {
        let mut orders = self.order_simulator();
        let stop = AtomicBool::new(false);
        let mut window = Window::default();
        let started = Instant::now();
        let (bookings, outages) = std::thread::scope(|scope| {
            let orders = &mut orders;
            let stop = &stop;
            let load = scope.spawn(move || {
                let mut bookings = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let op = trace::next_op();
                    let start = Instant::now();
                    let ok = orders.submit_one().is_ok();
                    let end = Instant::now();
                    if ok {
                        trace::record_op(op, start, end);
                    }
                    bookings.push(Booking { start, end, ok });
                    std::thread::sleep(ORDER_THINK_TIME);
                }
                bookings
            });
            let mut outages = Vec::new();
            for _ in 0..failures {
                match self.one_failure() {
                    Ok(outage) => outages.push(outage),
                    Err(message) => {
                        window.attempted += 1;
                        window.fail(message);
                        break;
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
            (load.join().expect("order thread panicked"), outages)
        });
        window.elapsed = started.elapsed();
        self.keep(&orders);

        let paper = |wall: Duration| wall.as_secs_f64() / TIME_SCALE;
        for (killed, resumed) in outages {
            let straddle = bookings
                .iter()
                .filter(|b| b.ok && b.start <= resumed && b.end >= killed)
                .map(|b| b.end - b.start)
                .max();
            if let Some(longest) = straddle {
                self.stats.straddles_s.push(paper(longest));
            }
        }
        for booking in bookings {
            window.attempted += 1;
            if booking.ok {
                window
                    .latencies_ns
                    .push((booking.end - booking.start).as_nanos() as u64);
            } else {
                window.fail("a booking was rejected or lost".to_owned());
            }
        }
        window
    }
}

impl Workload for ReeferFailures {
    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn run(&mut self, seconds: f64) -> Window {
        self.run_failures(failures_for(seconds))
    }

    /// Bookings with no failure in flight: the unloaded order round trip.
    fn run_one_caller(&mut self, seconds: f64) -> Window {
        let mut orders = self.order_simulator();
        let mut window = Window::default();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            window.attempted += 1;
            match orders.submit_one() {
                Ok(latency) => window.latencies_ns.push(latency.as_nanos() as u64),
                Err(error) => window.fail(format!("unloaded booking failed: {error}")),
            }
        }
        window.elapsed = started.elapsed();
        self.keep(&orders);
        window
    }

    fn failure_stats(&self) -> Option<&FailureStats> {
        Some(&self.stats)
    }

    fn audit(&mut self) -> Vec<String> {
        std::thread::sleep(QUIESCE);
        let mut checker = InvariantChecker::new(self.mesh.client(), &PORTS, CONTAINERS_PER_DEPOT);
        let audited = &self.confirmed[..self.confirmed.len().min(AUDITED_ORDERS)];
        match checker.check(audited) {
            Ok(report) => report.violations,
            Err(error) => vec![format!("invariant pass failed: {error}")],
        }
    }

    fn sample_request(&self) -> RequestMessage {
        RequestMessage::root(
            RequestId::from_raw(1),
            refs::order_manager(),
            "book",
            vec![
                Value::from("sim-O000001"),
                Value::from("V000"),
                Value::from("reefer goods"),
                Value::from(2i64),
            ],
        )
    }
}
