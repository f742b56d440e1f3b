//! Per-layer measurements taken from outside the runtime: deltas of the
//! mesh's public counters over a window, and timing probes against a
//! standalone store and broker built from the workload's own configuration.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use kar::{Mesh, RetryMetrics};
use kar_queue::Broker;
use kar_store::{Store, StoreStats};
use kar_types::{ComponentId, Envelope, RequestMessage, Value};

use crate::stats::median;

/// The topic the mesh appends every request and response to.
const MESH_TOPIC: &str = "kar";

/// A reading of every public counter of a mesh, summed over its components
/// (dead ones keep answering, so a sum never goes backwards).
#[derive(Default)]
pub struct Counters {
    pub placement_hits: u64,
    pub placement_misses: u64,
    pub placement_invalidations: u64,
    pub steals: u64,
    pub shard_loads: HashMap<ComponentId, Vec<u64>>,
    pub requests_batched: u64,
    pub request_flushes: u64,
    pub responses_batched: u64,
    pub response_flushes: u64,
    pub continuation_parks: u64,
    pub state_cache_entries: u64,
    pub state_cache_evictions: u64,
    pub passivations: u64,
    pub rehydrations: u64,
    pub admission_deferrals: u64,
    pub retry: RetryMetrics,
    pub store: StoreStats,
    pub store_keys: u64,
    pub queue_appends: u64,
}

pub fn read_counters(mesh: &Mesh) -> Counters {
    let mut c = Counters::default();
    for component in mesh.all_components() {
        if let Some(placement) = mesh.placement_counters(component) {
            // A slot hit skips the lookup altogether; to a caller it is a
            // hit like any other.
            c.placement_hits += placement.hits + placement.slot_hits;
            c.placement_misses += placement.misses;
            c.placement_invalidations += placement.invalidations;
        }
        c.steals += mesh.steal_count(component).unwrap_or(0);
        if let Some(loads) = mesh.shard_loads(component) {
            c.shard_loads.insert(component, loads);
        }
        let (batched, flushes) = mesh.request_batch_stats(component).unwrap_or((0, 0));
        c.requests_batched += batched;
        c.request_flushes += flushes;
        let (batched, flushes) = mesh.response_batch_stats(component).unwrap_or((0, 0));
        c.responses_batched += batched;
        c.response_flushes += flushes;
        c.continuation_parks += mesh.continuation_parks(component).unwrap_or(0);
        c.state_cache_entries += mesh.cached_state_count(component).unwrap_or(0) as u64;
        c.state_cache_evictions += mesh.state_cache_evictions(component).unwrap_or(0);
        let (passivations, rehydrations, deferrals) =
            mesh.passivation_stats(component).unwrap_or((0, 0, 0));
        c.passivations += passivations;
        c.rehydrations += rehydrations;
        c.admission_deferrals += deferrals;
    }
    c.retry = mesh.retry_metrics();
    let store = mesh.store();
    c.store = store.stats();
    c.store_keys = store.len() as u64;
    let broker = mesh.broker();
    c.queue_appends = (0..broker.partition_count(MESH_TOPIC))
        .map(|partition| broker.end_offset(MESH_TOPIC, partition))
        .sum();
    c
}

/// Largest over components of (busiest shard ÷ mean shard) of the requests
/// admitted between two readings; 0.0 when nothing was admitted.
pub fn shard_imbalance(before: &Counters, after: &Counters) -> f64 {
    after
        .shard_loads
        .iter()
        .filter_map(|(component, loads)| {
            let earlier = before.shard_loads.get(component);
            let admitted: Vec<u64> = loads
                .iter()
                .enumerate()
                .map(|(shard, load)| {
                    load - earlier.and_then(|e| e.get(shard)).copied().unwrap_or(0)
                })
                .collect();
            let total: u64 = admitted.iter().sum();
            let busiest = admitted.iter().copied().max()?;
            (total > 0).then(|| busiest as f64 * admitted.len() as f64 / total as f64)
        })
        .fold(0.0, f64::max)
}

/// Runs `body` repeatedly for about `budget` (at least `min_runs` times)
/// and returns the median duration of one run in microseconds.
fn median_us(budget: Duration, min_runs: usize, mut body: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_runs || started.elapsed() < budget {
        let t = Instant::now();
        body();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

const PROBE_MIN_RUNS: usize = 20;
const PROBE_COMPONENT: ComponentId = ComponentId::from_raw(1);
const PROBE_PEER: ComponentId = ComponentId::from_raw(2);
const PROBE_TOPIC: &str = "probe";

/// `kar-store` probes on a fresh store with the workload's store
/// configuration (so the injected per-operation latency is the workload's).
pub fn probe_store(mesh: &Mesh, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let store = Store::with_config(mesh.config().store_config());
    let conn = store.connect(PROBE_COMPONENT);
    let slice = budget / 4;
    conn.set("probe", Value::Int(0)).expect("probe store set");
    out.push((
        "store.get_us",
        median_us(slice, PROBE_MIN_RUNS, || {
            black_box(conn.get("probe").expect("probe store get"));
        }),
    ));
    out.push((
        "store.set_us",
        median_us(slice, PROBE_MIN_RUNS, || {
            black_box(conn.set("probe", Value::Int(1)).expect("probe store set"));
        }),
    ));
    let mut version = 0i64;
    conn.set("cas", Value::Int(version))
        .expect("probe store set");
    out.push((
        "store.cas_us",
        median_us(slice, PROBE_MIN_RUNS, || {
            conn.compare_and_swap("cas", Some(&Value::Int(version)), Value::Int(version + 1))
                .expect("probe store cas")
                .expect("nobody else writes the probe key");
            version += 1;
        }),
    ));
    out.push((
        "store.pipeline8_flush_us",
        median_us(slice, PROBE_MIN_RUNS, || {
            let mut pipeline = conn.pipeline();
            for field in ["a", "b", "c", "d", "e", "f", "g", "h"] {
                pipeline.hset("hash", field, Value::Int(1));
            }
            black_box(pipeline.flush().expect("probe pipeline flush"));
        }),
    ));
}

/// `kar-queue` probes on a fresh broker with the workload's broker
/// configuration, appending envelopes shaped like the workload's requests.
pub fn probe_queue(
    mesh: &Mesh,
    request: &RequestMessage,
    budget: Duration,
    out: &mut Vec<(&'static str, f64)>,
) {
    let broker: Broker<Envelope> = Broker::new(mesh.config().broker_config());
    // Partition 0: send/poll probes. 1 and 2: the two ping-pong directions.
    broker
        .create_topic(PROBE_TOPIC, 3)
        .expect("fresh probe topic");
    let envelope = Envelope::Request(request.clone());
    let producer = broker.producer(PROBE_COMPONENT);
    let consumer = broker
        .consumer(PROBE_COMPONENT, PROBE_TOPIC, 0)
        .expect("probe partition 0");
    let slice = budget / 5;

    out.push((
        "queue.send_us",
        median_us(slice, PROBE_MIN_RUNS, || {
            producer
                .send(PROBE_TOPIC, 0, envelope.clone())
                .expect("probe send");
        }),
    ));
    out.push((
        "queue.send_batch16_us_per_record",
        median_us(slice, PROBE_MIN_RUNS, || {
            producer
                .send_batch(PROBE_TOPIC, 0, vec![envelope.clone(); 16])
                .expect("probe batch send");
        }) / 16.0,
    ));
    // The sends above left a backlog: every poll finds a record waiting.
    let backlog = broker.end_offset(PROBE_TOPIC, 0) as usize;
    let mut polled = 0;
    out.push((
        "queue.poll_us",
        median_us(Duration::ZERO, backlog.min(2_000), || {
            polled += black_box(consumer.poll(1).expect("probe poll")).len();
        }),
    ));
    assert!(polled > 0, "the poll probe never saw a record");
    broker.truncate_partition(PROBE_TOPIC, 0);

    // One-way delivery: `send` entry to a consumer parked in `poll_wait`
    // holding the record; and the round trip through an echoing peer.
    let peer_broker = broker.clone();
    let (woken_at, wakes) = channel();
    let peer = std::thread::spawn(move || {
        let producer = peer_broker.producer(PROBE_PEER);
        let consumer = peer_broker
            .consumer(PROBE_PEER, PROBE_TOPIC, 1)
            .expect("probe partition 1");
        loop {
            let records = match consumer.poll_wait(16, Duration::from_millis(200)) {
                Ok(records) => records,
                Err(_) => return,
            };
            let now = Instant::now();
            for record in records {
                let request = record.payload.as_request().expect("probes send requests");
                match request.method.as_str() {
                    "stop" => return,
                    "wake" => woken_at.send(now).expect("prober waits for the wake"),
                    _ => {
                        producer
                            .send(PROBE_TOPIC, 2, record.into_payload())
                            .expect("probe echo");
                    }
                }
            }
        }
    });
    let with_method = |method: &str| {
        let mut message = request.clone();
        message.method = method.to_owned();
        Envelope::Request(message)
    };
    let wake = with_method("wake");
    let started = Instant::now();
    let mut wake_us = Vec::new();
    while wake_us.len() < PROBE_MIN_RUNS || started.elapsed() < slice {
        let sent = Instant::now();
        producer
            .send(PROBE_TOPIC, 1, wake.clone())
            .expect("probe wake send");
        let woken = wakes.recv().expect("peer reports every wake");
        wake_us.push(woken.saturating_duration_since(sent).as_secs_f64() * 1e6);
    }
    out.push(("queue.wake_us", median(&wake_us)));

    let replies = broker
        .consumer(PROBE_COMPONENT, PROBE_TOPIC, 2)
        .expect("probe partition 2");
    let ping = with_method("ping");
    out.push((
        "queue.pingpong_rtt_us",
        median_us(slice, PROBE_MIN_RUNS, || {
            producer
                .send(PROBE_TOPIC, 1, ping.clone())
                .expect("probe ping");
            while replies
                .poll_wait(1, Duration::from_millis(200))
                .expect("probe pong")
                .is_empty()
            {}
        }),
    ));
    producer
        .send(PROBE_TOPIC, 1, with_method("stop"))
        .expect("probe stop");
    peer.join().expect("probe peer panicked");
    broker.shutdown();
}

/// `kar-types` probes: the size of a request envelope and the cost of
/// cloning one (every append and re-delivery clones or shares it).
pub fn probe_types(request: &RequestMessage, out: &mut Vec<(&'static str, f64)>) {
    let envelope = Envelope::Request(request.clone());
    out.push(("types.request_bytes", envelope.approximate_size() as f64));
    const CLONES: u32 = 20_000;
    let started = Instant::now();
    for _ in 0..CLONES {
        black_box(black_box(&envelope).clone());
    }
    out.push((
        "types.envelope_clone_ns",
        started.elapsed().as_secs_f64() * 1e9 / f64::from(CLONES),
    ));
}

/// Table 2's "Direct" baseline: a request/response exchange between two
/// threads over channels, paying the profile's one-way network latency in
/// each direction and nothing else.
pub fn probe_direct(mesh: &Mesh, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let one_way = mesh.config().latency.network_one_way;
    let (request_tx, request_rx) = channel::<u64>();
    let (reply_tx, reply_rx) = channel::<u64>();
    let server = std::thread::spawn(move || {
        while let Ok(message) = request_rx.recv() {
            std::thread::sleep(one_way);
            if reply_tx.send(message).is_err() {
                return;
            }
        }
    });
    out.push((
        "baseline.direct_rtt_us",
        median_us(budget, PROBE_MIN_RUNS, || {
            std::thread::sleep(one_way);
            request_tx.send(1).expect("direct server alive");
            black_box(reply_rx.recv().expect("direct server alive"));
        }),
    ));
    drop(request_tx);
    server.join().expect("direct server panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_imbalance_is_busiest_over_mean_of_the_delta() {
        let component = ComponentId::from_raw(7);
        let reading = |loads: Vec<u64>| Counters {
            shard_loads: HashMap::from([(component, loads)]),
            ..Counters::default()
        };
        let before = reading(vec![10, 10, 10, 10]);
        let after = reading(vec![20, 10, 10, 10]);
        // All 10 admissions of the window landed on one of four shards.
        assert_eq!(shard_imbalance(&before, &after), 4.0);
        let even = reading(vec![15, 15, 15, 15]);
        assert_eq!(shard_imbalance(&before, &even), 1.0);
        assert_eq!(shard_imbalance(&before, &before), 0.0);
    }

    #[test]
    fn probes_report_every_metric_once() {
        let mesh = Mesh::new(kar::MeshConfig::default());
        let request = RequestMessage::root(
            kar_types::RequestId::from_raw(1),
            kar_types::ActorRef::new("Echo", "e0"),
            "echo",
            vec![Value::from("x".repeat(20))],
        );
        let mut out = Vec::new();
        let budget = Duration::from_millis(20);
        probe_store(&mesh, budget, &mut out);
        probe_queue(&mesh, &request, budget, &mut out);
        probe_types(&request, &mut out);
        probe_direct(&mesh, budget, &mut out);
        mesh.shutdown();
        let mut names: Vec<_> = out.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), 12);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        assert!(out.iter().all(|(_, value)| *value > 0.0), "{out:?}");
    }
}
