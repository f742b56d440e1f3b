//! The messaging-latency harness of §6.2 (Table 2).
//!
//! Four configurations are measured for each deployment profile:
//!
//! * **Direct HTTP** — a non-resilient request/response exchange between two
//!   processes, emulated by two threads exchanging messages over channels
//!   with the profile's network latency applied in each direction,
//! * **Kafka Only** — two processes exchanging a request and a response
//!   through the reliable queue substrate directly (no KAR runtime),
//! * **KAR Actor** — a KAR actor method invocation through the full runtime,
//! * **KAR Actor (no cache)** — the same with the actor placement cache
//!   disabled, adding a store lookup to every invocation.

use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Client, Mesh, MeshConfig, Outcome};
use kar_queue::{Broker, BrokerConfig};
use kar_types::{ActorRef, ComponentId, DeploymentProfile, KarResult, Value};

use crate::report::median;

/// Configuration of a Table 2 measurement.
#[derive(Debug, Clone, Copy)]
pub struct LatencyConfig {
    /// Round trips per cell (the paper uses 10,000; the default is smaller so
    /// the full table completes in minutes).
    pub iterations: usize,
    /// Payload size in bytes (the paper uses 20 bytes of user data).
    pub payload_bytes: usize,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            iterations: 200,
            payload_bytes: 20,
        }
    }
}

/// One row of Table 2: the median round-trip latency of every configuration
/// for one deployment profile.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// The deployment profile of this row.
    pub profile: DeploymentProfile,
    /// Direct (non-resilient) request/response baseline.
    pub direct_http: Duration,
    /// Request/response through the reliable queue only.
    pub kafka_only: Duration,
    /// KAR actor invocation (placement cache enabled).
    pub kar_actor: Duration,
    /// KAR actor invocation with the placement cache disabled.
    pub kar_actor_no_cache: Duration,
}

/// The Table 2 columns, in the paper's order, as `table2_latency --json`
/// names them.
pub const COLUMNS: [&str; 4] = [
    "direct_http",
    "kafka_only",
    "kar_actor",
    "kar_actor_no_cache",
];

/// How far a measured cell may sit from the paper's before
/// `table2_latency` fails: 25 % either way.
pub const PAPER_BOUND: f64 = 0.25;

impl LatencyRow {
    /// The row's cells in [`COLUMNS`] order.
    pub fn cells(&self) -> [Duration; 4] {
        [
            self.direct_http,
            self.kafka_only,
            self.kar_actor,
            self.kar_actor_no_cache,
        ]
    }
}

/// One cell of Table 2 set against the paper's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCell {
    /// The deployment profile of the cell's row.
    pub profile: DeploymentProfile,
    /// The cell's column, one of [`COLUMNS`].
    pub column: &'static str,
    /// The measured median, in milliseconds.
    pub measured_ms: f64,
    /// The paper's median, in milliseconds.
    pub paper_ms: f64,
}

impl PaperCell {
    /// Every cell of `row`, beside the paper's.
    pub fn of_row(row: &LatencyRow) -> Vec<PaperCell> {
        let reference = paper_reference(row.profile);
        COLUMNS
            .iter()
            .zip(row.cells())
            .zip(reference)
            .map(|((&column, measured), paper_ms)| PaperCell {
                profile: row.profile,
                column,
                measured_ms: measured.as_secs_f64() * 1e3,
                paper_ms,
            })
            .collect()
    }

    /// Measured over paper.
    pub fn ratio(&self) -> f64 {
        self.measured_ms / self.paper_ms
    }

    /// Whether the cell sits within [`PAPER_BOUND`] of the paper.
    pub fn within_bound(&self) -> bool {
        (self.ratio() - 1.0).abs() <= PAPER_BOUND
    }

    /// The cell as one JSON object on one line.
    pub fn to_json(&self, iterations: usize) -> String {
        format!(
            "{{\"profile\": \"{}\", \"column\": \"{}\", \"iterations\": {iterations}, \
             \"measured_ms\": {:.3}, \"paper_ms\": {:.2}, \"ratio\": {:.4}}}",
            self.profile.name(),
            self.column,
            self.measured_ms,
            self.paper_ms,
            self.ratio()
        )
    }
}

/// An echo actor returning its argument, used by the KAR Actor measurements.
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
            other => Err(kar_types::KarError::application(format!(
                "no method {other}"
            ))),
        }
    }
}

fn payload(config: &LatencyConfig) -> Value {
    Value::from("x".repeat(config.payload_bytes))
}

/// Median round-trip latency of a direct (non-resilient) request/response
/// exchange between two nodes.
pub fn measure_direct(profile: DeploymentProfile, config: &LatencyConfig) -> Duration {
    let latency = profile.latency_profile();
    let (request_tx, request_rx) = crossbeam::channel::bounded::<Value>(1);
    let (response_tx, response_rx) = crossbeam::channel::bounded::<Value>(1);
    let one_way = latency.network_one_way;
    let server = std::thread::spawn(move || {
        while let Ok(message) = request_rx.recv() {
            // Server-side network delay for the response leg.
            std::thread::sleep(one_way);
            if response_tx.send(message).is_err() {
                break;
            }
        }
    });
    let mut samples = Vec::with_capacity(config.iterations);
    for _ in 0..config.iterations {
        let started = Instant::now();
        std::thread::sleep(one_way); // request leg
        request_tx.send(payload(config)).expect("server alive");
        let _ = response_rx.recv().expect("server alive");
        samples.push(started.elapsed());
    }
    drop(request_tx);
    let _ = server.join();
    median(&samples)
}

/// Median round-trip latency of a request/response exchange through the
/// reliable queue substrate only (two partitions, one echo thread).
pub fn measure_kafka_only(profile: DeploymentProfile, config: &LatencyConfig) -> Duration {
    let latency = profile.latency_profile();
    let broker: Broker<Value> = Broker::new(BrokerConfig {
        append_latency: latency.queue_append,
        deliver_latency: latency.queue_deliver,
        ..BrokerConfig::default()
    });
    broker.create_topic("ping", 2).expect("fresh topic");
    let client_id = ComponentId::from_raw(1);
    let server_id = ComponentId::from_raw(2);
    let server_broker = broker.clone();
    let server = std::thread::spawn(move || {
        let producer = server_broker.producer(server_id);
        let consumer = server_broker
            .consumer(server_id, "ping", 0)
            .expect("partition 0");
        loop {
            match consumer.poll_wait(16, Duration::from_secs(1)) {
                Ok(records) => {
                    for record in records {
                        if record.payload.as_str() == Some("__stop__") {
                            return;
                        }
                        let _ = producer.send("ping", 1, record.into_payload());
                    }
                }
                Err(_) => return,
            }
        }
    });
    let producer = broker.producer(client_id);
    let consumer = broker.consumer(client_id, "ping", 1).expect("partition 1");
    let mut samples = Vec::with_capacity(config.iterations);
    for _ in 0..config.iterations {
        let started = Instant::now();
        producer.send("ping", 0, payload(config)).expect("send");
        while consumer
            .poll_wait(16, Duration::from_secs(1))
            .expect("poll")
            .is_empty()
        {}
        samples.push(started.elapsed());
    }
    producer
        .send("ping", 0, Value::from("__stop__"))
        .expect("send stop");
    let _ = server.join();
    median(&samples)
}

fn kar_mesh(profile: DeploymentProfile, cache: bool) -> (Mesh, Client, ActorRef) {
    let mut config = MeshConfig::for_deployment(profile);
    if !cache {
        config = config.without_placement_cache();
    }
    let mesh = Mesh::new(config);
    let node = mesh.add_node();
    mesh.add_component(node, "echo-server", |c| c.host("Echo", || Box::new(Echo)));
    let client = mesh.client();
    let actor = ActorRef::new("Echo", "bench");
    (mesh, client, actor)
}

/// Median round-trip latency of a KAR actor invocation.
pub fn measure_kar_actor(
    profile: DeploymentProfile,
    config: &LatencyConfig,
    placement_cache: bool,
) -> Duration {
    let (mesh, client, actor) = kar_mesh(profile, placement_cache);
    // Warm up: instantiate the actor and (optionally) fill the cache.
    client
        .call(&actor, "echo", vec![payload(config)])
        .expect("warmup call");
    let mut samples = Vec::with_capacity(config.iterations);
    for _ in 0..config.iterations {
        let started = Instant::now();
        client
            .call(&actor, "echo", vec![payload(config)])
            .expect("echo call");
        samples.push(started.elapsed());
    }
    mesh.shutdown();
    median(&samples)
}

/// Measures one full Table 2 row.
pub fn measure_row(profile: DeploymentProfile, config: &LatencyConfig) -> LatencyRow {
    LatencyRow {
        profile,
        direct_http: measure_direct(profile, config),
        kafka_only: measure_kafka_only(profile, config),
        kar_actor: measure_kar_actor(profile, config, true),
        kar_actor_no_cache: measure_kar_actor(profile, config, false),
    }
}

/// The numbers reported by the paper for one profile (milliseconds), used by
/// the binaries to print the reference alongside the measurement.
pub fn paper_reference(profile: DeploymentProfile) -> [f64; 4] {
    match profile {
        DeploymentProfile::ClusterDev => [2.60, 4.35, 6.62, 7.12],
        DeploymentProfile::ClusterProd => [2.60, 10.62, 13.41, 14.31],
        DeploymentProfile::Managed => [2.60, 14.56, 15.80, 18.06],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LatencyConfig {
        LatencyConfig {
            iterations: 20,
            payload_bytes: 20,
        }
    }

    #[test]
    fn direct_is_faster_than_kafka_which_is_faster_than_kar() {
        let config = tiny();
        let profile = DeploymentProfile::ClusterDev;
        let direct = measure_direct(profile, &config);
        let kafka = measure_kafka_only(profile, &config);
        let kar = measure_kar_actor(profile, &config, true);
        assert!(direct < kafka, "direct {direct:?} vs kafka {kafka:?}");
        assert!(kafka < kar, "kafka {kafka:?} vs kar {kar:?}");
        // Sanity: the direct baseline is in the low-millisecond range.
        assert!(direct >= Duration::from_millis(2));
        assert!(direct < Duration::from_millis(20));
    }

    #[test]
    fn disabling_the_placement_cache_adds_store_latency() {
        let config = tiny();
        let profile = DeploymentProfile::Managed;
        let cached = measure_kar_actor(profile, &config, true);
        let uncached = measure_kar_actor(profile, &config, false);
        assert!(
            uncached > cached,
            "expected no-cache ({uncached:?}) to be slower than cached ({cached:?})"
        );
    }

    #[test]
    fn a_paper_cell_reads_as_one_json_object() {
        let row = LatencyRow {
            profile: DeploymentProfile::ClusterDev,
            direct_http: Duration::from_micros(2_750),
            kafka_only: Duration::from_micros(4_350),
            kar_actor: Duration::from_micros(8_300),
            kar_actor_no_cache: Duration::from_micros(7_120),
        };
        let cells = PaperCell::of_row(&row);
        assert_eq!(cells.len(), COLUMNS.len());
        assert_eq!(
            cells[0].to_json(200),
            "{\"profile\": \"ClusterDev\", \"column\": \"direct_http\", \"iterations\": 200, \
             \"measured_ms\": 2.750, \"paper_ms\": 2.60, \"ratio\": 1.0577}"
        );
        assert!(cells[1].within_bound() && (cells[1].ratio() - 1.0).abs() < 1e-9);
        // 8.30 / 6.62 is 25.4 % over the paper.
        assert!(!cells[2].within_bound());
    }

    #[test]
    fn paper_reference_rows_are_monotone() {
        for profile in DeploymentProfile::ALL {
            let row = paper_reference(profile);
            assert!(row[0] < row[1] && row[1] < row[2] && row[2] < row[3]);
        }
    }
}
