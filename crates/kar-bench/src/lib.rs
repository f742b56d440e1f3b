//! Benchmark harnesses regenerating the paper's evaluation (§6).
//!
//! * [`fault`] — the fault-injection harness behind Table 1, Figure 7a,
//!   Figure 7b, the paired-failure scenario and the total-failure scenario
//!   (§6.1). It deploys the Reefer application on a time-compressed mesh,
//!   hard-stops victim nodes, measures the detection / consensus /
//!   reconciliation phases of every outage and the maximum order latency
//!   around each failure, and checks the application invariants.
//! * [`latency`] — the messaging-latency harness behind Table 2 (§6.2):
//!   Direct HTTP baseline, Kafka-only baseline, KAR actor invocation with and
//!   without the placement cache, across the ClusterDev / ClusterProd /
//!   Managed deployment profiles.
//! * [`report`] — summary statistics (average, standard deviation, median,
//!   min, max) and table formatting shared by the binaries.
//! * [`throughput`] — the multi-actor messaging-throughput harness for the
//!   sharded parallel dispatcher: throughput and p50/p99 latency as a
//!   function of `dispatch_workers` (the `bench_messaging` binary emits
//!   `BENCH_messaging.json` from it).
//! * [`partitions`] — the partition-scaling harness: call throughput of one
//!   component as its home-partition count grows from 1 to 8 under a
//!   durable-ack-bound workload (the `bench_partitions` binary emits
//!   `BENCH_partitions.json`, and its `--smoke` mode runs in CI).
//! * [`topology`] — the topology-scaling harness for the event-driven
//!   invocation core: call throughput and resident reactor-thread count as
//!   the mesh grows from a 1× to a 100× topology under a fixed reactor pool
//!   (the `bench_topology` binary emits `BENCH_topology.json`, and its
//!   `--smoke` mode is the CI regression gate for the fixed-pool invariant).
//! * [`delivery`] — the delivery-plane harness: end-to-end call
//!   throughput/latency percentiles with per-destination response batching
//!   off vs on, and consumer wakeup latency under the old rotating park vs
//!   the shared wait group (the `bench_delivery` binary emits
//!   `BENCH_delivery.json`, and its `--smoke` mode runs in CI).
//! * [`retry`] — the retry-orchestration harness: healthy-path goodput next
//!   to a ~30%-failing neighbor, naive immediate re-calls vs exponential
//!   backoff under the mesh retry budget (the `bench_retry` binary emits
//!   `BENCH_retry.json`, and its `--smoke` mode is the CI gate that the
//!   retry lane never starves healthy traffic).
//! * [`grayfault`] — the gray-failure harness: goodput of a stateful
//!   workload under a seeded ~1% fault plan (transient errors, dropped
//!   acks, a store brownout) with an exponential-backoff policy vs naive
//!   immediate re-calls vs the fault-free baseline (the `bench_grayfault`
//!   binary emits `BENCH_grayfault.json`, and its `--smoke` mode is the CI
//!   gate that the hardened mesh holds goodput under gray failures).
//! * [`passivation`] — the resident-set harness: hot-head goodput over a
//!   Zipf-distributed actor population far larger than memory should hold
//!   (≥ 1 M distinct keys in the full run), with the resident set unbounded
//!   vs bounded by the passivation watermarks (the `bench_passivation`
//!   binary emits `BENCH_passivation.json`, and its `--smoke` mode is the
//!   CI gate that bounding the resident set never starves the hot head).
//!
//! Each table/figure has a dedicated binary (see `bin/`) and a Criterion
//! bench (see `benches/`); the binaries print the same rows the paper
//! reports, plus the paper's numbers for comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod fault;
pub mod grayfault;
pub mod latency;
pub mod partitions;
pub mod passivation;
pub mod report;
pub mod retry;
pub mod sim;
pub mod throughput;
pub mod topology;

pub use delivery::{DeliveryConfig, DeliveryReport, WakeupConfig, WakeupReport};
pub use fault::{FailureSample, FaultConfig, FaultReport};
pub use grayfault::{GrayFaultConfig, GrayFaultReport};
pub use latency::{LatencyConfig, LatencyRow};
pub use partitions::{PartitionReport, PartitionSweepConfig};
pub use passivation::{PassivationBenchConfig, PassivationBenchReport};
pub use report::Summary;
pub use retry::{RetryBenchConfig, RetryBenchReport};
pub use sim::{run_scenario, SimOutcome, SCENARIOS};
pub use throughput::{ThroughputConfig, ThroughputReport};
pub use topology::{TopologyReport, TopologyScale, TopologyScaleConfig};
