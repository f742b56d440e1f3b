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
//! * [`sim`] — the deterministic-simulation explorer's scenarios (the
//!   `sim_explore` binary sweeps them against the `kar-semantics` history
//!   oracle).
//!
//! Each table/figure has a dedicated binary (see `bin/`) printing the same
//! rows the paper reports, plus the paper's numbers for comparison. The
//! repo's performance benchmark is the separate frozen package under
//! `bench/`, not this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod latency;
pub mod report;
pub mod sim;

pub use fault::{FailureSample, FaultConfig, FaultReport};
pub use latency::{LatencyConfig, LatencyRow};
pub use report::Summary;
pub use sim::{run_scenario, SimOutcome, SCENARIOS};
