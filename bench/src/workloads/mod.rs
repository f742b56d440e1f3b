//! The five workloads. Each builds a mesh on the product defaults (plus the
//! latency profile and capacity constants its description states — never an
//! ablation toggle), warms it with a fixed amount of work, and then serves
//! measured windows.

mod closed;
mod reefer;

use kar::Mesh;
use kar_types::RequestMessage;

use crate::harness::Window;

/// One workload: its name is what `--workload` takes and what every report
/// row cites; `why` is the reason it exists.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "echo_inmem",
        why: "zero injected latency, 64 warm stateless actors: the runtime's own CPU path is all the work",
    },
    Spec {
        name: "counter_ack",
        why: "ClusterDev ack and store latency, 64 warm stateful actors: round-trip-bound, the CPU path does nothing",
    },
    Spec {
        name: "actor_churn",
        why: "Zipf over 200k keys against 1024/2048 resident watermarks: activation, state load, flush and passivation",
    },
    Spec {
        name: "fanout_ack",
        why: "depth-3 tell tree over 4 servers under ack latency: the only concurrent server-side senders (batching, shards)",
    },
    Spec {
        name: "reefer_failures",
        why: "Reefer under seeded node kills with replacement: recovery, retry re-homing, call_then chains (paper 6.1)",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|spec| spec.name == name)
}

/// What the failure workload measures beyond the common window.
#[derive(Default, Clone)]
pub struct FailureStats {
    /// Kill → resume of every injected failure, paper-equivalent seconds.
    pub outages_s: Vec<f64>,
    /// Per failure, the longest order latency among the orders in flight
    /// during its outage (Fig. 7b), paper-equivalent seconds.
    pub straddles_s: Vec<f64>,
    pub detections_s: Vec<f64>,
    pub consensus_s: Vec<f64>,
    pub reconciliations_s: Vec<f64>,
    pub rehomed_requests: Vec<f64>,
    /// Wall-clock cost of each `ShipSimulator::advance_day`, milliseconds.
    pub advance_day_ms: Vec<f64>,
}

/// A set-up, warmed workload.
pub trait Workload {
    fn mesh(&self) -> &Mesh;

    /// One measured window of about `seconds` with every caller running.
    fn run(&mut self, seconds: f64) -> Window;

    /// The same operations from a single caller: the unloaded round trip.
    fn run_one_caller(&mut self, seconds: f64) -> Window;

    /// Failure measurements of the windows run so far (failure workload
    /// only).
    fn failure_stats(&self) -> Option<&FailureStats> {
        None
    }

    /// The end-of-run audit over everything acknowledged since set-up;
    /// returns one message per violation.
    fn audit(&mut self) -> Vec<String>;

    /// A request shaped like the ones this workload sends, for the
    /// `kar-types` probes.
    fn sample_request(&self) -> RequestMessage;
}

/// Builds and warms workload `name` from `seed`.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "echo_inmem" => Box::new(closed::echo_inmem(seed)),
        "counter_ack" => Box::new(closed::counter_ack(seed)),
        "actor_churn" => Box::new(closed::actor_churn(seed)),
        "fanout_ack" => Box::new(closed::fanout_ack(seed)),
        "reefer_failures" => Box::new(reefer::setup(seed)),
        _ => return None,
    })
}
