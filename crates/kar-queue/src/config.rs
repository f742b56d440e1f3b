//! Broker configuration.

use std::sync::Arc;
use std::time::Duration;

use kar_types::FaultInjector;

/// Configuration of a [`Broker`](crate::Broker).
///
/// The defaults follow the paper's description of the production Kafka
/// deployment: a 10 s session timeout (the grace period Kafka "recommends and
/// defaults to" before deciding a process has failed, §4.3), a short
/// stabilization window during which membership is allowed to settle before a
/// new generation is announced (the *consensus* phase of Figure 7a), and a
/// 10 minute message retention (§4.1). Failure-recovery experiments compress
/// these durations with a `TimeScale` before constructing the config.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// How long a member may go without heartbeating before it is declared
    /// failed (the *detection* phase).
    pub session_timeout: Duration,
    /// How long the coordinator waits after a membership change for the
    /// member list to stabilize before announcing a new generation (the
    /// *consensus* phase). Further membership changes during this window
    /// restart it.
    pub rebalance_stabilization: Duration,
    /// Messages older than this are expired in bulk.
    pub retention: Duration,
    /// Maximum number of live records per partition; the oldest records
    /// beyond this bound are expired in bulk.
    pub max_partition_records: usize,
    /// Latency of a durable (acknowledged) append: an append submitted at
    /// `t` is acknowledged at `max(t, partition busy-until) + append_latency`.
    pub append_latency: Duration,
    /// Latency between the acknowledgement of an append and the record's
    /// visibility to a consumer poll.
    pub deliver_latency: Duration,
    /// How often the background coordinator thread (if started) checks
    /// heartbeats and pending rebalances.
    pub coordinator_interval: Duration,
    /// Optional gray-failure injector consulted by fenced and admin appends
    /// (see [`kar_types::FaultPlan`]). `None` — the default — keeps the
    /// broker infallible at zero hot-path cost beyond one `Option` check.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            session_timeout: Duration::from_secs(10),
            rebalance_stabilization: Duration::from_millis(2400),
            retention: Duration::from_secs(600),
            max_partition_records: 100_000,
            append_latency: Duration::ZERO,
            deliver_latency: Duration::ZERO,
            coordinator_interval: Duration::from_millis(5),
            faults: None,
        }
    }
}

impl BrokerConfig {
    /// A configuration with no added latency and fast failure detection,
    /// convenient for unit tests.
    pub fn fast() -> Self {
        BrokerConfig {
            session_timeout: Duration::from_millis(50),
            rebalance_stabilization: Duration::from_millis(20),
            coordinator_interval: Duration::from_millis(2),
            ..BrokerConfig::default()
        }
    }

    /// Scales every time constant by `factor` (used by the fault-injection
    /// harness to compress paper-scale timings).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        BrokerConfig {
            session_timeout: self.session_timeout.mul_f64(factor),
            rebalance_stabilization: self.rebalance_stabilization.mul_f64(factor),
            retention: self.retention.mul_f64(factor),
            max_partition_records: self.max_partition_records,
            append_latency: self.append_latency,
            deliver_latency: self.deliver_latency,
            coordinator_interval: self
                .coordinator_interval
                .mul_f64(factor)
                .max(Duration::from_millis(1)),
            faults: self.faults.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let c = BrokerConfig::default();
        assert_eq!(c.session_timeout, Duration::from_secs(10));
        assert_eq!(c.retention, Duration::from_secs(600));
        assert!(c.rebalance_stabilization < c.session_timeout);
    }

    #[test]
    fn scaled_compresses_times_but_keeps_sizes() {
        let c = BrokerConfig::default().scaled(0.01);
        assert_eq!(c.session_timeout, Duration::from_millis(100));
        assert_eq!(c.max_partition_records, 100_000);
        assert!(c.coordinator_interval >= Duration::from_millis(1));
    }

    #[test]
    fn fast_config_is_fast() {
        let c = BrokerConfig::fast();
        assert!(c.session_timeout <= Duration::from_millis(100));
        assert!(c.rebalance_stabilization <= c.session_timeout);
    }
}
