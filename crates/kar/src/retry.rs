//! The mesh-side half of retry orchestration: the token-bucket retry
//! *budget* and the per-actor-type circuit *breakers*.
//!
//! The policy vocabulary ([`RetryPolicy`](kar_types::RetryPolicy),
//! [`RetryState`](kar_types::RetryState)) lives in `kar-types` and rides
//! inside request records; this module holds the two mesh-level safety
//! valves that sit between a scheduled retry and its execution:
//!
//! * `RetryBudget` — a RetryGuard-style token bucket shared by every
//!   component of a mesh. Each orchestrated retry spends one token when its
//!   backoff deadline fires; when the bucket is empty the retry is *shed* —
//!   re-queued on its own backoff delay, never dropped — so a partial
//!   failure produces a bounded, deterministic retry load on the broker
//!   instead of a melt.
//! * `BreakerRegistry` — per-actor-type circuit breakers (closed → open
//!   on failure-rate threshold → half-open probe). While a type's breaker
//!   is open, the dispatch layer fails invocations of the type fast with
//!   [`KarError::CircuitOpen`] instead of executing them; after the
//!   cooldown one probe invocation is admitted, and its outcome decides
//!   between closing the breaker and re-opening it.
//!
//! Both are owned by the [`Mesh`](crate::Mesh) and shared with every
//! `ComponentCore` as `Arc`s, so breaker state and budget tokens are
//! mesh-global: a type that is failing everywhere opens everywhere at once.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use kar_types::mono_now;

use parking_lot::Mutex;

use kar_types::KarError;

use crate::config::CircuitBreakerConfig;

/// The mesh-wide token bucket bounding how fast orchestrated retries may
/// fire (à la RetryGuard's retry budgets).
pub(crate) struct RetryBudget {
    /// Refill rate in tokens per second.
    rate: f64,
    /// Bucket capacity (burst allowance).
    burst: f64,
    state: Mutex<BudgetState>,
    /// Retries admitted (tokens spent).
    spent: AtomicU64,
    /// Retries shed for lack of a token (each was re-queued, not dropped).
    sheds: AtomicU64,
}

struct BudgetState {
    tokens: f64,
    last_refill: Duration,
}

impl RetryBudget {
    /// A bucket refilling at `rate` tokens/second with `burst` capacity.
    /// Starts full.
    pub(crate) fn new(rate: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        RetryBudget {
            rate: rate.max(0.0),
            burst,
            state: Mutex::new(BudgetState {
                tokens: burst,
                last_refill: mono_now(),
            }),
            spent: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        }
    }

    /// Takes one token if available. A `false` return means the caller must
    /// shed the retry (re-queue it on its backoff timer) and is counted.
    pub(crate) fn try_take(&self) -> bool {
        let mut state = self.state.lock();
        let now = mono_now();
        let elapsed = now.saturating_sub(state.last_refill).as_secs_f64();
        state.tokens = (state.tokens + elapsed * self.rate).min(self.burst);
        state.last_refill = now;
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            drop(state);
            self.spent.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            drop(state);
            self.sheds.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// `(retries admitted, retries shed)` since mesh start.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.spent.load(Ordering::Relaxed),
            self.sheds.load(Ordering::Relaxed),
        )
    }
}

/// One actor type's breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPosition {
    /// Traffic flows; outcomes fill the sliding window.
    Closed,
    /// Failing fast until the cooldown instant passes.
    Open,
    /// Cooldown passed: one probe invocation is (or is about to be) in
    /// flight; its outcome closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerPosition {
    /// Lower-case display form used by `debug_report`.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerPosition::Closed => "closed",
            BreakerPosition::Open => "open",
            BreakerPosition::HalfOpen => "half-open",
        }
    }
}

/// Mutable state of one actor type's breaker.
struct Breaker {
    position: BreakerPosition,
    /// Sliding window of recent invocation outcomes (`true` = success),
    /// filled while closed.
    window: VecDeque<bool>,
    /// While open: the instant the cooldown ends and a probe is admitted.
    open_until: Duration,
    /// While half-open: whether the probe invocation has been admitted and
    /// its outcome is still pending.
    probe_in_flight: bool,
    /// When the in-flight probe was admitted. A probe can die without ever
    /// reporting (its component killed mid-execution never records), so a
    /// probe older than one cooldown is presumed lost and a new one is
    /// admitted in its place.
    probe_started: Duration,
}

/// The mesh-wide set of per-actor-type circuit breakers. Disabled (every
/// call admitted, nothing recorded) when the mesh config carries no
/// [`CircuitBreakerConfig`].
pub(crate) struct BreakerRegistry {
    config: Option<CircuitBreakerConfig>,
    breakers: Mutex<HashMap<String, Breaker>>,
    /// Invocations failed fast because a breaker was open.
    fast_fails: AtomicU64,
    /// Closed → open transitions.
    opened: AtomicU64,
}

impl BreakerRegistry {
    pub(crate) fn new(config: Option<CircuitBreakerConfig>) -> Self {
        BreakerRegistry {
            config,
            breakers: Mutex::new(HashMap::new()),
            fast_fails: AtomicU64::new(0),
            opened: AtomicU64::new(0),
        }
    }

    /// Decides whether an invocation of `actor_type` may execute now.
    /// `Err(CircuitOpen)` fails the invocation fast (retryable: an attached
    /// retry policy re-schedules it past the cooldown).
    pub(crate) fn admit(&self, actor_type: &str) -> Result<(), KarError> {
        let Some(config) = &self.config else {
            return Ok(());
        };
        let mut breakers = self.breakers.lock();
        let Some(breaker) = breakers.get_mut(actor_type) else {
            return Ok(()); // no outcomes recorded yet: trivially closed
        };
        let now = mono_now();
        match breaker.position {
            BreakerPosition::Closed => Ok(()),
            BreakerPosition::Open => {
                if now >= breaker.open_until {
                    // Cooldown over: this caller becomes the half-open probe.
                    breaker.position = BreakerPosition::HalfOpen;
                    breaker.probe_in_flight = true;
                    breaker.probe_started = now;
                    Ok(())
                } else {
                    self.fast_fails.fetch_add(1, Ordering::Relaxed);
                    Err(KarError::CircuitOpen {
                        actor_type: actor_type.to_owned(),
                    })
                }
            }
            BreakerPosition::HalfOpen => {
                let probe_lost =
                    breaker.probe_in_flight && now >= breaker.probe_started + config.cooldown;
                if breaker.probe_in_flight && !probe_lost {
                    self.fast_fails.fetch_add(1, Ordering::Relaxed);
                    Err(KarError::CircuitOpen {
                        actor_type: actor_type.to_owned(),
                    })
                } else {
                    // Fresh probe slot — either none in flight, or the last
                    // probe outlived a whole cooldown without reporting (its
                    // component died mid-execution) and is presumed lost.
                    breaker.probe_in_flight = true;
                    breaker.probe_started = now;
                    Ok(())
                }
            }
        }
    }

    /// Records the outcome of an executed invocation of `actor_type` (fast
    /// fails are *not* recorded — only real executions move the window).
    pub(crate) fn record(&self, actor_type: &str, success: bool) {
        let Some(config) = &self.config else {
            return;
        };
        let mut breakers = self.breakers.lock();
        let breaker = breakers
            .entry(actor_type.to_owned())
            .or_insert_with(|| Breaker {
                position: BreakerPosition::Closed,
                window: VecDeque::with_capacity(config.window),
                open_until: mono_now(),
                probe_in_flight: false,
                probe_started: mono_now(),
            });
        match breaker.position {
            BreakerPosition::Closed => {
                if breaker.window.len() == config.window {
                    breaker.window.pop_front();
                }
                breaker.window.push_back(success);
                if breaker.window.len() >= config.window {
                    let failures = breaker.window.iter().filter(|ok| !**ok).count();
                    let rate = failures as f64 / breaker.window.len() as f64;
                    if rate >= config.failure_threshold {
                        breaker.position = BreakerPosition::Open;
                        breaker.open_until = mono_now() + config.cooldown;
                        breaker.window.clear();
                        self.opened.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            BreakerPosition::HalfOpen => {
                breaker.probe_in_flight = false;
                if success {
                    breaker.position = BreakerPosition::Closed;
                    breaker.window.clear();
                } else {
                    breaker.position = BreakerPosition::Open;
                    breaker.open_until = mono_now() + config.cooldown;
                    self.opened.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Stragglers admitted before the breaker opened: ignore.
            BreakerPosition::Open => {}
        }
    }

    /// The position of `actor_type`'s breaker (trivially closed when it has
    /// no recorded outcomes, or when breakers are disabled).
    pub(crate) fn position(&self, actor_type: &str) -> BreakerPosition {
        self.breakers
            .lock()
            .get(actor_type)
            .map(|b| b.position)
            .unwrap_or(BreakerPosition::Closed)
    }

    /// `(fast fails, closed→open transitions)` since mesh start.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.fast_fails.load(Ordering::Relaxed),
            self.opened.load(Ordering::Relaxed),
        )
    }

    /// Per-type positions for `debug_report`, sorted by type name.
    pub(crate) fn snapshot(&self) -> Vec<(String, BreakerPosition)> {
        let mut entries: Vec<(String, BreakerPosition)> = self
            .breakers
            .lock()
            .iter()
            .map(|(name, breaker)| (name.clone(), breaker.position))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

/// One dead-lettered invocation, decoded from the DLQ topic for
/// [`Mesh::dlq_stats`](crate::Mesh::dlq_stats).
#[derive(Debug, Clone)]
pub struct DlqEntry {
    /// The exhausted request's id (pass to
    /// [`Mesh::dlq_retry`](crate::Mesh::dlq_retry) to re-inject it).
    pub id: kar_types::RequestId,
    /// The component that dead-lettered it (owner of the DLQ partition).
    pub component: kar_types::ComponentId,
    /// Target actor of the exhausted invocation.
    pub target: kar_types::ActorRef,
    /// Invoked method.
    pub method: String,
    /// Attempts made before exhaustion.
    pub attempts: u32,
    /// Display form of the final failure.
    pub last_error: Option<String>,
    /// Epoch milliseconds of the invocation's first dispatch.
    pub started_ms: u64,
    /// Epoch milliseconds at which it was dead-lettered.
    pub dead_lettered_ms: u64,
}

/// Aggregate view of the mesh's dead-letter queue.
#[derive(Debug, Clone, Default)]
pub struct DlqStats {
    /// Every dead-lettered invocation, oldest first per component.
    pub entries: Vec<DlqEntry>,
}

impl DlqStats {
    /// Total dead-lettered invocations.
    pub fn total(&self) -> usize {
        self.entries.len()
    }
}

/// Mesh-wide retry-orchestration counters (see
/// [`Mesh::retry_metrics`](crate::Mesh::retry_metrics)).
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryMetrics {
    /// Retries scheduled (re-appended with a bumped attempt count).
    pub scheduled: u64,
    /// Retries admitted past the budget (tokens spent).
    pub admitted: u64,
    /// Retries shed by the budget and re-queued on their backoff timer.
    pub shed: u64,
    /// Invocations failed fast by an open circuit breaker.
    pub breaker_fast_fails: u64,
    /// Closed → open breaker transitions.
    pub breaker_opened: u64,
    /// Invocations moved to the dead-letter queue.
    pub dead_lettered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn budget_spends_burst_then_sheds_and_refills() {
        let budget = RetryBudget::new(1000.0, 3.0);
        assert!(budget.try_take());
        assert!(budget.try_take());
        assert!(budget.try_take());
        // Zero-rate bucket for determinism on the shed side.
        let empty = RetryBudget::new(0.0, 2.0);
        assert!(empty.try_take());
        assert!(empty.try_take());
        assert!(!empty.try_take(), "burst exhausted, zero refill");
        assert_eq!(empty.stats(), (2, 1));
        // A fast-refill bucket recovers quickly.
        let quick = RetryBudget::new(10_000.0, 1.0);
        assert!(quick.try_take());
        std::thread::sleep(Duration::from_millis(2));
        assert!(quick.try_take(), "refilled within the sleep");
    }

    fn registry(window: usize, cooldown: Duration) -> BreakerRegistry {
        BreakerRegistry::new(Some(CircuitBreakerConfig {
            failure_threshold: 0.5,
            window,
            cooldown,
        }))
    }

    #[test]
    fn breaker_opens_on_failure_rate_and_recovers_through_probe() {
        let registry = registry(4, Duration::from_millis(20));
        assert_eq!(registry.position("A"), BreakerPosition::Closed);
        for _ in 0..2 {
            registry.record("A", true);
            registry.record("A", false);
        }
        assert_eq!(registry.position("A"), BreakerPosition::Open);
        assert_eq!(registry.stats().1, 1, "one open transition");
        let err = registry.admit("A").unwrap_err();
        assert!(matches!(err, KarError::CircuitOpen { .. }));
        assert!(err.is_retryable(), "fast-fail must be retryable");
        assert!(registry.admit("B").is_ok(), "breakers are per actor type");

        std::thread::sleep(Duration::from_millis(25));
        assert!(registry.admit("A").is_ok(), "cooldown over: probe admitted");
        assert_eq!(registry.position("A"), BreakerPosition::HalfOpen);
        assert!(
            registry.admit("A").is_err(),
            "only one probe in flight at a time"
        );
        registry.record("A", false);
        assert_eq!(
            registry.position("A"),
            BreakerPosition::Open,
            "failed probe re-opens"
        );
        std::thread::sleep(Duration::from_millis(25));
        assert!(registry.admit("A").is_ok());
        registry.record("A", true);
        assert_eq!(
            registry.position("A"),
            BreakerPosition::Closed,
            "successful probe closes"
        );
        assert!(registry.admit("A").is_ok());
        assert!(registry.stats().0 >= 2, "fast fails were counted");
    }

    #[test]
    fn lost_probe_is_replaced_after_a_cooldown() {
        let registry = registry(2, Duration::from_millis(10));
        registry.record("A", false);
        registry.record("A", false);
        assert_eq!(registry.position("A"), BreakerPosition::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert!(registry.admit("A").is_ok(), "cooldown over: probe admitted");
        // The probe's component dies without ever recording an outcome;
        // after one more cooldown the breaker must hand the probe slot to a
        // new caller instead of staying wedged half-open forever.
        assert!(registry.admit("A").is_err(), "probe still presumed alive");
        std::thread::sleep(Duration::from_millis(15));
        assert!(registry.admit("A").is_ok(), "lost probe replaced");
        registry.record("A", true);
        assert_eq!(registry.position("A"), BreakerPosition::Closed);
    }

    #[test]
    fn disabled_registry_admits_everything() {
        let registry = BreakerRegistry::new(None);
        for _ in 0..100 {
            registry.record("A", false);
        }
        assert!(registry.admit("A").is_ok());
        assert_eq!(registry.position("A"), BreakerPosition::Closed);
        assert_eq!(registry.stats(), (0, 0));
        assert!(registry.snapshot().is_empty());
    }
}
