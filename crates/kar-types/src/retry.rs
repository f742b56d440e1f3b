//! Retry orchestration as a *policy* surface: bounded attempts, shaped
//! backoff, and persisted schedule state.
//!
//! The paper's runtime retries infallibly and invisibly — the queue copy of
//! an unanswered request drives an unbounded, immediate retry. That is the
//! right *mechanism* for crash failures, but production meshes also need a
//! *policy* layer on top of it (RetryGuard's retry-storm analysis): bound
//! the attempts, space them out, classify which errors are worth retrying,
//! and send terminally-failing invocations somewhere an operator can see
//! them instead of hammering a failing dependency forever.
//!
//! This module holds the vocabulary of that layer:
//!
//! * [`RetryPolicy`] — attempts, [`Backoff`] shape, per-attempt and total
//!   timeout, and the [`RetryOn`] error classifier. Attached to a call at
//!   the API (`ctx.call_with_policy`, `client.call_with_policy`,
//!   `Outcome::call_then_with_policy`) or registered per actor type at mesh
//!   config.
//! * [`RetryState`] — the live schedule of one orchestrated invocation:
//!   failed-attempt count, the next-fire deadline, and the last error. The
//!   state rides **inside the request record**
//!   ([`RequestMessage::retry`](crate::RequestMessage::retry)), so when a
//!   component dies mid-backoff and reconciliation re-homes the record, the
//!   adopter resumes the schedule at the persisted attempt instead of
//!   resetting to attempt 0.
//!
//! All deadlines are absolute wall-clock epoch milliseconds ([`epoch_ms`]):
//! every component in a mesh reads the same clock, so a re-homed deadline
//! means the same instant on its adopter. Backoff jitter is *deterministic*
//! — derived from the request id and attempt number with a splitmix64 hash —
//! so a re-homed invocation recomputes the exact same schedule and seeded
//! chaos tests can assert it.
//!
//! Policy durations are wall-clock as given; they are **not** compressed by
//! the mesh's `TimeScale` (policies are part of the application contract,
//! not the test-profile physics).

use std::time::{Duration, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::error::KarError;

/// The epoch-milliseconds value a freshly created [`crate::VirtualClock`]
/// reports: an arbitrary but realistic instant, so simulated retry deadlines
/// look like production timestamps and never underflow epoch arithmetic.
pub const SIM_EPOCH_BASE_MS: u64 = 1_600_000_000_000;

/// Current wall-clock time in milliseconds since the Unix epoch: the clock
/// every retry deadline is expressed in.
///
/// Under an installed [`crate::VirtualClock`] (deterministic simulation),
/// this is [`SIM_EPOCH_BASE_MS`] plus the virtual elapsed time, so the whole
/// retry schedule — backoff deadlines, aged bookkeeping, DLQ lease expiry —
/// rides the simulated timeline.
pub fn epoch_ms() -> u64 {
    if let Some(clock) = crate::time::virtual_clock() {
        return SIM_EPOCH_BASE_MS + clock.now().as_millis() as u64;
    }
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_millis() as u64
}

/// Backoff shape: how long to wait before retry attempt `n` (1-indexed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Backoff {
    /// No delay: retries are re-queued immediately (still subject to the
    /// mesh retry budget).
    None,
    /// The same delay before every retry.
    Fixed {
        /// Delay before each retry.
        delay: Duration,
    },
    /// Linearly growing delay: `base * n`, capped at `max`.
    Linear {
        /// Delay before the first retry; attempt `n` waits `base * n`.
        base: Duration,
        /// Upper bound on the computed delay.
        max: Duration,
    },
    /// Exponentially growing delay with deterministic jitter:
    /// `base * multiplier^(n-1)` capped at `max`, then shrunk by up to
    /// `jitter` (a `0.0..=1.0` fraction) using a hash of the request id and
    /// attempt number — deterministic, so a re-homed invocation recomputes
    /// the same schedule.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Growth factor per attempt.
        multiplier: f64,
        /// Upper bound on the computed delay.
        max: Duration,
        /// Fraction of the delay subject to deterministic jitter
        /// (`0.0` = none, `1.0` = full).
        jitter: f64,
    },
}

impl Backoff {
    /// The delay before retry attempt `attempt` (1-indexed: the first retry
    /// after the initial failure is attempt 1). `seed` feeds the
    /// deterministic jitter; callers pass the request id's raw value.
    pub fn delay_for(&self, attempt: u32, seed: u64) -> Duration {
        match self {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed { delay } => *delay,
            Backoff::Linear { base, max } => (*base * attempt.max(1)).min(*max),
            Backoff::Exponential {
                base,
                multiplier,
                max,
                jitter,
            } => {
                let exponent = attempt.saturating_sub(1).min(63);
                let factor = multiplier.max(1.0).powi(exponent as i32);
                let raw = base.as_secs_f64() * factor;
                let capped = raw.min(max.as_secs_f64());
                let jitter = jitter.clamp(0.0, 1.0);
                // splitmix64 of (seed, attempt) → uniform fraction in [0, 1):
                // the same request retries on the same schedule everywhere.
                let frac =
                    (splitmix64(seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
                Duration::from_secs_f64(capped * (1.0 - jitter * frac))
            }
        }
    }
}

/// splitmix64: the jitter hash (public domain constants; also used by the
/// seeded chaos helpers).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which errors a policy retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetryOn {
    /// Retry only transient infrastructure errors
    /// ([`KarError::is_retryable`]): fencing, kills, timeouts, queue/store
    /// faults, and open circuit breakers. Application errors propagate
    /// immediately.
    Transient,
    /// Retry every failure except cancellation and shutdown — including
    /// application errors. For dependencies whose failures are known to be
    /// intermittent.
    AllErrors,
}

impl RetryOn {
    /// True if this classifier retries `error`.
    pub fn retries(self, error: &KarError) -> bool {
        match self {
            RetryOn::Transient => error.is_retryable(),
            RetryOn::AllErrors => {
                !matches!(error, KarError::Cancelled { .. } | KarError::ShuttingDown)
            }
        }
    }
}

/// A bounded, shaped retry schedule for one invocation (or one actor type).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum number of attempts, *including* the initial one. `1` means
    /// no retries. Exhausting this moves the invocation to the dead-letter
    /// queue.
    pub max_attempts: u32,
    /// Delay shape between attempts.
    pub backoff: Backoff,
    /// Grace period for a *scheduled* attempt to actually start. A due
    /// retry that the mesh retry budget keeps shedding past this grace
    /// counts as a failed (timed-out) attempt, so budget starvation
    /// advances the schedule toward the DLQ instead of stalling it forever.
    /// `None` = wait indefinitely for budget.
    pub attempt_timeout: Option<Duration>,
    /// Upper bound on the whole schedule, measured from the first dispatch.
    /// Once exceeded, the next failure is terminal regardless of remaining
    /// attempts. `None` = bounded by `max_attempts` only.
    pub total_timeout: Option<Duration>,
    /// Which errors are worth retrying.
    pub retry_on: RetryOn,
}

impl RetryPolicy {
    /// A fixed-delay policy: `max_attempts` attempts, `delay` between them,
    /// retrying transient errors only.
    pub fn fixed(max_attempts: u32, delay: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::Fixed { delay },
            attempt_timeout: None,
            total_timeout: None,
            retry_on: RetryOn::Transient,
        }
    }

    /// An exponential policy: `base * 2^(n-1)` capped at `base * 16`, 20 %
    /// deterministic jitter, retrying transient errors only.
    pub fn exponential(max_attempts: u32, base: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::Exponential {
                base,
                multiplier: 2.0,
                max: base * 16,
                jitter: 0.2,
            },
            attempt_timeout: None,
            total_timeout: None,
            retry_on: RetryOn::Transient,
        }
    }

    /// Returns the policy with the given total timeout.
    #[must_use]
    pub fn with_total_timeout(mut self, timeout: Duration) -> Self {
        self.total_timeout = Some(timeout);
        self
    }

    /// Returns the policy with the given per-attempt start grace.
    #[must_use]
    pub fn with_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = Some(timeout);
        self
    }

    /// Returns the policy retrying *all* errors (including application
    /// errors), not just transient infrastructure ones.
    #[must_use]
    pub fn retry_all_errors(mut self) -> Self {
        self.retry_on = RetryOn::AllErrors;
        self
    }
}

/// The persisted schedule state of one orchestrated invocation. Rides in
/// the request record, so re-homing a request re-homes its schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryState {
    /// The policy governing this invocation (carried with the state so an
    /// adopter needs no out-of-band configuration to continue the
    /// schedule).
    pub policy: RetryPolicy,
    /// Failed attempts so far (`0` = the initial attempt has not failed
    /// yet).
    pub attempt: u32,
    /// Epoch milliseconds before which the next attempt must not start
    /// (`0` = due immediately).
    pub not_before_ms: u64,
    /// Epoch milliseconds of the first dispatch (anchors `total_timeout`).
    pub started_ms: u64,
    /// Display form of the most recent failure, for DLQ provenance.
    pub last_error: Option<String>,
}

/// The verdict after a failed attempt: continue the schedule or give up.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryVerdict {
    /// Retry: the updated state carries the bumped attempt count and the
    /// next-fire deadline.
    Retry(RetryState),
    /// The schedule is exhausted (attempts, total timeout, or a
    /// non-retryable error): the state carries the final attempt count and
    /// last error for dead-letter provenance.
    Exhausted(RetryState),
}

impl RetryState {
    /// A fresh schedule: no failed attempts, due immediately.
    pub fn fresh(policy: RetryPolicy, now_ms: u64) -> Self {
        RetryState {
            policy,
            attempt: 0,
            not_before_ms: 0,
            started_ms: now_ms,
            last_error: None,
        }
    }

    /// True once the next-fire deadline has passed.
    pub fn due(&self, now_ms: u64) -> bool {
        now_ms >= self.not_before_ms
    }

    /// Advances the schedule after a failed attempt. `seed` is the request
    /// id's raw value (feeds deterministic jitter).
    pub fn after_failure(mut self, seed: u64, error: &KarError, now_ms: u64) -> RetryVerdict {
        self.attempt = self.attempt.saturating_add(1);
        self.last_error = Some(error.to_string());
        if !self.policy.retry_on.retries(error) || self.attempt >= self.policy.max_attempts {
            return RetryVerdict::Exhausted(self);
        }
        if let Some(total) = self.policy.total_timeout {
            if now_ms.saturating_sub(self.started_ms) >= total.as_millis() as u64 {
                return RetryVerdict::Exhausted(self);
            }
        }
        let delay = self.policy.backoff.delay_for(self.attempt, seed);
        self.not_before_ms = now_ms + delay.as_millis() as u64;
        RetryVerdict::Retry(self)
    }

    /// Pushes the next-fire deadline forward after a budget shed: the retry
    /// re-queues on its own backoff delay (never dropped). Returns `false`
    /// — and leaves the deadline alone — when the attempt-start grace
    /// ([`RetryPolicy::attempt_timeout`]) has been exceeded, in which case
    /// the caller should count a timed-out attempt instead.
    pub fn reschedule_shed(&mut self, seed: u64, now_ms: u64) -> bool {
        if let Some(grace) = self.policy.attempt_timeout {
            if now_ms.saturating_sub(self.not_before_ms) >= grace.as_millis() as u64 {
                return false;
            }
        }
        let delay = self
            .policy
            .backoff
            .delay_for(self.attempt.max(1), seed ^ 0xA5A5)
            .max(Duration::from_millis(1));
        self.not_before_ms = now_ms + delay.as_millis() as u64;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RequestId;

    #[test]
    fn backoff_shapes() {
        assert_eq!(Backoff::None.delay_for(3, 7), Duration::ZERO);
        let fixed = Backoff::Fixed {
            delay: Duration::from_millis(50),
        };
        assert_eq!(fixed.delay_for(1, 7), Duration::from_millis(50));
        assert_eq!(fixed.delay_for(9, 7), Duration::from_millis(50));
        let linear = Backoff::Linear {
            base: Duration::from_millis(10),
            max: Duration::from_millis(25),
        };
        assert_eq!(linear.delay_for(1, 7), Duration::from_millis(10));
        assert_eq!(linear.delay_for(2, 7), Duration::from_millis(20));
        assert_eq!(linear.delay_for(5, 7), Duration::from_millis(25), "capped");
    }

    #[test]
    fn exponential_grows_caps_and_jitters_deterministically() {
        let exp = Backoff::Exponential {
            base: Duration::from_millis(100),
            multiplier: 2.0,
            max: Duration::from_millis(450),
            jitter: 0.0,
        };
        assert_eq!(exp.delay_for(1, 1), Duration::from_millis(100));
        assert_eq!(exp.delay_for(2, 1), Duration::from_millis(200));
        assert_eq!(exp.delay_for(3, 1), Duration::from_millis(400));
        assert_eq!(exp.delay_for(4, 1), Duration::from_millis(450), "capped");

        let jittered = Backoff::Exponential {
            base: Duration::from_millis(100),
            multiplier: 2.0,
            max: Duration::from_secs(10),
            jitter: 0.5,
        };
        let a = jittered.delay_for(3, 42);
        let b = jittered.delay_for(3, 42);
        assert_eq!(a, b, "jitter must be deterministic in (seed, attempt)");
        assert!(a <= Duration::from_millis(400));
        assert!(
            a >= Duration::from_millis(200),
            "at most `jitter` is shaved"
        );
        assert_ne!(
            jittered.delay_for(3, 42),
            jittered.delay_for(3, 43),
            "different seeds jitter differently"
        );
    }

    #[test]
    fn classifier_splits_transient_from_application() {
        let transient = RetryOn::Transient;
        assert!(transient.retries(&KarError::Timeout {
            request: RequestId::from_raw(1),
            after_ms: 5
        }));
        assert!(!transient.retries(&KarError::application("boom")));
        let all = RetryOn::AllErrors;
        assert!(all.retries(&KarError::application("boom")));
        assert!(!all.retries(&KarError::ShuttingDown));
    }

    #[test]
    fn schedule_advances_and_exhausts_on_attempts() {
        let policy = RetryPolicy::fixed(3, Duration::from_millis(100));
        let state = RetryState::fresh(policy, 1_000);
        assert!(state.due(1_000));
        let err = KarError::Timeout {
            request: RequestId::from_raw(9),
            after_ms: 1,
        };
        let RetryVerdict::Retry(state) = state.after_failure(9, &err, 1_000) else {
            panic!("first failure must retry");
        };
        assert_eq!(state.attempt, 1);
        assert_eq!(state.not_before_ms, 1_100);
        assert!(!state.due(1_099));
        assert!(state.due(1_100));
        let RetryVerdict::Retry(state) = state.after_failure(9, &err, 1_100) else {
            panic!("second failure must retry");
        };
        assert_eq!(state.attempt, 2);
        let RetryVerdict::Exhausted(final_state) = state.after_failure(9, &err, 1_200) else {
            panic!("third failure exhausts a 3-attempt policy");
        };
        assert_eq!(final_state.attempt, 3);
        assert!(final_state.last_error.is_some());
    }

    #[test]
    fn schedule_exhausts_on_non_retryable_error_and_total_timeout() {
        let err = KarError::application("bad input");
        let policy = RetryPolicy::fixed(5, Duration::from_millis(1));
        let state = RetryState::fresh(policy, 0);
        assert!(matches!(
            state.after_failure(1, &err, 0),
            RetryVerdict::Exhausted(s) if s.attempt == 1
        ));

        let timeout = KarError::Timeout {
            request: RequestId::from_raw(2),
            after_ms: 1,
        };
        let policy = RetryPolicy::fixed(100, Duration::from_millis(1))
            .with_total_timeout(Duration::from_secs(1));
        let state = RetryState::fresh(policy, 10_000);
        assert!(matches!(
            state.clone().after_failure(2, &timeout, 10_500),
            RetryVerdict::Retry(_)
        ));
        assert!(matches!(
            state.after_failure(2, &timeout, 11_000),
            RetryVerdict::Exhausted(_)
        ));
    }

    #[test]
    fn shed_requeues_until_attempt_grace_expires() {
        let policy = RetryPolicy::fixed(5, Duration::from_millis(200))
            .with_attempt_timeout(Duration::from_millis(300));
        let mut state = RetryState::fresh(policy, 0);
        state.attempt = 1;
        state.not_before_ms = 1_000;
        assert!(
            state.reschedule_shed(7, 1_100),
            "inside the grace: re-queue"
        );
        assert!(state.not_before_ms > 1_100, "deadline moved forward");
        state.not_before_ms = 1_000;
        assert!(
            !state.reschedule_shed(7, 1_300),
            "past the grace: count a timed-out attempt instead"
        );
        assert_eq!(state.not_before_ms, 1_000, "deadline untouched on refusal");

        let no_grace = RetryPolicy::fixed(5, Duration::from_millis(1));
        let mut state = RetryState::fresh(no_grace, 0);
        state.not_before_ms = 1_000;
        assert!(
            state.reschedule_shed(7, 9_999_999),
            "no grace: shed forever"
        );
    }
}
