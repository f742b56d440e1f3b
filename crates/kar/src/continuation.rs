//! Continuation parking: the event-driven replacement for blocking a
//! dispatch thread on a nested call.
//!
//! When a handler returns [`Outcome::CallThen`](crate::Outcome::CallThen),
//! the runtime sends the nested request, captures the rest of the handler as
//! a [`Continuation`] keyed by the nested request id in the component's
//! [`ContinuationTable`], and returns the reactor to the pool. The
//! actor stays locked (per-actor FIFO is untouched: its mailbox keeps
//! queueing behind the parked invocation) and the *original* request stays
//! in the in-flight set, so recovery treats a parked invocation exactly like
//! one that was executing on a killed thread — the queue copy of the
//! original request is re-homed and retried (§4.3). When the response record
//! arrives, the continuation is resumed inline on the reactor that polled
//! it; no thread ever blocks waiting for it.
//!
//! In-memory actor state moved *into* the continuation closure follows the
//! same contract as in-memory actor state generally (§2.1): it survives the
//! park on the live component and is lost on failure, where the retry
//! re-executes the handler from the top.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use kar_types::{KarResult, RequestId, Value};

use crate::actor::Outcome;
use crate::context::ActorContext;

/// The boxed rest-of-the-handler resumed with the nested call's result.
type ContinuationFn =
    Box<dyn FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome> + Send>;

/// The rest of a handler, waiting for a nested call's response.
///
/// Resumed exactly once with the nested result — `Ok(value)` on completion,
/// `Err` if the nested call failed or timed out — and returns the next
/// [`Outcome`], which may itself be another `CallThen`.
pub struct Continuation(ContinuationFn);

impl Continuation {
    /// Wraps a closure as a continuation.
    pub fn new(
        f: impl FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome> + Send + 'static,
    ) -> Continuation {
        Continuation(Box::new(f))
    }

    /// Runs the continuation with the nested call's result.
    pub(crate) fn resume(
        self,
        ctx: &mut ActorContext<'_>,
        input: KarResult<Value>,
    ) -> KarResult<Outcome> {
        (self.0)(ctx, input)
    }
}

impl fmt::Debug for Continuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Continuation(..)")
    }
}

/// A continuation parked in the table: everything needed to resume the
/// original invocation when the nested response arrives (or the deadline
/// passes).
#[derive(Debug)]
pub(crate) struct ParkedContinuation {
    /// The original request whose handler parked. Still in the in-flight
    /// set and still holding its actor busy, so recovery and per-actor FIFO
    /// see a parked invocation exactly like a running one.
    pub request: kar_types::RequestMessage,
    /// Whether the original invocation holds the actor lock (mirrors
    /// `run_invocation`'s `holds_lock`).
    pub holds_lock: bool,
    /// Whether the original invocation was admitted reentrantly.
    pub reentrant: bool,
    /// When the nested call times out; the sweep resumes the continuation
    /// with [`kar_types::KarError::Timeout`] past this instant.
    pub deadline: Duration,
    /// The rest of the handler.
    pub then: Continuation,
}

/// The parked-continuation table of one component: continuations keyed by
/// the *nested* request id they are waiting on.
#[derive(Debug, Default)]
pub(crate) struct ContinuationTable {
    parked: Mutex<HashMap<RequestId, ParkedContinuation>>,
    /// Total parks since the component started (amortization introspection).
    parked_total: AtomicU64,
}

impl ContinuationTable {
    /// Parks `continuation` until the response to `nested` arrives.
    pub fn park(&self, nested: RequestId, continuation: ParkedContinuation) {
        self.parked_total.fetch_add(1, Ordering::Relaxed);
        self.parked.lock().insert(nested, continuation);
    }

    /// Claims the continuation waiting on `nested`, if any. The response
    /// path calls this before the duplicate-response check: exactly one
    /// caller can claim a parked continuation.
    pub fn take(&self, nested: RequestId) -> Option<ParkedContinuation> {
        self.parked.lock().remove(&nested)
    }

    /// Drains every continuation whose deadline has passed, so the caller
    /// can resume them with a timeout error — in (deadline, request id)
    /// order, never the table's hash order, so continuations expiring in
    /// one tick resume in the same order on every run.
    pub fn take_expired(&self, now: Duration) -> Vec<(RequestId, ParkedContinuation)> {
        let mut parked = self.parked.lock();
        if parked.values().all(|p| now < p.deadline) {
            return Vec::new();
        }
        let mut expired: Vec<(Duration, RequestId)> = parked
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(id, p)| (p.deadline, *id))
            .collect();
        expired.sort_unstable();
        expired
            .into_iter()
            .filter_map(|(_, id)| parked.remove(&id).map(|p| (id, p)))
            .collect()
    }

    /// Drops every parked continuation (component killed). The queue copies
    /// of the original requests drive their retries on the adopters.
    pub fn clear(&self) -> usize {
        let mut parked = self.parked.lock();
        let dropped = parked.len();
        parked.clear();
        dropped
    }

    /// Number of continuations currently parked.
    pub fn len(&self) -> usize {
        self.parked.lock().len()
    }

    /// Total number of parks since the component started.
    pub fn parked_total(&self) -> u64 {
        self.parked_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_types::mono_now;
    use std::time::Duration;

    use kar_types::{ActorRef, RequestMessage};

    fn parked(deadline: Duration) -> ParkedContinuation {
        ParkedContinuation {
            request: RequestMessage::root(
                RequestId::from_raw(1),
                ActorRef::new("A", "1"),
                "m",
                Vec::new(),
            ),
            holds_lock: true,
            reentrant: false,
            deadline,
            then: Continuation::new(|_, input| input.map(Outcome::Value)),
        }
    }

    #[test]
    fn park_take_and_clear() {
        let table = ContinuationTable::default();
        let far = mono_now() + Duration::from_secs(60);
        table.park(RequestId::from_raw(7), parked(far));
        table.park(RequestId::from_raw(8), parked(far));
        assert_eq!(table.len(), 2);
        assert_eq!(table.parked_total(), 2);
        assert!(table.take(RequestId::from_raw(7)).is_some());
        assert!(
            table.take(RequestId::from_raw(7)).is_none(),
            "claim is exclusive"
        );
        assert_eq!(table.clear(), 1);
        assert_eq!(table.len(), 0);
        assert_eq!(table.parked_total(), 2, "total counts parks, not occupancy");
    }

    #[test]
    fn take_expired_only_drains_past_deadline() {
        let table = ContinuationTable::default();
        let now = mono_now() + Duration::from_secs(1);
        table.park(
            RequestId::from_raw(1),
            parked(now - Duration::from_millis(1)),
        );
        table.park(
            RequestId::from_raw(2),
            parked(now + Duration::from_secs(60)),
        );
        let expired = table.take_expired(now);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, RequestId::from_raw(1));
        assert_eq!(table.len(), 1);
        assert!(table.take_expired(now).is_empty());
    }

    #[test]
    fn continuations_expiring_in_one_tick_resume_in_deadline_then_id_order() {
        let table = ContinuationTable::default();
        let now = mono_now() + Duration::from_secs(1);
        let early = now - Duration::from_millis(2);
        let late = now - Duration::from_millis(1);
        // Parked in a scrambled order, two deadlines, all past by `now`.
        let parks = [
            (41, late),
            (7, early),
            (93, late),
            (12, early),
            (3, late),
            (88, early),
            (56, late),
            (20, early),
        ];
        for (id, deadline) in parks {
            table.park(RequestId::from_raw(id), parked(deadline));
        }
        let order: Vec<u64> = table
            .take_expired(now)
            .into_iter()
            .map(|(id, _)| id.as_u64())
            .collect();
        assert_eq!(order, vec![7, 12, 20, 88, 3, 41, 56, 93]);
        assert_eq!(table.len(), 0);
    }
}
