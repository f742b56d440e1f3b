//! Continuation parking: the event-driven replacement for blocking a
//! dispatch thread on a nested call.
//!
//! When a handler returns [`Outcome::CallThen`], the runtime sends the
//! nested request, captures the rest of the handler as a [`Continuation`]
//! keyed by the nested request id in the component's request ledger, and
//! returns the reactor to the pool. The actor stays locked (per-actor FIFO
//! is untouched: its mailbox keeps queueing behind the parked invocation)
//! and the *original* request stays in the in-flight set, so recovery
//! treats a parked invocation exactly like one that was executing on a
//! killed thread — the queue copy of the original request is re-homed and
//! retried (§4.3). When the response record
//! arrives, the continuation is resumed inline on the reactor that polled
//! it; no thread ever blocks waiting for it.
//!
//! In-memory actor state moved *into* the continuation closure follows the
//! same contract as in-memory actor state generally (§2.1): it survives the
//! park on the live component and is lost on failure, where the retry
//! re-executes the handler from the top.

use std::fmt;
use std::time::Duration;

use kar_types::{KarResult, Value};

use crate::actor::Outcome;
use crate::context::ActorContext;
use crate::state_cache::StateImage;

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

/// A continuation parked in the ledger: everything needed to resume the
/// original invocation when the nested response arrives (or the deadline
/// passes).
#[derive(Debug)]
pub(crate) struct ParkedContinuation {
    /// The original request whose handler parked. Still in the in-flight
    /// set and still holding its actor busy, so recovery and per-actor FIFO
    /// see a parked invocation exactly like a running one.
    pub request: kar_types::SharedRequest,
    /// Whether the original invocation holds the actor lock (mirrors
    /// `run_invocation`'s `holds_lock`).
    pub holds_lock: bool,
    /// Whether the original invocation was admitted reentrantly.
    pub reentrant: bool,
    /// The actor's state image, shared with its slot: the continuation
    /// writes where the handler did.
    pub image: StateImage,
    /// When the nested call times out; the sweep resumes the continuation
    /// with [`kar_types::KarError::Timeout`] past this instant.
    pub deadline: Duration,
    /// The rest of the handler.
    pub then: Continuation,
}
