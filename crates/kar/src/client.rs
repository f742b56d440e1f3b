//! External clients: application entry points that are not actors.
//!
//! In the paper's Container Shipping application the Web API service and the
//! simulators invoke actors from outside the actor model (§5). A [`Client`]
//! plays that role: it owns its own queue partition (so responses can be
//! routed back to it), participates in the consumer group, and is never the
//! target of fault injection in the experiments (mirroring the paper's
//! never-killed simulator node).

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use kar_types::{ActorRef, KarResult, Payload, RequestId, RetryPolicy, Value};

use crate::component::ComponentCore;

/// A handle used by non-actor code (tests, simulators, web front ends) to
/// invoke actors.
///
/// Cloning a client is cheap and shares the same underlying component.
#[derive(Clone)]
pub struct Client {
    core: Arc<ComponentCore>,
}

impl Client {
    pub(crate) fn new(core: Arc<ComponentCore>) -> Self {
        Client { core }
    }

    /// Performs a blocking invocation of `target.method(args)` and returns
    /// the result, retrying transparently across failures of the components
    /// hosting the target actor (the call only fails if the whole application
    /// cannot recover within the configured call timeout).
    ///
    /// # Errors
    ///
    /// Application errors raised by the actor are propagated;
    /// `KarError::Timeout` is returned if no response arrives in time.
    pub fn call(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> KarResult<Value> {
        self.core.external_call(target, method, args, None)
    }

    /// [`Client::call`] with an explicit [`RetryPolicy`]: failed attempts
    /// are retried on the policy's schedule (bounded attempts, shaped
    /// backoff, budget-gated) before the error is propagated here. The
    /// schedule is persisted in the request record, so it survives failures
    /// and re-homing of the hosting component.
    pub fn call_with_policy(
        &self,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        policy: RetryPolicy,
    ) -> KarResult<Value> {
        self.core.external_call(target, method, args, Some(policy))
    }

    /// Issues an asynchronous invocation of `target.method(args)`; returns
    /// once the request is durably enqueued.
    ///
    /// # Errors
    ///
    /// Fails if the request could not be enqueued.
    pub fn tell(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> KarResult<()> {
        self.core.external_tell(target, method, args)
    }

    /// The component id backing this client.
    pub fn component_id(&self) -> kar_types::ComponentId {
        self.core.id()
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("component", &self.core.id())
            .finish()
    }
}

/// Where a client thread blocked in [`Client::call`] waits for its
/// response. A thread keeps its slot from one call to the next, so a warm
/// call allocates none. The slot knows which request it waits for: the late
/// answer to an earlier call of the thread — one that gave up before its
/// response arrived — is dropped, never handed to a later call.
#[derive(Default)]
pub(crate) struct CallSlot {
    state: Mutex<SlotState>,
    answered: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// The request the slot waits for; `None` between calls.
    waiting_for: Option<RequestId>,
    answer: Option<Answer>,
}

/// How a blocked call ends, short of its timeout.
pub(crate) enum Answer {
    /// The response's payload, shared with its queue record.
    Response(Arc<Payload>),
    /// The calling component was killed.
    Killed,
}

thread_local! {
    /// This thread's slot, while no call of the thread holds it.
    static SPARE_SLOT: RefCell<Option<Arc<CallSlot>>> = const { RefCell::new(None) };
}

impl CallSlot {
    /// A slot waiting for `id`: this thread's own, or a fresh one while a
    /// call further up the thread's stack holds that (a simulated mesh runs
    /// handlers on the thread that waits).
    pub(crate) fn waiting_for(id: RequestId) -> Arc<CallSlot> {
        let slot = SPARE_SLOT
            .try_with(|spare| spare.borrow_mut().take())
            .ok()
            .flatten()
            .unwrap_or_default();
        *slot.lock() = SlotState {
            waiting_for: Some(id),
            answer: None,
        };
        slot
    }

    /// Answers the call of `id`, if the slot still waits for it.
    pub(crate) fn answer(&self, id: RequestId, answer: Answer) {
        let mut state = self.lock();
        if state.waiting_for == Some(id) && state.answer.is_none() {
            state.answer = Some(answer);
            drop(state);
            self.answered.notify_one();
        }
    }

    /// The answer, if it has arrived.
    pub(crate) fn try_answer(&self) -> Option<Answer> {
        self.lock().answer.take()
    }

    /// Blocks until the answer arrives, or `timeout` elapses (`None`).
    pub(crate) fn wait(&self, timeout: Duration) -> Option<Answer> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if let Some(answer) = state.answer.take() {
                return Some(answer);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .answered
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The call is over: the slot stops waiting and goes back to its
    /// thread.
    pub(crate) fn release(self: Arc<Self>) {
        *self.lock() = SlotState::default();
        let _ = SPARE_SLOT.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.is_none() {
                *spare = Some(self);
            }
        });
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_threads_call_slot_is_reused_and_drops_late_answers() {
        let id = RequestId::from_raw;
        let first = CallSlot::waiting_for(id(1));
        let delivering = Arc::clone(&first);
        assert!(first.wait(Duration::from_millis(1)).is_none(), "timed out");
        first.release();
        let second = CallSlot::waiting_for(id(2));
        assert!(
            Arc::ptr_eq(&second, &delivering),
            "the thread reuses its slot"
        );
        let nested = CallSlot::waiting_for(id(3));
        assert!(
            !Arc::ptr_eq(&nested, &second),
            "a held slot is not handed out"
        );
        delivering.answer(id(1), Answer::Killed);
        assert!(second.try_answer().is_none(), "a late answer is dropped");
        delivering.answer(id(2), Answer::Killed);
        assert!(matches!(second.wait(Duration::ZERO), Some(Answer::Killed)));
    }
}
