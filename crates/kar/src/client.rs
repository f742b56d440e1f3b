//! External clients: application entry points that are not actors.
//!
//! In the paper's Container Shipping application the Web API service and the
//! simulators invoke actors from outside the actor model (§5). A [`Client`]
//! plays that role: it owns its own queue partition (so responses can be
//! routed back to it), participates in the consumer group, and is never the
//! target of fault injection in the experiments (mirroring the paper's
//! never-killed simulator node).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use kar_types::{ActorRef, KarResult, LatencyProfile, Payload, RequestId, RetryPolicy, Value};

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
///
/// The hand-off is the workspace's one wake idiom (see [`kar_types::sync`]):
///
/// - readiness is an atomic: [`CallSlot::answer`] stores the answer and sets
///   `ready` under the slot's mutex;
/// - the waker skips the futex unless the waiter has parked: `answer`
///   notifies the condvar only if it saw `parked` under that mutex;
/// - the caller, on its own critical path, yields before it parks:
///   [`CallSlot::wait`] gives the thread up until `ready` is set or
///   [`SPIN_WINDOW`] passes, and only then takes the mutex, marks itself
///   `parked`, re-checks the answer and sleeps on the condvar. A caller
///   whose latency profile puts the earliest answer past the window
///   ([`answer_floor`]) parks at once.
///
/// At zero latency the answer usually lands inside the window, and the
/// hand-off costs neither side a syscall. Both of `parked`'s accesses are
/// under the mutex and the condvar wait releases it atomically, so an
/// answer either finds the waiter parked and wakes it or lands before the
/// re-check: no wakeup is lost.
#[derive(Default)]
pub(crate) struct CallSlot {
    /// Set (`Release`) once the answer is in `state`, and read (`Acquire`)
    /// without the lock by the yielding waiter, which then takes the answer
    /// under the mutex; cleared when the slot is armed for a call.
    ready: AtomicBool,
    state: Mutex<SlotState>,
    answered: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// The request the slot waits for; `None` between calls.
    waiting_for: Option<RequestId>,
    answer: Option<Answer>,
    /// The waiter sleeps on the condvar (or is about to): an answer must
    /// notify it.
    parked: bool,
}

/// How long [`CallSlot::wait`] yields before it parks: about the 95th
/// percentile of one zero-latency round trip on a 2-core x86-64 VM. A
/// longer window buys few more hand-offs and costs CPU wherever answers
/// come late (120 µs raised `actor_churn`'s CPU and p95); a call whose
/// answer needs longer than this parks as before, one window later.
pub(crate) const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// The earliest a blocked call's answer can arrive once its request is
/// appended, under `latency`: the response still has to be appended and
/// delivered.
pub(crate) fn answer_floor(latency: &LatencyProfile) -> Duration {
    latency.queue_append + latency.queue_deliver
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
        slot.arm(Some(id));
        slot
    }

    /// Answers the call of `id`, if the slot still waits for it; wakes the
    /// waiter only if it has parked.
    pub(crate) fn answer(&self, id: RequestId, answer: Answer) {
        let mut state = self.lock();
        if state.waiting_for == Some(id) && state.answer.is_none() {
            state.answer = Some(answer);
            self.ready.store(true, Ordering::Release);
            let parked = state.parked;
            drop(state);
            if parked {
                self.answered.notify_one();
            }
        }
    }

    /// The answer, if it has arrived.
    pub(crate) fn try_answer(&self) -> Option<Answer> {
        self.lock().answer.take()
    }

    /// Blocks until the answer arrives, or `timeout` elapses (`None`):
    /// yields for up to [`SPIN_WINDOW`] of the timeout, then parks. An
    /// answer that cannot arrive before `floor` has passed parks at once
    /// when `floor` is past the window.
    pub(crate) fn wait(&self, timeout: Duration, floor: Duration) -> Option<Answer> {
        let started = Instant::now();
        let deadline = started + timeout;
        let window = if floor > SPIN_WINDOW {
            Duration::ZERO
        } else {
            SPIN_WINDOW.min(timeout)
        };
        let spin_end = started + window;
        while !self.ready.load(Ordering::Acquire) && Instant::now() < spin_end {
            std::thread::yield_now();
        }
        let mut state = self.lock();
        let answer = loop {
            if let Some(answer) = state.answer.take() {
                break Some(answer);
            }
            let now = Instant::now();
            if now >= deadline {
                break None;
            }
            state.parked = true;
            state = self
                .answered
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        state.parked = false;
        answer
    }

    /// The call is over: the slot stops waiting and goes back to its
    /// thread.
    pub(crate) fn release(self: Arc<Self>) {
        self.arm(None);
        let _ = SPARE_SLOT.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.is_none() {
                *spare = Some(self);
            }
        });
    }

    /// Empties the slot and has it wait for `id`.
    fn arm(&self, id: Option<RequestId>) {
        let mut state = self.lock();
        *state = SlotState {
            waiting_for: id,
            ..SlotState::default()
        };
        self.ready.store(false, Ordering::Relaxed);
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
        assert!(
            first
                .wait(Duration::from_millis(1), Duration::ZERO)
                .is_none(),
            "timed out"
        );
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
        assert!(matches!(
            second.wait(Duration::ZERO, Duration::ZERO),
            Some(Answer::Killed)
        ));
    }

    /// Far longer than any wait below may take: a wait that reaches it
    /// missed its wakeup.
    const TIMEOUT: Duration = Duration::from_secs(10);

    fn response(value: i64) -> Answer {
        Answer::Response(Arc::new(Ok(Value::Int(value))))
    }

    fn value_of(answer: Option<Answer>) -> Option<i64> {
        match answer {
            Some(Answer::Response(payload)) => payload.as_ref().as_ref().ok()?.as_i64(),
            _ => None,
        }
    }

    /// Answers each `(id, answer)` on `slot`, from a thread of its own,
    /// `offset` after that thread starts — and, with `once_parked`, not
    /// before the waiter has parked; returns once the thread has started.
    fn answer_later(
        slot: &Arc<CallSlot>,
        offset: Duration,
        once_parked: bool,
        answers: Vec<(RequestId, Answer)>,
    ) -> std::thread::JoinHandle<()> {
        let slot = Arc::clone(slot);
        let running = Arc::new(AtomicBool::new(false));
        let started = Arc::clone(&running);
        let answering = std::thread::spawn(move || {
            let from = Instant::now();
            started.store(true, Ordering::Release);
            while from.elapsed() < offset {
                std::hint::spin_loop();
            }
            while once_parked && !slot.lock().parked {
                std::thread::yield_now();
            }
            for (id, answer) in answers {
                slot.answer(id, answer);
            }
        });
        while !running.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        answering
    }

    #[test]
    fn an_answer_on_either_side_of_the_spin_window_wakes_the_caller() {
        // At once and just inside the window, while the caller yields; just
        // past it and well past it, once the caller has parked (on a busy
        // host a yield can outlast the window, and the answer would beat
        // the park).
        const EPSILON: Duration = Duration::from_micros(5);
        let offsets = [
            Duration::ZERO,
            SPIN_WINDOW - EPSILON,
            SPIN_WINDOW + EPSILON,
            2 * SPIN_WINDOW,
        ];
        let mut call = 0;
        for offset in offsets {
            for _ in 0..200 {
                call += 1;
                let id = RequestId::from_raw(call);
                let slot = CallSlot::waiting_for(id);
                let answering = answer_later(
                    &slot,
                    offset,
                    offset > SPIN_WINDOW,
                    vec![(id, response(call as i64))],
                );
                let started = Instant::now();
                let answer = slot.wait(TIMEOUT, Duration::ZERO);
                let waited = started.elapsed();
                answering.join().unwrap();
                slot.release();
                assert_eq!(
                    value_of(answer),
                    Some(call as i64),
                    "call {call} at {offset:?}"
                );
                assert!(
                    waited < TIMEOUT,
                    "call {call} at {offset:?} waited out its timeout"
                );
            }
        }
    }

    #[test]
    fn a_late_answer_landing_while_the_reused_slot_spins_is_dropped() {
        let id = RequestId::from_raw;
        let first = CallSlot::waiting_for(id(1));
        assert!(
            first.wait(Duration::ZERO, Duration::ZERO).is_none(),
            "timed out"
        );
        first.release();
        let second = CallSlot::waiting_for(id(2));
        // The first call's answer lands a moment into the second's spin;
        // the second's own answer, two windows later.
        let stale = answer_later(&second, SPIN_WINDOW / 5, false, vec![(id(1), response(1))]);
        let own = answer_later(&second, 2 * SPIN_WINDOW, false, vec![(id(2), response(2))]);
        let answer = second.wait(TIMEOUT, Duration::ZERO);
        stale.join().unwrap();
        own.join().unwrap();
        second.release();
        assert_eq!(value_of(answer), Some(2), "the stale answer was dropped");
    }

    #[test]
    fn a_timeout_shorter_than_the_spin_window_ends_the_wait_on_time() {
        const SHORT: Duration = Duration::from_micros(5);
        let mut waits: Vec<Duration> = (0..200u64)
            .map(|call| {
                let slot = CallSlot::waiting_for(RequestId::from_raw(call));
                let started = Instant::now();
                assert!(slot.wait(SHORT, Duration::ZERO).is_none(), "nobody answers");
                let waited = started.elapsed();
                slot.release();
                assert!(waited >= SHORT, "wait {call} ended early: {waited:?}");
                waited
            })
            .collect();
        waits.sort();
        // A wait that yielded out the whole window before looking at its
        // deadline would take at least the window, every time.
        let median = waits[waits.len() / 2];
        assert!(median < SPIN_WINDOW / 2, "median wait {median:?}");
    }

    #[test]
    fn a_caller_whose_answer_cannot_come_inside_the_window_parks_without_yielding() {
        let floor = answer_floor(&kar_types::DeploymentProfile::ClusterDev.latency_profile());
        assert!(floor > SPIN_WINDOW, "ClusterDev answers in {floor:?}");
        assert_eq!(answer_floor(&LatencyProfile::ZERO), Duration::ZERO);
        let mut parked_after: Vec<Duration> = (0..200u64)
            .map(|call| {
                let id = RequestId::from_raw(call);
                let slot = CallSlot::waiting_for(id);
                let watching = Arc::clone(&slot);
                let running = Arc::new(AtomicBool::new(false));
                let started = Arc::clone(&running);
                // Watches from before the wait starts, and answers once the
                // caller has parked.
                let answering = std::thread::spawn(move || {
                    started.store(true, Ordering::Release);
                    while !watching.lock().parked {
                        std::hint::spin_loop();
                    }
                    let seen = Instant::now();
                    watching.answer(id, Answer::Killed);
                    seen
                });
                while !running.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let waiting = Instant::now();
                let answer = slot.wait(TIMEOUT, floor);
                let parked_after = answering.join().unwrap().saturating_duration_since(waiting);
                slot.release();
                assert!(matches!(answer, Some(Answer::Killed)), "call {call}");
                parked_after
            })
            .collect();
        parked_after.sort();
        // A caller that yielded out the window first would park no sooner
        // than the window, every time.
        let median = parked_after[parked_after.len() / 2];
        assert!(median < SPIN_WINDOW / 2, "median park after {median:?}");
    }

    #[test]
    fn a_kill_reaches_a_caller_still_spinning() {
        for call in 0..200u64 {
            let id = RequestId::from_raw(call);
            let slot = CallSlot::waiting_for(id);
            let killing = answer_later(&slot, SPIN_WINDOW / 4, false, vec![(id, Answer::Killed)]);
            let answer = slot.wait(TIMEOUT, Duration::ZERO);
            killing.join().unwrap();
            slot.release();
            assert!(matches!(answer, Some(Answer::Killed)), "call {call}");
        }
    }
}
