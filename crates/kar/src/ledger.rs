//! The request ledger: a component's id-keyed retry-orchestration state
//! (§3–§4) under one lock — claims, seen responses, happen-before retries,
//! parked continuations and blocked edge callers. A request runs only if
//! its id is neither in flight here nor completed, so of two copies
//! admitted at once one wins. A response is recorded as seen, and what
//! waits on it taken, in one acquisition ([`RequestLedger::respond`]);
//! admission checks the seen mark and parks a retry under the same lock
//! ([`RequestLedger::defer`]), so no retry parks against a response already
//! processed (lost wakeup).
//!
//! Lock order: the ledger lock is a leaf; nothing is taken under it.

use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_types::{ActorRef, RequestId, SharedRequest};

use crate::aging::{AgingSet, IdBitmap};
use crate::client::CallSlot;
use crate::continuation::ParkedContinuation;

/// What waited for one response: the continuation parked on it, the edge
/// caller blocked on it and the happen-before retries deferred on it (each
/// still holding its claim).
type Waiting = (
    Option<ParkedContinuation>,
    Option<Arc<CallSlot>>,
    Vec<SharedRequest>,
);

/// What the ledger lock guards.
struct Book {
    /// Requests admitted here and not yet finished, released or forwarded:
    /// running, mailboxed, deferred on a callee or parked on the due-time
    /// heap. Holds live work only, so a plain set.
    inflight: HashSet<RequestId>,
    /// Completed request ids, as bits. Aged out alongside queue retention:
    /// a retry can only arrive from an unexpired queue record.
    completed: AgingSet<IdBitmap>,
    /// Response ids seen by this component, as bits. Aged out alongside
    /// queue retention: a response old enough to leave the set has also
    /// expired from every queue, so no deferred retry can still be waiting
    /// on it.
    seen_responses: AgingSet<IdBitmap>,
    /// Happen-before retries, by the callee whose response releases them.
    deferred: HashMap<RequestId, Vec<SharedRequest>>,
    /// Continuations parked on nested calls, by the nested request id.
    continuations: HashMap<RequestId, ParkedContinuation>,
    /// Total parks since the component started (amortization
    /// introspection).
    parks: u64,
    /// Edge callers blocked in `Client::call`, by the request they wait for.
    calls: HashMap<RequestId, Arc<CallSlot>>,
}

/// One component's request ledger (see the module docs).
pub(crate) struct RequestLedger {
    book: Mutex<Book>,
}

impl RequestLedger {
    /// An empty ledger whose completed and seen ids age out every
    /// `bookkeeping_interval`.
    pub(crate) fn new(bookkeeping_interval: Duration) -> Self {
        RequestLedger {
            book: Mutex::new(Book {
                inflight: HashSet::new(),
                completed: AgingSet::new(bookkeeping_interval),
                seen_responses: AgingSet::new(bookkeeping_interval),
                deferred: HashMap::new(),
                continuations: HashMap::new(),
                parks: 0,
                calls: HashMap::new(),
            }),
        }
    }

    /// Claims `id` for admission. False if it is in flight or completed: a
    /// duplicate.
    pub(crate) fn claim(&self, id: RequestId) -> bool {
        let mut book = self.book.lock();
        !book.completed.contains(&id) && book.inflight.insert(id)
    }

    /// Gives up the claim on `id` without completing it.
    pub(crate) fn release(&self, id: RequestId) {
        self.book.lock().inflight.remove(&id);
    }

    /// Completes `id`: every later copy is a duplicate.
    pub(crate) fn complete(&self, id: RequestId) {
        let mut book = self.book.lock();
        book.completed.insert(id);
        book.inflight.remove(&id);
    }

    /// True if `id` holds its claim here.
    pub(crate) fn in_flight(&self, id: RequestId) -> bool {
        self.book.lock().inflight.contains(&id)
    }

    /// Parks `request` — a retried caller, holding its claim — until its
    /// pending `callee`'s response is seen, unless it is already: then
    /// hands it back to go ahead.
    pub(crate) fn defer(&self, callee: RequestId, request: SharedRequest) -> Option<SharedRequest> {
        let mut book = self.book.lock();
        if book.seen_responses.contains(&callee) {
            return Some(request);
        }
        book.deferred.entry(callee).or_default().push(request);
        None
    }

    /// Records the response to `id` as seen, and takes everything that
    /// waited for it.
    pub(crate) fn respond(&self, id: RequestId) -> Waiting {
        let mut book = self.book.lock();
        book.seen_responses.insert(id);
        (
            book.continuations.remove(&id),
            book.calls.remove(&id),
            book.deferred.remove(&id).unwrap_or_default(),
        )
    }

    /// Parks `continuation` until the response to `nested` arrives.
    pub(crate) fn park(&self, nested: RequestId, continuation: ParkedContinuation) {
        let mut book = self.book.lock();
        book.parks += 1;
        book.continuations.insert(nested, continuation);
    }

    /// Takes the continuation waiting on `nested`, if any: exactly one
    /// taker gets a parked continuation.
    pub(crate) fn take(&self, nested: RequestId) -> Option<ParkedContinuation> {
        self.book.lock().continuations.remove(&nested)
    }

    /// Takes every continuation whose deadline has passed, so the caller
    /// can resume them with a timeout error — in (deadline, request id)
    /// order, never the table's hash order, so continuations expiring in
    /// one tick resume in the same order on every run.
    pub(crate) fn take_expired(&self, now: Duration) -> Vec<(RequestId, ParkedContinuation)> {
        let mut book = self.book.lock();
        let parked = &mut book.continuations;
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

    /// Registers the edge caller blocked on `id`.
    pub(crate) fn await_call(&self, id: RequestId, slot: Arc<CallSlot>) {
        self.book.lock().calls.insert(id, slot);
    }

    /// Forgets the edge caller of `id`: it has its answer or gave up.
    pub(crate) fn forget_call(&self, id: RequestId) {
        self.book.lock().calls.remove(&id);
    }

    /// Drops everything in flight here (component killed): the claims, the
    /// deferred retries and the parked continuations — the queue copies of
    /// their requests drive the retries on the adopters (§4.3). Hands back
    /// the blocked edge callers, to be answered outside the lock. What is
    /// completed or seen stays.
    pub(crate) fn clear(&self) -> Vec<(RequestId, Arc<CallSlot>)> {
        let mut book = self.book.lock();
        book.inflight.clear();
        book.deferred.clear();
        book.continuations.clear();
        book.calls.drain().collect()
    }

    /// Rotates the completed and seen ids if their interval elapsed.
    pub(crate) fn age(&self, now: Duration) {
        let mut book = self.book.lock();
        book.completed.maybe_rotate(now);
        book.seen_responses.maybe_rotate(now);
    }

    /// (completed ids, seen response ids).
    pub(crate) fn bookkeeping_len(&self) -> (usize, usize) {
        let book = self.book.lock();
        (book.completed.len(), book.seen_responses.len())
    }

    /// (continuations parked now, parks since the component started).
    pub(crate) fn continuations(&self) -> (usize, u64) {
        let book = self.book.lock();
        (book.continuations.len(), book.parks)
    }

    /// The actors of the deferred retries: each one's placement must stay
    /// put until its retry runs.
    pub(crate) fn deferred_actors(&self) -> HashSet<ActorRef> {
        let book = self.book.lock();
        book.deferred
            .values()
            .flatten()
            .map(|request| request.target.clone())
            .collect()
    }

    /// The deferred retries by callee, the claims and the blocked callers,
    /// for `ComponentCore::debug_snapshot`.
    pub(crate) fn debug(&self, out: &mut String) {
        let book = self.book.lock();
        for (callee, requests) in &book.deferred {
            let ids: Vec<u64> = requests.iter().map(|r| r.id.as_u64()).collect();
            let _ = writeln!(out, "  deferred on callee {}: {ids:?}", callee.as_u64());
        }
        let mut inflight: Vec<u64> = book.inflight.iter().map(|id| id.as_u64()).collect();
        inflight.sort_unstable();
        let _ = writeln!(out, "  inflight: {inflight:?}");
        let mut waiting: Vec<u64> = book.calls.keys().map(|id| id.as_u64()).collect();
        waiting.sort_unstable();
        let _ = writeln!(out, "  blocked calls waiting: {waiting:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_types::mono_now;

    use kar_types::{ActorRef, RequestMessage};

    use crate::actor::Outcome;
    use crate::continuation::Continuation;
    use crate::state_cache::StateImage;

    fn ledger() -> RequestLedger {
        RequestLedger::new(Duration::from_secs(60))
    }

    fn request(id: u64) -> RequestMessage {
        RequestMessage::root(
            RequestId::from_raw(id),
            ActorRef::new("A", "1"),
            "m",
            Vec::new(),
        )
    }

    fn parked(deadline: Duration) -> ParkedContinuation {
        ParkedContinuation {
            request: request(1).into(),
            holds_lock: true,
            reentrant: false,
            image: StateImage::default(),
            deadline,
            then: Continuation::new(|_, input| input.map(Outcome::Value)),
        }
    }

    #[test]
    fn park_take_and_clear() {
        let table = ledger();
        let far = mono_now() + Duration::from_secs(60);
        table.park(RequestId::from_raw(7), parked(far));
        table.park(RequestId::from_raw(8), parked(far));
        assert_eq!(table.continuations().0, 2);
        assert_eq!(table.continuations().1, 2);
        assert!(table.take(RequestId::from_raw(7)).is_some());
        assert!(
            table.take(RequestId::from_raw(7)).is_none(),
            "claim is exclusive"
        );
        assert_eq!(table.continuations().0, 1);
        table.clear();
        assert_eq!(table.continuations().0, 0);
        assert_eq!(
            table.continuations().1,
            2,
            "total counts parks, not occupancy"
        );
    }

    #[test]
    fn take_expired_only_drains_past_deadline() {
        let table = ledger();
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
        assert_eq!(table.continuations().0, 1);
        assert!(table.take_expired(now).is_empty());
    }

    #[test]
    fn continuations_expiring_in_one_tick_resume_in_deadline_then_id_order() {
        let table = ledger();
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
        assert_eq!(table.continuations().0, 0);
    }

    #[test]
    fn a_retry_deferred_before_the_response_is_released_by_it_and_one_after_goes_ahead() {
        let ledger = ledger();
        let callee = RequestId::from_raw(9);
        // Before the response: parked, and handed back by `respond`.
        assert!(ledger.defer(callee, request(1).into()).is_none());
        let (_, _, deferred) = ledger.respond(callee);
        let ids: Vec<u64> = deferred.iter().map(|r| r.id.as_u64()).collect();
        assert_eq!(ids, vec![1]);
        // After it: the seen mark lets the retry go ahead, and nothing is
        // left for a second copy of the response to release.
        let ahead = ledger.defer(callee, request(2).into());
        assert_eq!(ahead.map(|r| r.id.as_u64()), Some(2));
        assert!(ledger.respond(callee).2.is_empty());
        assert!(ledger.deferred_actors().is_empty());
    }
}
