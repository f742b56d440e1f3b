//! The invocation context handed to actor methods, and the invocation
//! **outbox** it owns.
//!
//! # The outbox
//!
//! [`ActorContext::tell`] does not touch the queue: it builds the request
//! and pushes it onto a buffer owned by the context of the invocation that
//! issued it. The runtime flushes the buffer as **one produce round** — one
//! sidecar hop, placement resolved per target, records grouped per
//! destination partition in program order, one durable ack for every
//! partition touched — when the handler returns: a value, an error, a tail
//! call, or a nested call to park on ([`ActorContext::call_then`]), whose
//! request rides the same round. Nothing waits for the round on a reactor:
//! the invocation parks until the ack is due (see `crate::io`).
//! Invariants:
//!
//! 1. **Order is outbox → state flush → completion, never state first.**
//!    `if !state.get("done") { ctx.tell(..); state.set("done") }` stays
//!    at-least-once: a failure after the round and before the state flush
//!    re-executes and re-tells; flushing state first would lose the tell.
//! 2. **Program order is preserved per destination partition** (per-caller
//!    FIFO), and a tell issued before a nested call is durable no later than
//!    that call's request, which rides the same round *behind* the tells. If
//!    that round fails the continuation resumes with the error; whatever it
//!    makes of it, invariant 3 holds.
//! 3. **A failed round completes nothing.** A round is all-or-nothing; if it
//!    fails because the component was killed or fenced the invocation takes
//!    the no-completion arm (the queue copy of its request drives the
//!    retry), and any other failure replaces an `Ok` result and goes through
//!    retry orchestration like an error the handler returned — and the
//!    state writes the handler buffered *behind* the lost tells are rolled
//!    back first (a write made while tells are pending takes a savepoint of
//!    the actor's buffered writes), so the retry finds the guard of
//!    invariant 1 unset and tells again. An attempt
//!    that is killed mid-run publishes none of its tells. A `tell`-kind
//!    request's own record settles only after its outbox round is
//!    acknowledged, so it is never trimmed ahead of the tells it produced.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use kar_types::{
    ActorRef, ComponentId, KarError, KarResult, RequestId, RequestMessage, RetryPolicy, Value,
};

use crate::actor::Outcome;
use crate::component::ComponentCore;
use crate::state_cache::{Savepoint, StateImage};

/// The outbox of one invocation (see the module docs).
#[derive(Default)]
pub(crate) struct Outbox {
    /// Tells issued so far and not yet handed to the queue, in program order.
    pub(crate) tells: Vec<RequestMessage>,
    /// Set when a round flushed mid-handler failed: the tells it carried
    /// are gone, so whatever the handler goes on to return, the invocation
    /// must not complete as `Ok`.
    pub(crate) failed: Option<KarError>,
    /// The actor's buffered state writes as they stood at the first write
    /// made while `tells` was non-empty (or `failed` set): what a failed
    /// round rolls them back to. Dropped when a round carrying the tells is
    /// acknowledged.
    pub(crate) guarded: Option<Savepoint>,
}

/// The context of one actor method invocation.
///
/// It identifies the actor instance and the request being executed, and gives
/// access to nested invocations ([`ActorContext::call_then`],
/// [`ActorContext::tell`], [`ActorContext::tail_call`]) and to the
/// persistence API ([`ActorContext::state`]).
pub struct ActorContext<'a> {
    core: &'a Arc<ComponentCore>,
    request: &'a RequestMessage,
    /// The state image of the actor running `request`, shared with its slot.
    image: &'a StateImage,
    outbox: RefCell<Outbox>,
}

impl<'a> ActorContext<'a> {
    /// The context of `request`'s handler, or of a continuation of it, over
    /// its actor's state `image`, starting from `outbox`: empty (it owns no allocation then — a handler
    /// that tells nobody pays nothing for it), or marked failed when the
    /// round of the nested call being resumed lost the handler's tells (see
    /// [`Outbox::failed`]).
    pub(crate) fn new(
        core: &'a Arc<ComponentCore>,
        request: &'a RequestMessage,
        image: &'a StateImage,
        outbox: Outbox,
    ) -> Self {
        ActorContext {
            core,
            request,
            image,
            outbox: RefCell::new(outbox),
        }
    }

    /// Ends the handler's use of this context, handing what is left in its
    /// outbox to the runtime.
    pub(crate) fn into_outbox(self) -> Outbox {
        self.outbox.into_inner()
    }

    /// A reference to the actor instance executing the current method.
    pub fn self_ref(&self) -> &ActorRef {
        &self.request.target
    }

    /// The id of the request being executed. Retries of the same logical
    /// invocation observe the same id.
    pub fn request_id(&self) -> RequestId {
        self.request.id
    }

    /// The component hosting this invocation.
    pub fn component_id(&self) -> ComponentId {
        self.core.id()
    }

    /// The method arguments of the request being executed.
    pub fn args(&self) -> &[Value] {
        &self.request.args
    }

    /// Failed attempts of this invocation's retry schedule so far (`0` on
    /// the initial attempt, or when no policy governs it). Because the
    /// schedule rides in the request record, the count is preserved across
    /// component failures and re-homing — chaos tests assert exactly that.
    pub fn retry_attempt(&self) -> u32 {
        self.request.retry.as_ref().map_or(0, |retry| retry.attempt)
    }

    /// Issues an asynchronous invocation of `target.method(args)`; errors
    /// raised by the callee are logged and discarded (§2).
    ///
    /// The request goes onto this invocation's **outbox** and `tell` returns
    /// at once. It is **durably enqueued when this handler returns** — for
    /// `Ok` and application `Err` alike, and when it returns a
    /// [`ActorContext::call_then`] to park on (the tells ride the same
    /// produce round, ahead of the nested request) — always *before* the
    /// handler's buffered state writes are flushed and before its completion
    /// is sent, so a caller that observes this invocation's result, and the
    /// invocation's own persisted state, never run ahead of its tells (§2,
    /// guarantee 3).
    /// All tells pending at such a point leave in one round: one sidecar
    /// hop and one durable ack however many actors, partitions or
    /// components they target, in program order per destination partition.
    ///
    /// If the round cannot be made durable the invocation does not complete
    /// as `Ok`: the state writes made after the lost tells are discarded,
    /// and it is retried like any failed invocation, re-issuing its tells
    /// under fresh request ids. An attempt killed mid-handler
    /// publishes none of its tells. (`Client::tell`, issued outside any
    /// invocation, is still durable when it returns.)
    ///
    /// # Errors
    ///
    /// Fails only if this component has already been killed.
    pub fn tell(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> KarResult<()> {
        let message = self.core.tell_message(target, method, args)?;
        self.outbox.borrow_mut().tells.push(message);
        Ok(())
    }

    /// Builds a parked nested call: `target.method(args)` is issued when the
    /// current method returns this outcome, and `then` resumes with the
    /// result when the response record arrives — without blocking a runtime
    /// thread in between.
    ///
    /// This is the paper's `await actor.call(...)`, the one way an invocation
    /// calls another and waits for it: the actor stays locked while parked
    /// (its mailbox queues behind the invocation, reentrant calls along the
    /// lineage still bypass it, §2.2), and a failure while parked retries
    /// the whole handler from the queue copy of the original request.
    /// In-memory state captured by `then` is lost on such a retry, like all
    /// in-memory actor state; durable state belongs in
    /// [`ActorContext::state`]. `then` receives the callee's result —
    /// application errors included — or the infrastructure error (`Timeout`,
    /// an unplaceable target) that kept the call from completing.
    pub fn call_then(
        &self,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        then: impl FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome>
            + Send
            + 'static,
    ) -> Outcome {
        Outcome::call_then(target.clone(), method, args, then)
    }

    /// [`ActorContext::call_then`] with an explicit [`RetryPolicy`] on the
    /// nested request (see [`Outcome::call_then_with_policy`]).
    pub fn call_then_with_policy(
        &self,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        policy: RetryPolicy,
        then: impl FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome>
            + Send
            + 'static,
    ) -> Outcome {
        Outcome::call_then_with_policy(target.clone(), method, args, policy, then)
    }

    /// Builds a tail-call outcome targeting another actor (or this one).
    ///
    /// Returning this outcome from [`crate::Actor::invoke`] atomically
    /// completes the current invocation while issuing the next one; the
    /// original caller receives the return value of the last call in the
    /// chain (§2.3).
    pub fn tail_call(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> Outcome {
        Outcome::tail_call(target.clone(), method, args)
    }

    /// Builds a tail-call outcome targeting this actor, which retains the
    /// actor lock across the transition (§2.3).
    pub fn tail_call_self(&self, method: &str, args: Vec<Value>) -> Outcome {
        Outcome::tail_call(self.request.target.clone(), method, args)
    }

    /// The `actor.state` persistence API for this actor instance (§2.1).
    pub fn state(&self) -> ActorState<'_> {
        ActorState {
            image: self.image,
            outbox: &self.outbox,
        }
    }
}

/// Store key of the persistent state hash of `actor`.
pub(crate) fn state_key(actor: &ActorRef) -> String {
    format!("state/{}/{}", actor.actor_type(), actor.actor_id())
}

/// The persistence API of one actor instance: a durable map of named values
/// backed by the store substrate.
///
/// KAR does not prescribe its use — actors are free to interface with any
/// external service — but state written here survives failures and is
/// typically reloaded in [`crate::Actor::activate`].
///
/// # Caching and crash consistency
///
/// Reads go through the resident actor's in-memory image of the state hash,
/// which the runtime loads before the handler runs and keeps until the actor
/// is passivated, and writes are buffered. The runtime flushes buffered
/// writes as **one** pipelined store round trip after the invocation's
/// outbox round and strictly *before* its response or tail-call continuation
/// is sent: by the time a caller observes a completion, the state it
/// acknowledged is durable — a component killed between the flush and the
/// response simply triggers the retry orchestration. No call below waits
/// for the store.
pub struct ActorState<'a> {
    image: &'a StateImage,
    /// The invocation's outbox: a write must not become durable ahead of
    /// the tells issued before it.
    outbox: &'a RefCell<Outbox>,
}

impl ActorState<'_> {
    /// Keeps a write from becoming durable ahead of the tells issued before
    /// it (outbox → state, never state first). The write is buffered and
    /// flushed behind the outbox round anyway, so the first write made while
    /// tells are pending — or a round of this invocation has failed — only
    /// takes a savepoint of the actor's buffered writes, for a failed round
    /// to roll back to.
    fn order_write_after_outbox(&self) {
        let mut outbox = self.outbox.borrow_mut();
        if (!outbox.tells.is_empty() || outbox.failed.is_some()) && outbox.guarded.is_none() {
            outbox.guarded = Some(self.image.savepoint());
        }
    }

    /// Reads one field of the actor's persistent state.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` once the actor's state met a store fence.
    pub fn get(&self, field: &str) -> KarResult<Option<Value>> {
        self.image.get(field)
    }

    /// Writes one field of the actor's persistent state, returning the
    /// previous value.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` once the actor's state met a store fence.
    pub fn set(&self, field: &str, value: Value) -> KarResult<Option<Value>> {
        self.order_write_after_outbox();
        self.image.set(field, value)
    }

    /// Writes several fields at once.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` once the actor's state met a store fence.
    pub fn set_multi(&self, entries: impl IntoIterator<Item = (String, Value)>) -> KarResult<()> {
        self.order_write_after_outbox();
        self.image.set_multi(entries)
    }

    /// Deletes one field, returning its previous value.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` once the actor's state met a store fence.
    pub fn remove(&self, field: &str) -> KarResult<Option<Value>> {
        self.order_write_after_outbox();
        self.image.remove(field)
    }

    /// Reads the whole persistent state of the actor.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` once the actor's state met a store fence.
    pub fn get_all(&self) -> KarResult<BTreeMap<String, Value>> {
        self.image.get_all()
    }

    /// Deletes the actor's entire persistent state (used when an actor
    /// instance reaches the end of its life cycle, e.g. an order delivered to
    /// its destination).
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` once the actor's state met a store fence.
    pub fn clear(&self) -> KarResult<bool> {
        self.order_write_after_outbox();
        self.image.clear_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_key_is_namespaced_per_actor() {
        assert_eq!(state_key(&ActorRef::new("Order", "o-1")), "state/Order/o-1");
        assert_ne!(
            state_key(&ActorRef::new("Order", "o-1")),
            state_key(&ActorRef::new("Order", "o-2"))
        );
    }
}
