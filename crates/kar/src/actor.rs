//! The actor programming model surface: the [`Actor`] trait and invocation
//! [`Outcome`]s.

use kar_types::{ActorRef, KarResult, RetryPolicy, Value};

use crate::context::ActorContext;
use crate::continuation::Continuation;

/// The result of an actor method invocation: a value (or error), a tail call
/// that atomically completes this invocation while issuing the next one
/// (§2.3), or a nested call whose continuation parks instead of blocking the
/// worker thread.
#[derive(Debug)]
pub enum Outcome {
    /// The method completed with a value; the caller (if any) receives it.
    Value(Value),
    /// The method completes by tail-calling another method. The eventual
    /// return value of the chain is what the original caller receives. A tail
    /// call to the same actor retains the actor lock.
    TailCall {
        /// The actor to tail call.
        target: ActorRef,
        /// The method to invoke.
        method: String,
        /// The invocation arguments.
        args: Vec<Value>,
    },
    /// The method issues a nested call and *parks* the rest of the handler
    /// as a continuation instead of blocking the worker: the runtime sends
    /// the nested request, frees the thread, and resumes `then` with the
    /// result when the response record arrives. The actor stays locked for
    /// the duration (its mailbox queues behind the parked invocation, nested
    /// calls along its lineage bypass it reentrantly), and a failure while
    /// parked is retried from the queue copy of the original request exactly
    /// like a killed in-flight invocation.
    CallThen {
        /// The actor to call.
        target: ActorRef,
        /// The method to invoke.
        method: String,
        /// The invocation arguments.
        args: Vec<Value>,
        /// An explicit retry policy for the nested request: its schedule
        /// rides in the request record, so it survives re-homing. `None`
        /// falls back to the callee type's configured default.
        policy: Option<RetryPolicy>,
        /// The rest of the handler, resumed with the nested result.
        then: Continuation,
    },
}

impl Outcome {
    /// A completed invocation returning `value`.
    pub fn value(value: impl Into<Value>) -> Outcome {
        Outcome::Value(value.into())
    }

    /// A tail call to `target.method(args)`.
    pub fn tail_call(target: ActorRef, method: impl Into<String>, args: Vec<Value>) -> Outcome {
        Outcome::TailCall {
            target,
            method: method.into(),
            args,
        }
    }

    /// A parked nested call to `target.method(args)`, resuming `then` with
    /// the result. See [`ActorContext::call_then`] for the ergonomic form.
    pub fn call_then(
        target: ActorRef,
        method: impl Into<String>,
        args: Vec<Value>,
        then: impl FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome>
            + Send
            + 'static,
    ) -> Outcome {
        Outcome::CallThen {
            target,
            method: method.into(),
            args,
            policy: None,
            then: Continuation::new(then),
        }
    }

    /// [`Outcome::call_then`] with an explicit [`RetryPolicy`] on the nested
    /// request: failed attempts are retried on the policy's schedule (which
    /// is persisted in the request record and survives re-homing) before
    /// `then` sees an error.
    pub fn call_then_with_policy(
        target: ActorRef,
        method: impl Into<String>,
        args: Vec<Value>,
        policy: RetryPolicy,
        then: impl FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome>
            + Send
            + 'static,
    ) -> Outcome {
        Outcome::CallThen {
            target,
            method: method.into(),
            args,
            policy: Some(policy),
            then: Continuation::new(then),
        }
    }

    /// True if this outcome is a tail call.
    pub fn is_tail_call(&self) -> bool {
        matches!(self, Outcome::TailCall { .. })
    }
}

// `PartialEq` is implemented by hand because a parked continuation (an
// arbitrary `FnOnce`) has no meaningful equality: two `CallThen` outcomes
// never compare equal, even to themselves.
impl PartialEq for Outcome {
    fn eq(&self, other: &Outcome) -> bool {
        match (self, other) {
            (Outcome::Value(a), Outcome::Value(b)) => a == b,
            (
                Outcome::TailCall {
                    target: t1,
                    method: m1,
                    args: a1,
                },
                Outcome::TailCall {
                    target: t2,
                    method: m2,
                    args: a2,
                },
            ) => t1 == t2 && m1 == m2 && a1 == a2,
            _ => false,
        }
    }
}

/// A KAR actor.
///
/// Actors are single threaded: the runtime serializes invocations of one
/// actor instance, except for reentrant invocations nested in the instance's
/// own call chain, which bypass the mailbox (§2.2). Actor in-memory state is
/// lost on failure; durable state should be written through
/// [`ActorContext::state`] or any external service of the application's
/// choosing (§2.1).
pub trait Actor: Send {
    /// Invoked when the instance is (re)created, before the first method
    /// invocation is delivered. The default implementation does nothing.
    ///
    /// # Errors
    ///
    /// Returning an error fails the triggering invocation; the runtime will
    /// retry it (recreating the instance) according to retry orchestration.
    fn activate(&mut self, ctx: &mut ActorContext<'_>) -> KarResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Invoked on graceful passivation or shutdown. Not invoked on failures
    /// (failures are abrupt). The default implementation does nothing.
    ///
    /// # Errors
    ///
    /// Errors are logged and otherwise ignored.
    fn deactivate(&mut self, ctx: &mut ActorContext<'_>) -> KarResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Handles one method invocation.
    ///
    /// # Errors
    ///
    /// Application errors are propagated to the caller of `actor.call` (§2);
    /// for `actor.tell` they are logged and discarded.
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome>;
}

/// A factory creating fresh instances of one actor type. Registered per
/// component via [`crate::ComponentBuilder::host`].
pub type ActorFactory = std::sync::Arc<dyn Fn() -> Box<dyn Actor> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_constructors() {
        let v = Outcome::value(3);
        assert_eq!(v, Outcome::Value(Value::Int(3)));
        assert!(!v.is_tail_call());
        let t = Outcome::tail_call(ActorRef::new("A", "1"), "m", vec![Value::Null]);
        assert!(t.is_tail_call());
        match t {
            Outcome::TailCall {
                target,
                method,
                args,
            } => {
                assert_eq!(target, ActorRef::new("A", "1"));
                assert_eq!(method, "m");
                assert_eq!(args, vec![Value::Null]);
            }
            _ => panic!("expected tail call"),
        }
    }

    #[test]
    fn call_then_outcomes_never_compare_equal() {
        let park = || {
            Outcome::call_then(ActorRef::new("A", "1"), "m", vec![], |_, input| {
                input.map(Outcome::Value)
            })
        };
        let a = park();
        assert!(!a.is_tail_call());
        assert!(
            a != park(),
            "continuations are opaque; CallThen equality is always false"
        );
        assert!(matches!(a, Outcome::CallThen { ref method, .. } if method == "m"));
    }
}
