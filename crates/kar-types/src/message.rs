//! Wire-level messages exchanged through the reliable queue substrate.
//!
//! The formal semantics (§3.2) models two message shapes: an invocation
//! request `i ↦r a.m(v)` and a response `i ↦r v`, where `i` is the request id
//! and `r` the optional return address (the caller's request id). The
//! implementation (§4.1, §4.3) additionally carries:
//!
//! * the *call kind* (blocking call, asynchronous tell, or tail call),
//! * the caller *lineage* (the stack of ancestor request ids) used to detect
//!   reentrant calls that must bypass the actor mailbox, and
//! * an optional *pending callee* id attached during reconciliation, which
//!   instructs the receiving sidecar to postpone the retry of the request
//!   until a response from that callee arrives (the happen-before guarantee).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::KarError;
use crate::ids::{ActorRef, ComponentId, RequestId};
use crate::value::Value;

/// The completion payload of an invocation: a value or a propagated error.
pub type Payload = Result<Value, KarError>;

/// How an invocation request was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CallKind {
    /// A blocking invocation (`actor.call`): the caller waits for the result.
    Call,
    /// An asynchronous invocation (`actor.tell`): no result is returned and
    /// errors are logged and discarded.
    Tell,
    /// A tail call (`actor.tailCall`): atomically completes the caller while
    /// issuing the next invocation, reusing the caller's request id and
    /// return address.
    TailCall,
}

impl CallKind {
    /// True for invocations whose completion produces a response message that
    /// some caller is waiting for.
    pub fn expects_response(self) -> bool {
        matches!(self, CallKind::Call | CallKind::TailCall)
    }
}

/// An invocation request message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestMessage {
    /// Unique id of this invocation. Retries and tail-call continuations
    /// reuse the id.
    pub id: RequestId,
    /// Return address: the request id of the blocked caller, if any.
    pub caller: Option<RequestId>,
    /// Target actor instance.
    pub target: ActorRef,
    /// Method to invoke on the target actor.
    pub method: String,
    /// Method arguments.
    pub args: Vec<Value>,
    /// How the invocation was issued.
    pub kind: CallKind,
    /// Request ids of every ancestor in the call stack, oldest first. Used to
    /// grant reentrant calls access to actors locked by an ancestor.
    pub lineage: Vec<RequestId>,
    /// When reconciliation re-enqueues a request that had a live nested call,
    /// this records the callee's id: the retry must wait for that callee's
    /// response first (happen-before, §4.3).
    pub pending_callee: Option<RequestId>,
    /// The actor the caller is running on, if the caller is itself an actor
    /// invocation. Responses to nested calls are routed to the component
    /// currently hosting this actor, which stays correct across failures and
    /// re-placements.
    pub caller_actor: Option<ActorRef>,
    /// The component whose queue should receive the response when the caller
    /// is not an actor (an external client); clients are never re-placed.
    pub reply_to: Option<ComponentId>,
    /// The retry-orchestration schedule of this invocation, if a
    /// [`RetryPolicy`](crate::RetryPolicy) governs it. Persisted in the
    /// request record so a re-homed invocation resumes its schedule
    /// (attempt count and next-fire deadline) instead of resetting it.
    /// Boxed: most requests carry no schedule, and the state would
    /// otherwise dominate the envelope size on every queue record.
    pub retry: Option<Box<crate::retry::RetryState>>,
    /// True while this record is provably the *only* record of its request
    /// id in any queue. Set solely by the runtime's issuing entry points at
    /// the moment of the first append; every re-append of the request — a
    /// forward, a tail-call successor, a retry copy, a reconciliation
    /// re-home — clears it. A response to a request executed from its only
    /// record may name that record as its [`ResponseMessage::origin`]; the
    /// default (`false`) merely forgoes that, so a site that forgets to set
    /// the mark is untrimmed, never unsound.
    pub single_copy: bool,
}

/// The queue coordinates of one record: which partition of the mesh topic
/// holds it, at which offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RecordOrigin {
    /// Partition of the mesh topic.
    pub partition: usize,
    /// Offset within the partition.
    pub offset: u64,
}

impl RequestMessage {
    /// Builds a root (external) blocking request with no caller.
    pub fn root(
        id: RequestId,
        target: ActorRef,
        method: impl Into<String>,
        args: Vec<Value>,
    ) -> Self {
        RequestMessage {
            id,
            caller: None,
            target,
            method: method.into(),
            args,
            kind: CallKind::Call,
            lineage: Vec::new(),
            pending_callee: None,
            caller_actor: None,
            reply_to: None,
            retry: None,
            single_copy: false,
        }
    }

    /// The full chain of request ids from the root of the call stack down to
    /// and including this request.
    pub fn chain(&self) -> Vec<RequestId> {
        let mut chain = self.lineage.clone();
        chain.push(self.id);
        chain
    }

    /// An approximation of the encoded size of this message in bytes.
    pub fn approximate_size(&self) -> usize {
        32 + self.method.len()
            + self.args.iter().map(Value::approximate_size).sum::<usize>()
            + self.lineage.len() * 8
            + self.target.qualified_name().len()
    }
}

/// A response message carrying the completion of a request back to its caller.
///
/// The payload is `Arc`-shared: the partition log's copy, the delivered
/// envelope, and the blocked caller's hand-off all reference one
/// materialized [`Payload`], so the response leg of a call copies the result
/// value at most once — when the blocked caller finally takes ownership at
/// the API boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseMessage {
    /// The request this response completes.
    pub id: RequestId,
    /// The request id of the caller waiting for this response, if any.
    pub caller: Option<RequestId>,
    /// The completion payload, shared across delivery and hand-off.
    pub result: Arc<Payload>,
    /// The component the response was addressed to (the request's
    /// `reply_to`). A component consuming a response with a *different*
    /// address knows it holds an adopted record of a failed caller, and can
    /// forward it to the caller actor's current host instead of silently
    /// recording it — the response-side mirror of request forwarding.
    pub reply_to: Option<ComponentId>,
    /// The actor whose invocation issued the request being answered, if any
    /// (the request's `caller_actor`). Adopters use it to resolve where the
    /// caller lives now.
    pub caller_actor: Option<ActorRef>,
    /// The one queue record the answered request was executed from, when
    /// that record was provably its only one
    /// ([`RequestMessage::single_copy`]). Once that partition's low
    /// watermark has passed the offset, no record of the request remains in
    /// any queue, so nothing — no retry, no reconciliation — can ever need
    /// this response again and its consumer may trim it. `None` means the
    /// response is only ever dropped by time retention.
    pub origin: Option<RecordOrigin>,
}

impl ResponseMessage {
    /// Builds a response from an already-materialized payload.
    pub fn new(id: RequestId, caller: Option<RequestId>, result: Payload) -> Self {
        ResponseMessage {
            id,
            caller,
            result: Arc::new(result),
            reply_to: None,
            caller_actor: None,
            origin: None,
        }
    }

    /// Attaches the routing information an adopter needs to re-forward this
    /// response if its addressee fails before consuming it.
    #[must_use]
    pub fn with_routing(
        mut self,
        reply_to: Option<ComponentId>,
        caller_actor: Option<ActorRef>,
    ) -> Self {
        self.reply_to = reply_to;
        self.caller_actor = caller_actor;
        self
    }

    /// Builds a successful response.
    pub fn ok(id: RequestId, caller: Option<RequestId>, value: Value) -> Self {
        ResponseMessage::new(id, caller, Ok(value))
    }

    /// Builds an error response.
    pub fn err(id: RequestId, caller: Option<RequestId>, error: KarError) -> Self {
        ResponseMessage::new(id, caller, Err(error))
    }
}

/// A message flowing through a component queue: either a request or a
/// response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Envelope {
    /// An invocation request.
    Request(RequestMessage),
    /// An invocation response.
    Response(ResponseMessage),
}

impl Envelope {
    /// The request id carried by this envelope.
    pub fn id(&self) -> RequestId {
        match self {
            Envelope::Request(r) => r.id,
            Envelope::Response(r) => r.id,
        }
    }

    /// Returns the request if this envelope is a request.
    pub fn as_request(&self) -> Option<&RequestMessage> {
        match self {
            Envelope::Request(r) => Some(r),
            Envelope::Response(_) => None,
        }
    }

    /// Returns the response if this envelope is a response.
    pub fn as_response(&self) -> Option<&ResponseMessage> {
        match self {
            Envelope::Response(r) => Some(r),
            Envelope::Request(_) => None,
        }
    }

    /// True if this envelope is a request.
    pub fn is_request(&self) -> bool {
        matches!(self, Envelope::Request(_))
    }

    /// An approximation of the encoded size of this envelope in bytes.
    pub fn approximate_size(&self) -> usize {
        match self {
            Envelope::Request(r) => r.approximate_size(),
            Envelope::Response(r) => {
                24 + match r.result.as_ref() {
                    Ok(v) => v.approximate_size(),
                    Err(e) => e.to_string().len(),
                }
            }
        }
    }
}

/// A request shared with the envelope it was delivered in — the one the
/// partition log keeps until the record is trimmed. Reading it copies
/// nothing; changing it ([`SharedRequest::make_mut`]) copies the envelope
/// only while another holder still shares it. What a runtime keeps of a
/// delivered request between admission and completion.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRequest(Arc<Envelope>);

impl SharedRequest {
    /// The request `envelope` carries, shared with it; a response envelope
    /// is handed back.
    ///
    /// # Errors
    ///
    /// `envelope` itself, when it carries a response.
    pub fn try_from_envelope(envelope: Arc<Envelope>) -> Result<Self, Arc<Envelope>> {
        if envelope.is_request() {
            Ok(SharedRequest(envelope))
        } else {
            Err(envelope)
        }
    }

    /// The request, for changing: copied first if another holder shares it.
    pub fn make_mut(&mut self) -> &mut RequestMessage {
        match Arc::make_mut(&mut self.0) {
            Envelope::Request(request) => request,
            Envelope::Response(_) => unreachable!("a shared request holds a request"),
        }
    }

    /// The request, owned: moved out if no other holder shares it, copied
    /// otherwise.
    pub fn into_owned(self) -> RequestMessage {
        match Arc::try_unwrap(self.0) {
            Ok(Envelope::Request(request)) => request,
            Ok(Envelope::Response(_)) => unreachable!("a shared request holds a request"),
            Err(shared) => RequestMessage::clone(&SharedRequest(shared)),
        }
    }
}

impl std::ops::Deref for SharedRequest {
    type Target = RequestMessage;

    fn deref(&self) -> &RequestMessage {
        match &*self.0 {
            Envelope::Request(request) => request,
            Envelope::Response(_) => unreachable!("a shared request holds a request"),
        }
    }
}

impl From<RequestMessage> for SharedRequest {
    fn from(request: RequestMessage) -> Self {
        SharedRequest(Arc::new(Envelope::Request(request)))
    }
}

impl From<RequestMessage> for Envelope {
    fn from(r: RequestMessage) -> Self {
        Envelope::Request(r)
    }
}

impl From<ResponseMessage> for Envelope {
    fn from(r: ResponseMessage) -> Self {
        Envelope::Response(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestMessage {
        RequestMessage::root(
            RequestId::from_raw(1),
            ActorRef::new("Latch", "l"),
            "set",
            vec![Value::from(42)],
        )
    }

    #[test]
    fn call_kind_response_expectations() {
        assert!(CallKind::Call.expects_response());
        assert!(CallKind::TailCall.expects_response());
        assert!(!CallKind::Tell.expects_response());
    }

    #[test]
    fn root_request_has_no_caller_or_lineage() {
        let r = sample_request();
        assert_eq!(r.caller, None);
        assert!(r.lineage.is_empty());
        assert_eq!(r.chain(), vec![RequestId::from_raw(1)]);
        assert_eq!(r.kind, CallKind::Call);
        assert_eq!(r.pending_callee, None);
        assert_eq!(r.caller_actor, None);
        assert_eq!(r.reply_to, None);
        assert_eq!(r.retry, None);
        assert!(!r.single_copy, "only the issuing entry points set the mark");
    }

    #[test]
    fn chain_appends_self_to_lineage() {
        let mut r = sample_request();
        r.lineage = vec![RequestId::from_raw(10), RequestId::from_raw(20)];
        assert_eq!(
            r.chain(),
            vec![
                RequestId::from_raw(10),
                RequestId::from_raw(20),
                RequestId::from_raw(1)
            ]
        );
    }

    #[test]
    fn envelope_accessors() {
        let req = Envelope::from(sample_request());
        assert!(req.is_request());
        assert_eq!(req.id(), RequestId::from_raw(1));
        assert!(req.as_request().is_some());
        assert!(req.as_response().is_none());

        let resp = Envelope::from(ResponseMessage::ok(
            RequestId::from_raw(2),
            Some(RequestId::from_raw(1)),
            Value::from("OK"),
        ));
        assert!(!resp.is_request());
        assert_eq!(resp.id(), RequestId::from_raw(2));
        assert!(resp.as_response().is_some());
        assert!(resp.as_request().is_none());
    }

    #[test]
    fn response_constructors() {
        let ok = ResponseMessage::ok(RequestId::from_raw(1), None, Value::Null);
        assert_eq!(*ok.result, Ok(Value::Null));
        assert_eq!(ok.origin, None, "no origin means never trimmed early");
        let err = ResponseMessage::err(RequestId::from_raw(1), None, KarError::application("bad"));
        assert!(err.result.is_err());
    }

    #[test]
    fn response_clones_share_one_payload() {
        let response = ResponseMessage::ok(RequestId::from_raw(1), None, Value::from("big"));
        let delivered = response.clone();
        let handed_off = Arc::clone(&delivered.result);
        assert!(
            Arc::ptr_eq(&response.result, &delivered.result),
            "cloning a response must share its payload, not deep-copy it"
        );
        assert!(Arc::ptr_eq(&response.result, &handed_off));
    }

    #[test]
    fn a_shared_request_copies_only_when_changed_while_shared() {
        let log_copy = Arc::new(Envelope::from(sample_request()));
        let mut shared = SharedRequest::try_from_envelope(Arc::clone(&log_copy)).unwrap();
        assert!(
            std::ptr::eq(&*shared, log_copy.as_request().unwrap()),
            "no copy to read"
        );
        shared.make_mut().pending_callee = Some(RequestId::from_raw(9));
        assert_eq!(
            log_copy.as_request().unwrap().pending_callee,
            None,
            "the log keeps its copy"
        );
        assert_eq!(shared.pending_callee, Some(RequestId::from_raw(9)));
        let unshared = SharedRequest::from(sample_request());
        assert_eq!(unshared.into_owned(), sample_request());
        let response = Arc::new(Envelope::from(ResponseMessage::ok(
            RequestId::from_raw(2),
            None,
            Value::Null,
        )));
        assert!(SharedRequest::try_from_envelope(response).is_err());
    }

    #[test]
    fn sizes_scale_with_payload() {
        let small = Envelope::from(sample_request());
        let mut big_req = sample_request();
        big_req.args = vec![Value::from("x".repeat(1000))];
        let big = Envelope::from(big_req);
        assert!(big.approximate_size() > small.approximate_size() + 900);
        let resp = Envelope::from(ResponseMessage::ok(
            RequestId::from_raw(1),
            None,
            Value::Null,
        ));
        assert!(resp.approximate_size() >= 24);
        let err_resp = Envelope::from(ResponseMessage::err(
            RequestId::from_raw(1),
            None,
            KarError::application("some error message"),
        ));
        assert!(err_resp.approximate_size() > 24);
    }
}
