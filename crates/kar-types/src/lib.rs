//! Shared foundation types for the KAR reliable-actors reproduction.
//!
//! This crate holds the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`ids`] — strongly typed identifiers for actors, requests, components and
//!   nodes.
//! * [`value`] — the self-describing [`Value`] data model used for actor
//!   method arguments, results and persisted state.
//! * [`message`] — the wire-level request/response messages exchanged through
//!   the reliable queue substrate.
//! * [`error`] — the [`KarError`] error type shared across the workspace.
//! * [`fault`] — the seeded gray-failure injection plane: [`FaultPlan`]
//!   specs and the [`FaultInjector`] the store and broker consult for
//!   transient errors, lost acks, latency spikes and brownout windows.
//! * [`retry`] — the retry-orchestration policy surface: [`RetryPolicy`]
//!   backoff shapes and the [`RetryState`] schedule persisted inside
//!   request records.
//! * [`time`] — wall-clock/scaled clocks and the latency profiles used to
//!   emulate the paper's three deployment configurations.
//! * [`sync`] — the shared [`WaitSignal`] event-counter/condvar primitive
//!   and the [`WaitSignalGroup`] multi-source variant consumers park on
//!   (the "poll_wait idiom" used by the broker and the runtime), and the
//!   [`SnapshotVec`] copy-on-write list the reactor sweep walks.
//!
//! # Example
//!
//! ```
//! use kar_types::{ActorRef, Value};
//!
//! let latch = ActorRef::new("Latch", "myInstance");
//! assert_eq!(latch.actor_type(), "Latch");
//! let v = Value::from(42);
//! assert_eq!(v.as_i64(), Some(42));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod ids;
pub mod message;
pub mod retry;
pub mod sim;
pub mod sync;
pub mod time;
pub mod value;

pub use error::{KarError, KarResult};
pub use fault::{
    BrownoutSpec, ClockSkewSpec, FaultCounters, FaultDecision, FaultGate, FaultInjector, FaultPlan,
    FaultPlane, FaultSite, FaultSpec, SiteCounters,
};
pub use ids::{ActorId, ActorRef, ActorType, ComponentId, Epoch, NodeId, RequestId};
pub use message::{
    CallKind, Envelope, Payload, RecordOrigin, RequestMessage, ResponseMessage, SharedRequest,
};
pub use retry::{epoch_ms, Backoff, RetryOn, RetryPolicy, RetryState, RetryVerdict};
pub use sim::SimScheduler;
pub use sync::{SnapshotVec, WaitSignal, WaitSignalGroup};
pub use time::{
    clear_virtual_clock, install_virtual_clock, mono_now, pace_sleep, pace_until, virtual_clock,
    virtual_time_active, Clock, Completion, DeploymentProfile, LatencyProfile, ScaledClock,
    SystemClock, TimeScale, VirtualClock, SPIN_MARGIN,
};
pub use value::Value;
