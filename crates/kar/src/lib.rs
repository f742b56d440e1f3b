//! Reliable actors with retry orchestration.
//!
//! This crate is the core contribution of the reproduction: the KAR
//! programming model and its runtime system (§2 and §4 of the paper).
//!
//! # Programming model
//!
//! Applications are made of [`Actor`]s. Actor methods are invoked indirectly
//! through the runtime so invocation requests can be persisted and retried:
//!
//! * [`ActorContext::call_then`] — nested call, the paper's `await
//!   actor.call(...)`: the rest of the method is a continuation resumed with
//!   the result (reentrant along the call chain); there is no blocking form
//!   inside an invocation — only edge code blocks, in [`Client::call`],
//! * [`ActorContext::tell`] — asynchronous invocation,
//! * [`Outcome::tail_call`] — tail call: atomically completes the current
//!   method while issuing the next invocation; a tail call to the same actor
//!   retains the actor lock,
//! * [`ActorContext::state`] — the `actor.state` persistence API backed by
//!   the store substrate.
//!
//! # Runtime
//!
//! A [`Mesh`] hosts virtual nodes, each running application components
//! (paired application + runtime sidecar). Components announce the actor
//! types they host; the runtime places each actor instance in a compatible
//! component using a compare-and-swap on the store and caches placement
//! decisions. Every component owns a reliable queue; requests are appended to
//! the callee's queue and responses to the caller's queue. Failure detection,
//! consensus and reconciliation follow §4.2–4.3: heartbeats, fencing
//! (forceful disconnection), leader-driven cataloguing of unexpired messages,
//! re-homing of pending requests with happen-before annotations, and optional
//! cancellation of orphaned callees.
//!
//! # Example
//!
//! ```
//! use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
//! use kar_types::{ActorRef, KarResult, Value};
//!
//! struct Latch;
//!
//! impl Actor for Latch {
//!     fn invoke(&mut self, ctx: &mut ActorContext<'_>, method: &str, args: &[Value])
//!         -> KarResult<Outcome>
//!     {
//!         match method {
//!             "set" => {
//!                 ctx.state().set("v", args[0].clone())?;
//!                 Ok(Outcome::value(Value::Null))
//!             }
//!             "get" => Ok(Outcome::value(ctx.state().get("v")?.unwrap_or(Value::Null))),
//!             other => Err(kar_types::KarError::application(format!("no method {other}"))),
//!         }
//!     }
//! }
//!
//! let mesh = Mesh::new(MeshConfig::for_tests());
//! let node = mesh.add_node();
//! mesh.add_component(node, "server", |c| c.host("Latch", || Box::new(Latch)));
//! let client = mesh.client();
//! client.call(&ActorRef::new("Latch", "l"), "set", vec![Value::from(42)])?;
//! assert_eq!(client.call(&ActorRef::new("Latch", "l"), "get", vec![])?, Value::from(42));
//! mesh.shutdown();
//! # Ok::<(), kar_types::KarError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
mod aging;
pub mod client;
pub mod component;
pub mod config;
pub mod context;
pub mod continuation;
mod delivery;
pub mod faults;
mod io;
mod ledger;
pub mod mesh;
pub mod placement;
pub mod recovery;
mod resident;
pub mod retry;
mod settle;
mod state_cache;

pub use actor::{Actor, ActorFactory, Outcome};
pub use client::Client;
pub use config::{CancellationPolicy, CircuitBreakerConfig, MeshConfig};
pub use context::{ActorContext, ActorState};
pub use continuation::Continuation;
pub use faults::{BrownoutSpec, FaultCounters, FaultPlan, FaultSite, FaultSpec};
pub use mesh::{ComponentBuilder, Mesh};
pub use placement::PlacementCounters;
pub use recovery::{OutageRecord, RecoveryLog};
pub use retry::{BreakerPosition, DlqEntry, DlqStats, RetryMetrics};

pub use kar_types::{ActorRef, KarError, KarResult, Value};
pub use kar_types::{Backoff, RetryOn, RetryPolicy};
