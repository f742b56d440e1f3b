//! A Redis-like in-process persistent store.
//!
//! The KAR paper uses Redis for two purposes (§4.2):
//!
//! 1. persisting actor state through the `actor.state` API, stored as one
//!    hash per actor instance, and
//! 2. coordinating actor placement with a compare-and-swap operation.
//!
//! KAR additionally *requires* that a component deemed failed can be
//! **forcefully disconnected** from the store, so that no state update from a
//! failed actor can overlap with updates from its replacement (§1, §4.2).
//! This crate reproduces exactly that API surface:
//!
//! * [`Store`] — the store itself, which survives component failures,
//! * [`Connection`] — a fenced client session bound to a component and an
//!   [`Epoch`](kar_types::Epoch); bumping the component's epoch via
//!   [`Store::fence`] causes every outstanding connection of that component to
//!   fail with `KarError::Fenced` on its next operation,
//! * string keys, hashes (`hset`/`hget`/`hgetall`/`hdel`), `set_nx`,
//!   [`Connection::compare_and_swap`] for placement and
//!   [`Connection::compare_and_delete`] to release one,
//! * a configurable per-operation latency to emulate the deployments of
//!   Table 2 of the paper,
//! * a [`Pipeline`] command API ([`Connection::pipeline`],
//!   [`Store::admin_pipeline`]) batching several commands into a single
//!   round trip and fence check, applied with one lock acquisition per data
//!   shard touched.
//!
//! The data plane is sharded by key hash (see [`StoreConfig::shards`]) with
//! fencing epochs in their own shard-free table, so concurrent clients only
//! contend when they race on the same shard — never on one store-wide lock.
//!
//! # Example
//!
//! ```
//! use kar_store::Store;
//! use kar_types::{ComponentId, Value};
//!
//! let store = Store::new();
//! let conn = store.connect(ComponentId::from_raw(1));
//! conn.set("greeting", Value::from("hello"))?;
//! assert_eq!(conn.get("greeting")?, Some(Value::from("hello")));
//!
//! // Forcefully disconnect component 1: its connection is now rejected.
//! store.fence(ComponentId::from_raw(1));
//! assert!(conn.get("greeting").is_err());
//! # Ok::<(), kar_types::KarError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connection;
mod pipeline;
mod stats;
mod store;

pub use connection::Connection;
pub use pipeline::{Pipeline, PipelineResult};
pub use stats::StoreStats;
pub use store::{Store, StoreConfig, DEFAULT_STORE_SHARDS};
