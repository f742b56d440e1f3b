//! The store proper: sharded shared data, fencing epochs, and administration.
//!
//! # Lock granularity
//!
//! The state plane mirrors the message plane's PR-2 overhaul: there is **no
//! store-wide lock on the command hot path**.
//!
//! * Keys (strings *and* hashes) hash onto [`StoreConfig::shards`] shards,
//!   each behind its own mutex, so commands touching distinct shards never
//!   serialize; the per-shard critical section is a map operation plus
//!   clones of inline scalars or of `Arc` pointers — [`Value`] trees are
//!   materialized strictly *outside* the shard lock, so a large actor state
//!   never stalls its shard.
//! * The configured [`StoreConfig::op_latency`] (emulating the network and
//!   server-side cost of a Redis command) is never slept inside the store:
//!   a round trip is **applied when it is submitted** and its
//!   acknowledgement is *due* one latency later ([`kar_types::Completion`]).
//!   Blocking commands wait for that instant, strictly outside any data
//!   lock, so concurrent clients overlap their round trips; the runtime's
//!   state flush parks on it instead
//!   ([`Connection::submit_hset_multi`](crate::Connection),
//!   [`Pipeline::submit`](crate::Pipeline)).
//! * Fencing epochs live in their own shard-free table behind a `RwLock`
//!   whose *read* guard is held across each command's data section: checking
//!   in never crosses data shards, commands from distinct components never
//!   contend on it, and a [`Store::fence`] (write lock) is atomic with
//!   respect to every in-flight command and [`Pipeline`](crate::Pipeline)
//!   flush — a fenced component's half-applied batch cannot interleave with
//!   its replacement.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

use kar_types::{
    Completion, ComponentId, Epoch, FaultGate, FaultInjector, FaultPlane, FaultSite, KarError,
    KarResult, Value,
};

use crate::connection::Connection;
use crate::pipeline::Pipeline;
use crate::stats::StoreStats;

/// Default number of data shards of a [`Store`].
pub const DEFAULT_STORE_SHARDS: usize = 16;

/// Configuration of a [`Store`].
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Latency of every store round trip (emulating the network and
    /// server-side cost of a Redis command): the operation is applied at
    /// submit and acknowledged `op_latency` later. A [`Pipeline`] flush pays
    /// this once for the whole batch.
    pub op_latency: Duration,
    /// Number of data shards keys hash onto. `0` selects
    /// [`DEFAULT_STORE_SHARDS`].
    pub shards: usize,
    /// Optional gray-failure injector consulted by fenced commands, pipeline
    /// flushes, and *checked* admin operations (see
    /// [`kar_types::FaultPlan`]). `None` — the default — keeps the store
    /// infallible at zero hot-path cost beyond one `Option` check.
    pub faults: Option<Arc<FaultInjector>>,
}

impl StoreConfig {
    /// A configuration with the given per-operation latency.
    pub fn with_op_latency(op_latency: Duration) -> Self {
        StoreConfig {
            op_latency,
            ..StoreConfig::default()
        }
    }

    /// The effective shard count (`0` maps to [`DEFAULT_STORE_SHARDS`],
    /// never below 1).
    pub fn effective_shards(&self) -> usize {
        match self.shards {
            0 => DEFAULT_STORE_SHARDS,
            n => n,
        }
    }
}

/// One data shard: the slice of string keys and hash keys that hash here.
/// Keys are boxed strings (no spare capacity, 16 B a slot) and values are
/// [`Stored`]: a read clones a scalar or a tree pointer under the lock and
/// materializes the tree outside it.
#[derive(Debug, Default)]
pub(crate) struct ShardData {
    /// Plain string keys.
    pub(crate) strings: HashMap<Box<str>, Stored>,
    /// Hash keys (one hash per actor instance in the KAR runtime).
    pub(crate) hashes: HashMap<Box<str>, Fields>,
}

/// One stored value. A scalar — what placement records and most actor
/// state hold — sits inline in its map slot, so storing it allocates
/// nothing beyond a string's bytes; a list or a map stays `Arc`-shared, so
/// the shard lock only ever clones a pointer to a tree and no tree is
/// materialized under it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stored {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Box<str>),
    Tree(Arc<Value>),
}

impl From<Value> for Stored {
    fn from(value: Value) -> Self {
        match value {
            Value::Null => Stored::Null,
            Value::Bool(b) => Stored::Bool(b),
            Value::Int(i) => Stored::Int(i),
            Value::Float(f) => Stored::Float(f),
            Value::Str(s) => Stored::Str(s.into_boxed_str()),
            tree @ (Value::List(_) | Value::Map(_)) => Stored::Tree(Arc::new(tree)),
        }
    }
}

impl Stored {
    /// The owned value. A tree is cloned only while the store still shares
    /// it (it usually does), so call this strictly outside any shard lock.
    pub(crate) fn into_value(self) -> Value {
        match self {
            Stored::Null => Value::Null,
            Stored::Bool(b) => Value::Bool(b),
            Stored::Int(i) => Value::Int(i),
            Stored::Float(f) => Value::Float(f),
            Stored::Str(s) => Value::Str(s.into_string()),
            Stored::Tree(tree) => Arc::try_unwrap(tree).unwrap_or_else(|shared| (*shared).clone()),
        }
    }

    /// True if this holds a value equal to `value` — a compare-and-swap's
    /// test, made under the shard lock without materializing anything.
    pub(crate) fn matches(&self, value: &Value) -> bool {
        match (self, value) {
            (Stored::Null, Value::Null) => true,
            (Stored::Bool(a), Value::Bool(b)) => a == b,
            (Stored::Int(a), Value::Int(b)) => a == b,
            (Stored::Float(a), Value::Float(b)) => a == b,
            (Stored::Str(a), Value::Str(b)) => **a == **b,
            (Stored::Tree(tree), value) => **tree == *value,
            _ => false,
        }
    }
}

/// True if a key currently holding `current` holds `expected` (`None` on
/// both sides: absent).
pub(crate) fn holds(current: Option<&Stored>, expected: Option<&Value>) -> bool {
    match (current, expected) {
        (None, None) => true,
        (Some(current), Some(expected)) => current.matches(expected),
        _ => false,
    }
}

/// A compare-and-delete's data step, under the shard lock: removes `key`
/// only while it holds exactly `expected`. True if it did.
pub(crate) fn delete_if_holds(data: &mut ShardData, key: &str, expected: &Value) -> bool {
    let held = data
        .strings
        .get(key)
        .is_some_and(|current| current.matches(expected));
    if held {
        data.strings.remove(key);
    }
    held
}

/// The fields of one hash, sorted by field name. Most hashes are an actor's
/// state with a single field, where a `BTreeMap` would allocate a whole
/// 11-slot leaf (~380 B) per actor: that field is stored inline, so the
/// hash allocates nothing beyond its field name. A second field moves them
/// all to a boxed slice searched by binary search, which carries no spare
/// capacity: adding or removing a field reallocates it, which costs what the
/// shift of a sorted vector costs anyway.
#[derive(Debug, Clone)]
pub(crate) enum Fields {
    One(Box<str>, Stored),
    Many(Box<[(Box<str>, Stored)]>),
}

impl Default for Fields {
    /// An empty hash.
    fn default() -> Self {
        Fields::Many(Box::default())
    }
}

impl Fields {
    /// The value of `field`, if set.
    pub(crate) fn get(&self, field: &str) -> Option<&Stored> {
        match self {
            Fields::One(name, value) => (**name == *field).then_some(value),
            Fields::Many(fields) => fields
                .binary_search_by(|(name, _)| (**name).cmp(field))
                .ok()
                .map(|index| &fields[index].1),
        }
    }

    /// Sets `field`, returning its previous value.
    pub(crate) fn insert(&mut self, field: String, value: Stored) -> Option<Stored> {
        match self {
            Fields::One(name, current) if **name == *field => {
                return Some(std::mem::replace(current, value))
            }
            Fields::Many(fields) if fields.is_empty() => {
                *self = Fields::One(field.into(), value);
                return None;
            }
            _ => {}
        }
        let mut fields = match std::mem::take(self) {
            Fields::One(name, current) => vec![(name, current)],
            Fields::Many(fields) => fields.into_vec(),
        };
        let previous = match fields.binary_search_by(|(name, _)| (**name).cmp(&field)) {
            Ok(index) => Some(std::mem::replace(&mut fields[index].1, value)),
            Err(index) => {
                fields.reserve_exact(1);
                fields.insert(index, (field.into(), value));
                None
            }
        };
        *self = Fields::Many(fields.into_boxed_slice());
        previous
    }

    /// Removes `field`, returning its value.
    pub(crate) fn remove(&mut self, field: &str) -> Option<Stored> {
        self.get(field)?;
        let mut fields = match std::mem::take(self) {
            Fields::One(_, value) => return Some(value),
            Fields::Many(fields) => fields.into_vec(),
        };
        let index = fields
            .binary_search_by(|(name, _)| (**name).cmp(field))
            .ok()?;
        let (_, removed) = fields.remove(index);
        *self = Fields::Many(fields.into_boxed_slice());
        Some(removed)
    }

    /// Sets every entry in order (a later duplicate field wins).
    pub(crate) fn extend(&mut self, entries: Vec<(String, Stored)>) {
        for (field, value) in entries {
            self.insert(field, value);
        }
    }
}

/// Operation counters, all atomic so no command path locks to count.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) cas: AtomicU64,
    pub(crate) round_trips: AtomicU64,
    pub(crate) pipeline_flushes: AtomicU64,
    pub(crate) pipeline_ops: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            cas: self.cas.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            pipeline_flushes: self.pipeline_flushes.load(Ordering::Relaxed),
            pipeline_ops: self.pipeline_ops.load(Ordering::Relaxed),
        }
    }
}

/// A Redis-like key/value + hash store shared by every component of an
/// application.
///
/// Cloning a `Store` produces another handle to the same underlying data
/// (like connecting to the same Redis deployment twice).
///
/// By default the store never fails: the paper's fault model (§3.3) assumes
/// message queues and data stores survive the (non catastrophic) failures
/// under study. With [`StoreConfig::faults`] set, fenced commands, pipeline
/// flushes and checked admin operations are additionally subject to the
/// plan's gray failures — transient errors, latency spikes, shard brownouts,
/// and ack-lost operations that **apply** but report failure. The unchecked
/// `admin_*` accessors always stay fault-free: they are the harness's ground
/// truth for what actually got stored.
#[derive(Debug, Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

#[derive(Debug)]
pub(crate) struct StoreInner {
    pub(crate) config: StoreConfig,
    /// The sharded data plane: keys hash onto exactly one shard.
    pub(crate) shards: Vec<Mutex<ShardData>>,
    /// Contended acquisitions per shard (a `try_lock` that had to fall back
    /// to a blocking `lock`). The imbalance/contention signal benchmarks and
    /// `Mesh::debug_report` surface.
    pub(crate) contention: Vec<AtomicU64>,
    /// Highest epoch each component is still allowed to use, in its own
    /// shard-free table so checking in never crosses data shards. The *read*
    /// guard is held across every command's data section, which makes
    /// [`Store::fence`] (the write path) atomic with respect to in-flight
    /// commands and pipeline flushes.
    pub(crate) epochs: RwLock<HashMap<ComponentId, Epoch>>,
    pub(crate) stats: StatCounters,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// Creates an empty store with zero added latency.
    pub fn new() -> Self {
        Store::with_config(StoreConfig::default())
    }

    /// Creates an empty store with the given configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        let shards = config.effective_shards();
        Store {
            inner: Arc::new(StoreInner {
                config,
                shards: (0..shards)
                    .map(|_| Mutex::new(ShardData::default()))
                    .collect(),
                contention: (0..shards).map(|_| AtomicU64::new(0)).collect(),
                epochs: RwLock::new(HashMap::new()),
                stats: StatCounters::default(),
            }),
        }
    }

    /// Opens a client connection on behalf of `component`.
    ///
    /// The connection is bound to the component's current epoch: if the
    /// component is later [fenced](Store::fence), the connection starts
    /// failing with `KarError::Fenced`.
    pub fn connect(&self, component: ComponentId) -> Connection {
        let epoch = self
            .inner
            .epochs
            .read()
            .get(&component)
            .copied()
            .unwrap_or(Epoch::ZERO);
        Connection::new(self.inner.clone(), component, epoch)
    }

    /// Forcefully disconnects `component`: every connection it opened before
    /// this call is rejected from now on.
    ///
    /// This implements the paper's *forceful disconnection* requirement: once
    /// a component is deemed failed, none of its in-flight store operations
    /// can be applied, so the state updates of a failed actor cannot overlap
    /// with those of its replacement (§4.2). The epoch table's write lock
    /// waits out every in-flight command and pipeline flush, so the fence is
    /// atomic: a batch is applied entirely before the fence or rejected
    /// entirely after it, never half of each.
    ///
    /// Returns the new epoch the component must reconnect with.
    pub fn fence(&self, component: ComponentId) -> Epoch {
        let mut epochs = self.inner.epochs.write();
        let entry = epochs.entry(component).or_insert(Epoch::ZERO);
        *entry = entry.next();
        *entry
    }

    /// The epoch currently allowed for `component`.
    pub fn current_epoch(&self, component: ComponentId) -> Epoch {
        self.inner
            .epochs
            .read()
            .get(&component)
            .copied()
            .unwrap_or(Epoch::ZERO)
    }

    /// A snapshot of the operation counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.stats.snapshot()
    }

    /// Number of data shards of this store.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard `key` hashes onto (stable for the store's lifetime). Exposed
    /// for benchmarks and tests that construct shard-local or cross-shard
    /// workloads deliberately.
    pub fn shard_of_key(&self, key: &str) -> usize {
        self.inner.shard_of(key)
    }

    /// Contended lock acquisitions per shard since creation (an acquisition
    /// counts as contended when the lock was not immediately available).
    pub fn shard_contention(&self) -> Vec<u64> {
        self.inner
            .contention
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of string keys plus hash keys currently stored.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| {
                let data = shard.lock();
                data.strings.len() + data.hashes.len()
            })
            .sum()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every key (both strings and hashes). Fencing epochs and
    /// statistics are preserved. Intended for test harnesses.
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            let mut data = shard.lock();
            data.strings.clear();
            data.hashes.clear();
        }
    }

    /// Administrative (unfenced, latency-free) read of a string key, used by
    /// test harnesses and invariant checkers that are not part of the
    /// application.
    pub fn admin_get(&self, key: &str) -> Option<Value> {
        let stored = self.inner.lock_shard_of(key).strings.get(key).cloned();
        stored.map(Stored::into_value)
    }

    /// Administrative (unfenced) read of a whole hash.
    pub fn admin_hgetall(&self, key: &str) -> BTreeMap<String, Value> {
        let snapshot = self.inner.lock_shard_of(key).hashes.get(key).cloned();
        snapshot.map(materialize_hash).unwrap_or_default()
    }

    /// Administrative (unfenced, fault-free) write of one hash field.
    /// Returns the field's previous value if any. Used by the mesh to
    /// announce a new component's actor types.
    pub fn admin_hset(&self, key: &str, field: &str, value: Value) -> Option<Value> {
        let value = Stored::from(value);
        let previous = self
            .inner
            .lock_shard_of(key)
            .hashes
            .entry(key.into())
            .or_default()
            .insert(field.to_owned(), value);
        previous.map(Stored::into_value)
    }

    /// Administrative list of string keys starting with `prefix` (walks every
    /// shard; not a hot-path operation).
    pub fn admin_keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let mut keys = Vec::new();
        for shard in &self.inner.shards {
            keys.extend(
                shard
                    .lock()
                    .strings
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .map(|k| k.to_string()),
            );
        }
        keys.sort();
        keys
    }

    /// Administrative list of hash keys starting with `prefix`, sorted
    /// (walks every shard; not a hot-path operation).
    pub fn admin_hash_keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let mut keys = Vec::new();
        for shard in &self.inner.shards {
            keys.extend(
                shard
                    .lock()
                    .hashes
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .map(|k| k.to_string()),
            );
        }
        keys.sort();
        keys
    }

    /// Administrative removal of a string key, bypassing fencing. Returns the
    /// previous value if any. Used by the runtime's reconciliation leader,
    /// which operates on behalf of the surviving application as a whole
    /// rather than a single (fence-able) component.
    pub fn admin_del(&self, key: &str) -> Option<Value> {
        let previous = self.inner.lock_shard_of(key).strings.remove(key);
        previous.map(Stored::into_value)
    }

    /// Administrative write of a string key, bypassing fencing. Returns the
    /// previous value if any. Used by reconciliation to rewrite placement
    /// decisions for actors hosted by failed components.
    pub fn admin_set(&self, key: &str, value: Value) -> Option<Value> {
        let value = Stored::from(value);
        let previous = self
            .inner
            .lock_shard_of(key)
            .strings
            .insert(key.into(), value);
        previous.map(Stored::into_value)
    }

    /// Administrative compare-and-delete: removes `key` only while it still
    /// holds exactly `expected`, bypassing fencing. Returns true if the
    /// delete happened. This is the primitive lease-takeover protocols need:
    /// deleting a stale claim unconditionally would also delete a *fresh*
    /// claim planted by a racing reclaimer between the read and the delete.
    pub fn admin_del_if_eq(&self, key: &str, expected: &Value) -> bool {
        delete_if_holds(&mut self.inner.lock_shard_of(key), key, expected)
    }

    /// Administrative write of a string key only if it is absent, bypassing
    /// fencing. Returns true if the write happened.
    pub fn admin_set_nx(&self, key: &str, value: Value) -> bool {
        let mut shard = self.inner.lock_shard_of(key);
        if shard.strings.contains_key(key) {
            return false;
        }
        shard.strings.insert(key.into(), Stored::from(value));
        true
    }

    /// [`Store::admin_get`] through the fault injector's `StoreAdmin` site:
    /// the variant the *runtime* uses for DLQ and recovery bookkeeping, so
    /// injected gray failures exercise those paths. For a read, an ack-lost
    /// decision simply drops the response.
    ///
    /// # Errors
    ///
    /// Fails with an injected transient [`KarError::Store`] error.
    pub fn admin_get_checked(&self, key: &str) -> KarResult<Option<Value>> {
        let gate = self
            .inner
            .fault_gate(FaultSite::StoreAdmin, self.inner.shard_of(key))?;
        let value = self.admin_get(key);
        StoreInner::complete(None, gate, FaultSite::StoreAdmin, value).wait()
    }

    /// [`Store::admin_set`] through the fault injector's `StoreAdmin` site.
    /// Under an ack-lost decision the write **applies** and failure is
    /// reported anyway.
    ///
    /// # Errors
    ///
    /// Fails with an injected transient [`KarError::Store`] error (nothing
    /// applied) or an injected ack loss (applied).
    pub fn admin_set_checked(&self, key: &str, value: Value) -> KarResult<Option<Value>> {
        let gate = self
            .inner
            .fault_gate(FaultSite::StoreAdmin, self.inner.shard_of(key))?;
        let previous = self.admin_set(key, value);
        StoreInner::complete(None, gate, FaultSite::StoreAdmin, previous).wait()
    }

    /// [`Store::admin_del`] through the fault injector's `StoreAdmin` site.
    /// Under an ack-lost decision the delete **applies** — and the deleted
    /// value is lost with the ack, which is exactly why delete-as-claim
    /// protocols need a separate claim marker.
    ///
    /// # Errors
    ///
    /// Fails with an injected transient [`KarError::Store`] error (nothing
    /// applied) or an injected ack loss (applied).
    pub fn admin_del_checked(&self, key: &str) -> KarResult<Option<Value>> {
        let gate = self
            .inner
            .fault_gate(FaultSite::StoreAdmin, self.inner.shard_of(key))?;
        let previous = self.admin_del(key);
        StoreInner::complete(None, gate, FaultSite::StoreAdmin, previous).wait()
    }

    /// [`Store::admin_set_nx`] through the fault injector's `StoreAdmin`
    /// site. Because set-if-absent is the one admin write that is *not*
    /// idempotent-by-overwrite, a retry loop around it must resolve an
    /// indeterminate ack by reading the key back and comparing tokens.
    ///
    /// # Errors
    ///
    /// Fails with an injected transient [`KarError::Store`] error (nothing
    /// applied) or an injected ack loss (applied).
    pub fn admin_set_nx_checked(&self, key: &str, value: Value) -> KarResult<bool> {
        let gate = self
            .inner
            .fault_gate(FaultSite::StoreAdmin, self.inner.shard_of(key))?;
        let inserted = self.admin_set_nx(key, value);
        StoreInner::complete(None, gate, FaultSite::StoreAdmin, inserted).wait()
    }

    /// [`Store::admin_del_if_eq`] through the fault injector's `StoreAdmin`
    /// site. Under an ack-lost decision the conditional delete **applies**
    /// and failure is reported anyway; a replay then observes the key absent
    /// (or re-claimed) and reports `false`, which callers must treat as
    /// "someone else owns the takeover now" — never as proof the old value
    /// survived.
    ///
    /// # Errors
    ///
    /// Fails with an injected transient [`KarError::Store`] error (nothing
    /// applied) or an injected ack loss (applied).
    pub fn admin_del_if_eq_checked(&self, key: &str, expected: &Value) -> KarResult<bool> {
        let gate = self
            .inner
            .fault_gate(FaultSite::StoreAdmin, self.inner.shard_of(key))?;
        let deleted = self.admin_del_if_eq(key, expected);
        StoreInner::complete(None, gate, FaultSite::StoreAdmin, deleted).wait()
    }

    /// An administrative (unfenced, latency-free) [`Pipeline`]: commands are
    /// buffered and applied in one per-shard grouped flush. Used by the
    /// reconciliation leader to batch placement rewrites and invalidations
    /// instead of taking one lock per key.
    pub fn admin_pipeline(&self) -> Pipeline {
        Pipeline::new_admin(self.inner.clone())
    }
}

/// Materializes a hash snapshot into owned values, outside any shard lock.
pub(crate) fn materialize_hash(snapshot: Fields) -> BTreeMap<String, Value> {
    let owned = |(field, value): (Box<str>, Stored)| (field.into_string(), value.into_value());
    match snapshot {
        Fields::One(field, value) => BTreeMap::from([owned((field, value))]),
        Fields::Many(fields) => fields.into_vec().into_iter().map(owned).collect(),
    }
}

impl StoreInner {
    /// The shard `key` hashes onto.
    pub(crate) fn shard_of(&self, key: &str) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Locks one shard, counting the acquisition as contended if it was not
    /// immediately available.
    pub(crate) fn lock_shard(&self, index: usize) -> MutexGuard<'_, ShardData> {
        match self.shards[index].try_lock() {
            Some(guard) => guard,
            None => {
                self.contention[index].fetch_add(1, Ordering::Relaxed);
                self.shards[index].lock()
            }
        }
    }

    /// Locks the shard of `key`.
    pub(crate) fn lock_shard_of(&self, key: &str) -> MutexGuard<'_, ShardData> {
        self.lock_shard(self.shard_of(key))
    }

    /// Begins one store round trip — a single command or a whole pipeline
    /// flush: counts it and returns when its acknowledgement is due, one
    /// operation latency from now (`None` when no latency is modelled: the
    /// zero-latency path never reads the clock). The operation itself is
    /// applied by the caller right away; only the acknowledgement takes time.
    pub(crate) fn begin_round_trip(&self) -> Option<Duration> {
        self.stats.round_trips.fetch_add(1, Ordering::Relaxed);
        (!self.config.op_latency.is_zero()).then(|| kar_types::mono_now() + self.config.op_latency)
    }

    /// The completion of an applied operation whose round trip (if it models
    /// one) was begun at `trip`: due then — an injected latency spike later
    /// — carrying `value`, unless the gate chose to lose the ack.
    pub(crate) fn complete<T>(
        trip: Option<Duration>,
        gate: FaultGate,
        site: FaultSite,
        value: T,
    ) -> Completion<T> {
        let due = if gate.delay.is_zero() {
            trip
        } else {
            Some(trip.unwrap_or_else(kar_types::mono_now) + gate.delay)
        };
        Completion {
            due,
            result: if gate.ack_lost {
                Err(Self::ack_lost_error(site))
            } else {
                Ok(value)
            },
        }
    }

    /// Verifies that `component` has not been fenced past `epoch`, returning
    /// the epoch-table read guard on success. Callers hold the guard across
    /// their data section so a concurrent fence cannot interleave with a
    /// half-applied command or batch.
    pub(crate) fn fence_guard(
        &self,
        component: ComponentId,
        epoch: Epoch,
    ) -> KarResult<RwLockReadGuard<'_, HashMap<ComponentId, Epoch>>> {
        let guard = self.epochs.read();
        let allowed = guard.get(&component).copied().unwrap_or(Epoch::ZERO);
        if epoch < allowed {
            return Err(KarError::Fenced {
                component,
                detail: format!("store connection at {epoch} but component fenced to {allowed}"),
            });
        }
        Ok(guard)
    }

    /// Consults the fault injector (if any) for one operation at `site` on
    /// shard `lane`, before anything is applied. The default gate proceeds
    /// normally; an ack-lost gate means apply the operation fully **and then
    /// report failure**; a latency gate adds its delay to the operation's
    /// due time; the injected transient error means the caller must not
    /// apply anything. With no injector this is one `Option` check.
    pub(crate) fn fault_gate(&self, site: FaultSite, lane: usize) -> KarResult<FaultGate> {
        let Some(injector) = &self.config.faults else {
            return Ok(FaultGate::default());
        };
        FaultGate::of(injector.decide(site, FaultPlane::Store, lane as u64))
            .ok_or_else(|| KarError::Store(format!("injected transient fault at {}", site.name())))
    }

    /// The error reported for an ack-lost operation at `site`: the operation
    /// *has applied*, but the caller cannot know that.
    pub(crate) fn ack_lost_error(site: FaultSite) -> KarError {
        KarError::Store(format!(
            "injected ack loss at {} (operation applied)",
            site.name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_bumps_epoch_and_new_connection_works() {
        let store = Store::new();
        let c1 = ComponentId::from_raw(1);
        assert_eq!(store.current_epoch(c1), Epoch::ZERO);
        let conn = store.connect(c1);
        conn.set("k", Value::from(1)).unwrap();

        let e = store.fence(c1);
        assert_eq!(e, Epoch::from_raw(1));
        assert!(conn.set("k", Value::from(2)).unwrap_err().is_fenced());
        // Data written before the fence survives.
        assert_eq!(store.admin_get("k"), Some(Value::from(1)));

        // A fresh connection (the restarted replacement) works.
        let conn2 = store.connect(c1);
        conn2.set("k", Value::from(3)).unwrap();
        assert_eq!(conn2.get("k").unwrap(), Some(Value::from(3)));
    }

    #[test]
    fn fencing_is_per_component() {
        let store = Store::new();
        let a = store.connect(ComponentId::from_raw(1));
        let b = store.connect(ComponentId::from_raw(2));
        store.fence(ComponentId::from_raw(1));
        assert!(a.get("x").is_err());
        assert!(b.get("x").is_ok());
    }

    #[test]
    fn clear_and_len() {
        let store = Store::new();
        assert!(store.is_empty());
        let conn = store.connect(ComponentId::from_raw(1));
        conn.set("a", Value::from(1)).unwrap();
        conn.hset("h", "f", Value::from(2)).unwrap();
        assert_eq!(store.len(), 2);
        store.clear();
        assert!(store.is_empty());
        // Connection still usable after clear.
        assert_eq!(conn.get("a").unwrap(), None);
    }

    #[test]
    fn admin_accessors_bypass_fencing() {
        let store = Store::new();
        let c = ComponentId::from_raw(7);
        let conn = store.connect(c);
        conn.set("placement/Order/1", Value::from("component-7"))
            .unwrap();
        conn.set("placement/Order/2", Value::from("component-7"))
            .unwrap();
        conn.set("other", Value::from(1)).unwrap();
        conn.hset("placement/Order/3", "f", Value::from(1)).unwrap();
        store.fence(c);
        assert_eq!(
            store.admin_keys_with_prefix("placement/"),
            vec![
                "placement/Order/1".to_string(),
                "placement/Order/2".to_string()
            ]
        );
        assert_eq!(
            store.admin_hash_keys_with_prefix("placement/"),
            vec!["placement/Order/3".to_string()]
        );
        assert_eq!(
            store.admin_del("placement/Order/1"),
            Some(Value::from("component-7"))
        );
        assert_eq!(store.admin_get("placement/Order/1"), None);
        assert_eq!(
            store.admin_set("placement/Order/1", Value::from("component-8")),
            None
        );
        assert_eq!(
            store.admin_get("placement/Order/1"),
            Some(Value::from("component-8"))
        );
    }

    #[test]
    fn store_clone_shares_data() {
        let store = Store::new();
        let store2 = store.clone();
        store
            .connect(ComponentId::from_raw(1))
            .set("k", Value::from(1))
            .unwrap();
        assert_eq!(store2.admin_get("k"), Some(Value::from(1)));
    }

    #[test]
    fn op_latency_is_applied() {
        let store = Store::with_config(StoreConfig::with_op_latency(Duration::from_millis(5)));
        let conn = store.connect(ComponentId::from_raw(1));
        let t0 = std::time::Instant::now();
        conn.get("missing").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn shard_layout_defaults_and_mapping_are_stable() {
        let store = Store::new();
        assert_eq!(store.shard_count(), DEFAULT_STORE_SHARDS);
        assert_eq!(StoreConfig::default().effective_shards(), 16);
        assert_eq!(
            StoreConfig {
                shards: 4,
                ..StoreConfig::default()
            }
            .effective_shards(),
            4
        );
        for key in ["a", "b", "state/Order/o-1", "placement/Order/o-1"] {
            let shard = store.shard_of_key(key);
            assert!(shard < store.shard_count());
            assert_eq!(shard, store.shard_of_key(key), "mapping must be stable");
        }
        // With enough keys, more than one shard is populated.
        let conn = store.connect(ComponentId::from_raw(1));
        for i in 0..64 {
            conn.set(&format!("k{i}"), Value::from(i)).unwrap();
        }
        let populated = store
            .inner
            .shards
            .iter()
            .filter(|shard| !shard.lock().strings.is_empty())
            .count();
        assert!(populated > 1, "64 keys all landed on one shard");
        assert_eq!(store.len(), 64);
    }

    #[test]
    fn contention_counter_stays_zero_single_threaded() {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        for i in 0..32 {
            conn.set(&format!("k{i}"), Value::from(i)).unwrap();
        }
        assert!(store.shard_contention().iter().all(|&c| c == 0));
        assert_eq!(store.shard_contention().len(), store.shard_count());
    }

    #[test]
    fn injected_faults_gate_commands_and_checked_admin() {
        use kar_types::{FaultInjector, FaultPlan, FaultSpec};
        let plan = FaultPlan::new(1)
            .with_site(
                FaultSite::StoreCommand,
                FaultSpec::transient(1.0).with_budget(1),
            )
            .with_site(
                FaultSite::StoreAdmin,
                FaultSpec::ack_lost(1.0).with_budget(1),
            );
        let injector = Arc::new(FaultInjector::new(plan));
        let store = Store::with_config(StoreConfig {
            faults: Some(Arc::clone(&injector)),
            ..StoreConfig::default()
        });
        let conn = store.connect(ComponentId::from_raw(1));
        // First fenced command fails transiently — and applied nothing.
        let err = conn.set("k", Value::from(1)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(store.admin_get("k"), None);
        // The budget is spent, so the retry applies cleanly.
        conn.set("k", Value::from(1)).unwrap();
        assert_eq!(store.admin_get("k"), Some(Value::from(1)));
        // Checked admin: the ack drops but the write *applied* — the
        // unchecked accessor is the harness ground truth proving it.
        let err = store.admin_set_checked("a", Value::from(2)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(store.admin_get("a"), Some(Value::from(2)));
        store.admin_set_checked("b", Value::from(3)).unwrap();
        // Unchecked admin accessors never consult the injector.
        assert_eq!(store.admin_del("b"), Some(Value::from(3)));
        let counters = injector.counters();
        assert_eq!(counters.site(FaultSite::StoreCommand).transient, 1);
        assert_eq!(counters.site(FaultSite::StoreAdmin).ack_lost, 1);
    }

    #[test]
    fn admin_set_nx_checked_claims_once() {
        let store = Store::new();
        assert!(store.admin_set_nx("claim", Value::from("t1")));
        assert!(!store.admin_set_nx("claim", Value::from("t2")));
        assert_eq!(store.admin_get("claim"), Some(Value::from("t1")));
        // Checked variants with no injector behave like the unchecked ones.
        assert_eq!(
            store.admin_get_checked("claim").unwrap(),
            Some(Value::from("t1"))
        );
        assert!(store
            .admin_set_nx_checked("claim2", Value::from("x"))
            .unwrap());
        assert_eq!(
            store.admin_del_checked("claim2").unwrap(),
            Some(Value::from("x"))
        );
        assert_eq!(
            store.admin_set_checked("claim2", Value::from("y")).unwrap(),
            None
        );
    }

    #[test]
    fn a_large_hash_is_a_sorted_field_vector() {
        // One field per order or container, as Reefer's managers keep them,
        // written in a scrambled order.
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        const FIELDS: usize = 2000;
        let name = |i: usize| format!("f{i}");
        for i in 0..FIELDS {
            let field = name(i * 7919 % FIELDS);
            assert_eq!(conn.hset("big", &field, Value::from(1)).unwrap(), None);
        }
        let all = conn.hgetall("big").unwrap();
        assert_eq!(all.len(), FIELDS);
        let mut names: Vec<String> = (0..FIELDS).map(name).collect();
        names.sort();
        assert!(all.keys().eq(names.iter()));
        {
            let shard = store.inner.lock_shard_of("big");
            let Fields::Many(fields) = &shard.hashes["big"] else {
                panic!("2000 fields stored inline");
            };
            let stored: Vec<&str> = fields.iter().map(|(f, _)| &**f).collect();
            assert!(
                stored.into_iter().eq(names.iter().map(String::as_str)),
                "fields out of order"
            );
        }
        for field in &names {
            assert_eq!(conn.hget("big", field).unwrap(), Some(Value::from(1)));
        }
    }

    #[test]
    fn one_field_hashes_hold_one_slot_and_survive_emptying() {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        conn.hset("a", "count", Value::from(1)).unwrap();
        conn.hset_multi("b", [("count".to_string(), Value::from(2))])
            .unwrap();
        store.admin_hset("c", "7", Value::from(1));
        for key in ["a", "b", "c"] {
            assert!(matches!(
                store.inner.lock_shard_of(key).hashes[key],
                Fields::One(..)
            ));
        }
        // The last hdel leaves the hash in place, empty.
        assert_eq!(conn.hdel("a", "count").unwrap(), Some(Value::from(1)));
        assert_eq!(conn.hdel("a", "count").unwrap(), None);
        assert_eq!(store.len(), 3);
        assert!(store.admin_hgetall("a").is_empty());
        assert!(conn.hclear("a").unwrap());
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.admin_hset("c", "7", Value::from(2)),
            Some(Value::from(1))
        );
    }

    /// One value of every kind: the scalars stored inline, the trees behind
    /// an `Arc`.
    fn every_kind() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::from("component-7"),
            Value::list([Value::Int(1), Value::from("x")]),
            Value::map([("count", Value::Int(3))]),
        ]
    }

    #[test]
    fn inline_scalars_and_shared_trees_read_back_identically() {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        let values = every_kind();
        for (i, value) in values.iter().enumerate() {
            let key = format!("k{i}");
            assert_eq!(conn.set(&key, value.clone()).unwrap(), None);
            assert_eq!(conn.get(&key).unwrap().as_ref(), Some(value));
            assert_eq!(store.admin_get(&key).as_ref(), Some(value));
            assert_eq!(conn.hset("h", &key, value.clone()).unwrap(), None);
            assert_eq!(conn.hget("h", &key).unwrap().as_ref(), Some(value));
            // Reads copied the value out: the stored one is still there to
            // be replaced.
            assert_eq!(conn.set(&key, Value::Null).unwrap().as_ref(), Some(value));
        }
        let all = conn.hgetall("h").unwrap();
        assert!(all.values().eq(values.iter()));
        let mut pipe = conn.pipeline();
        pipe.hgetall("h").hget("h", "k5").get("k6");
        let results = pipe.flush().unwrap();
        assert_eq!(results[0], crate::PipelineResult::Hash(all));
        assert_eq!(
            results[1],
            crate::PipelineResult::Value(Some(values[5].clone()))
        );
        assert_eq!(results[2], crate::PipelineResult::Value(Some(Value::Null)));
    }

    #[test]
    fn compare_and_swap_compares_inline_values() {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        let values = every_kind();
        for value in &values {
            conn.set("k", value.clone()).unwrap();
            for other in values.iter().filter(|other| *other != value) {
                assert_eq!(
                    conn.compare_and_swap("k", Some(other), Value::Int(99))
                        .unwrap(),
                    Err(Some(value.clone())),
                    "{other:?} matched a stored {value:?}"
                );
                assert!(!store.admin_del_if_eq("k", other));
            }
            assert_eq!(
                conn.compare_and_swap("k", None, Value::Int(99)).unwrap(),
                Err(Some(value.clone()))
            );
            assert_eq!(
                conn.compare_and_swap("k", Some(value), value.clone())
                    .unwrap(),
                Ok(())
            );
            assert!(store.admin_del_if_eq("k", value));
        }
        // Equal magnitudes of different kinds are different values.
        conn.set("n", Value::Int(1)).unwrap();
        for other in [Value::Float(1.0), Value::from("1"), Value::Bool(true)] {
            assert!(conn
                .compare_and_swap("n", Some(&other), Value::Null)
                .unwrap()
                .is_err());
        }
        assert_eq!(
            conn.compare_and_swap("n", Some(&Value::Int(1)), Value::Int(2))
                .unwrap(),
            Ok(())
        );
        assert_eq!(
            conn.compare_and_swap("absent", Some(&Value::Null), Value::Int(1))
                .unwrap(),
            Err(None)
        );
    }

    #[test]
    fn the_stored_layout_stays_compact() {
        // An inline scalar under a boxed key, and a one-field hash stored
        // inline: what keeps a churned actor's placement record and state
        // small.
        assert!(std::mem::size_of::<Stored>() <= 24);
        assert!(std::mem::size_of::<(Box<str>, Stored)>() <= 40);
        assert!(std::mem::size_of::<Fields>() <= 40);
        assert!(std::mem::size_of::<(Box<str>, Fields)>() <= 56);
    }

    #[test]
    fn round_trips_count_single_commands() {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        conn.set("a", Value::from(1)).unwrap();
        conn.get("a").unwrap();
        conn.hset_multi(
            "h",
            [
                ("f".to_string(), Value::from(1)),
                ("g".to_string(), Value::from(2)),
            ],
        )
        .unwrap();
        let stats = store.stats();
        // hset_multi is one command (one round trip) however many fields.
        assert_eq!(stats.round_trips, 3);
        assert_eq!(stats.pipeline_flushes, 0);
    }
}
