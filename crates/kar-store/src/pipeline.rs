//! Batched store commands: one round trip, one fence check, per-shard
//! grouped application.
//!
//! A [`Pipeline`] mirrors Redis pipelining: commands are buffered client-side
//! and applied by a single [`Pipeline::flush`] that
//!
//! 1. is **one** round trip — acknowledged one operation latency after it is
//!    submitted — however many commands are queued,
//! 2. performs **one** fence check, whose epoch-table read guard is held
//!    across the whole application — a concurrent [`fence`](crate::Store::fence)
//!    therefore observes either none or all of the batch, never a prefix,
//! 3. groups the commands by the shard their key hashes onto and applies
//!    each group under a single shard-lock acquisition, preserving the
//!    submission order *within* each shard (and therefore per key, since a
//!    key lives on exactly one shard).
//!
//! Commands touching different shards are applied in shard order, not
//! submission order; callers needing cross-key ordering insert a
//! [`Pipeline::fence`] between the ordered commands. A fence splits the
//! batch into segments: every command before the fence is applied — on
//! every shard it touches — before any command after it, while the whole
//! batch still costs one round trip and one fence check. Results are
//! returned in submission order regardless.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use kar_types::{Completion, ComponentId, Epoch, FaultGate, FaultSite, KarResult, Value};

use parking_lot::MutexGuard;

use crate::store::{
    delete_if_holds, holds, materialize_hash, Fields, ShardData, StoreInner, Stored,
};

/// One buffered command.
#[derive(Debug)]
enum Op {
    Get(String),
    Set(String, Stored),
    SetNx(String, Stored),
    Cas {
        key: String,
        expected: Option<Value>,
        new: Stored,
    },
    CasDel {
        key: String,
        expected: Value,
    },
    Del(String),
    HGet(String, String),
    HSet(String, String, Stored),
    HSetMulti(String, Vec<(String, Stored)>),
    HDel(String, String),
    HGetAll(String),
    HClear(String),
}

impl Op {
    fn key(&self) -> &str {
        match self {
            Op::Get(key)
            | Op::Set(key, _)
            | Op::SetNx(key, _)
            | Op::Cas { key, .. }
            | Op::CasDel { key, .. }
            | Op::Del(key)
            | Op::HGet(key, _)
            | Op::HSet(key, _, _)
            | Op::HSetMulti(key, _)
            | Op::HDel(key, _)
            | Op::HGetAll(key)
            | Op::HClear(key) => key,
        }
    }
}

/// Raw per-command outcome holding [`Stored`] values, materialized into a
/// [`PipelineResult`] only after every lock is released.
#[derive(Debug)]
enum RawResult {
    Unit,
    Value(Option<Stored>),
    Flag(bool),
    Cas(Result<(), Option<Stored>>),
    Hash(Option<Fields>),
}

/// The outcome of one pipelined command, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineResult {
    /// A command with no return value (`hset_multi`).
    Unit,
    /// The (previous) value of a get/set/del/hget/hset/hdel.
    Value(Option<Value>),
    /// The boolean outcome of a `set_nx`, `compare_and_delete` or `hclear`.
    Flag(bool),
    /// The outcome of a `compare_and_swap`.
    Cas(Result<(), Option<Value>>),
    /// The hash snapshot of an `hgetall`.
    Hash(BTreeMap<String, Value>),
}

impl PipelineResult {
    /// The value payload, if this result carries one.
    pub fn into_value(self) -> Option<Value> {
        match self {
            PipelineResult::Value(v) => v,
            _ => None,
        }
    }

    /// The hash payload, if this result carries one.
    pub fn into_hash(self) -> Option<BTreeMap<String, Value>> {
        match self {
            PipelineResult::Hash(h) => Some(h),
            _ => None,
        }
    }

    /// The boolean payload, if this result carries one.
    pub fn flag(&self) -> Option<bool> {
        match self {
            PipelineResult::Flag(f) => Some(*f),
            _ => None,
        }
    }

    /// The CAS outcome, if this result carries one.
    pub fn into_cas(self) -> Option<Result<(), Option<Value>>> {
        match self {
            PipelineResult::Cas(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// A batch of buffered store commands bound to one client session (or to the
/// administrative runtime). [`Pipeline::flush`] applies it in one round
/// trip; [`Pipeline::fence`] orders commands across shards.
#[derive(Debug)]
pub struct Pipeline {
    inner: Arc<StoreInner>,
    /// The fenced session the batch runs under; `None` for administrative
    /// (unfenced, latency-free) pipelines used by the reconciliation leader.
    auth: Option<(ComponentId, Epoch)>,
    ops: Vec<Op>,
    /// Ordering fences: `ops` lengths at which [`Pipeline::fence`] was
    /// called, ascending. Each splits the batch into segments applied
    /// strictly in order.
    fences: Vec<usize>,
}

impl Pipeline {
    pub(crate) fn new_fenced(inner: Arc<StoreInner>, component: ComponentId, epoch: Epoch) -> Self {
        Pipeline {
            inner,
            auth: Some((component, epoch)),
            ops: Vec::new(),
            fences: Vec::new(),
        }
    }

    pub(crate) fn new_admin(inner: Arc<StoreInner>) -> Self {
        Pipeline {
            inner,
            auth: None,
            ops: Vec::new(),
            fences: Vec::new(),
        }
    }

    /// Number of buffered commands.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no command has been buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Makes room for `additional` more commands, exactly: a batch whose
    /// size is known up front allocates once, and no more than it needs.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.ops.reserve_exact(additional);
        self
    }

    /// Buffers a string read.
    pub fn get(&mut self, key: &str) -> &mut Self {
        self.ops.push(Op::Get(key.to_owned()));
        self
    }

    /// Buffers a string write.
    pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
        self.ops.push(Op::Set(key.to_owned(), Stored::from(value)));
        self
    }

    /// Buffers a write-if-absent.
    pub fn set_nx(&mut self, key: &str, value: Value) -> &mut Self {
        self.ops
            .push(Op::SetNx(key.to_owned(), Stored::from(value)));
        self
    }

    /// Buffers a compare-and-swap.
    pub fn compare_and_swap(
        &mut self,
        key: &str,
        expected: Option<Value>,
        new: Value,
    ) -> &mut Self {
        self.ops.push(Op::Cas {
            key: key.to_owned(),
            expected,
            new: Stored::from(new),
        });
        self
    }

    /// Buffers a compare-and-delete: `key` goes only while it holds
    /// exactly `expected` ([`Connection::compare_and_delete`]).
    ///
    /// [`Connection::compare_and_delete`]: crate::Connection::compare_and_delete
    pub fn compare_and_delete(&mut self, key: &str, expected: Value) -> &mut Self {
        self.ops.push(Op::CasDel {
            key: key.to_owned(),
            expected,
        });
        self
    }

    /// Buffers a string delete.
    pub fn del(&mut self, key: &str) -> &mut Self {
        self.ops.push(Op::Del(key.to_owned()));
        self
    }

    /// Buffers a hash-field read.
    pub fn hget(&mut self, key: &str, field: &str) -> &mut Self {
        self.ops.push(Op::HGet(key.to_owned(), field.to_owned()));
        self
    }

    /// Buffers a hash-field write.
    pub fn hset(&mut self, key: &str, field: &str, value: Value) -> &mut Self {
        self.ops.push(Op::HSet(
            key.to_owned(),
            field.to_owned(),
            Stored::from(value),
        ));
        self
    }

    /// Buffers a multi-field hash write.
    pub fn hset_multi(
        &mut self,
        key: &str,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> &mut Self {
        self.ops.push(Op::HSetMulti(
            key.to_owned(),
            entries
                .into_iter()
                .map(|(field, value)| (field, Stored::from(value)))
                .collect(),
        ));
        self
    }

    /// Buffers a hash-field delete.
    pub fn hdel(&mut self, key: &str, field: &str) -> &mut Self {
        self.ops.push(Op::HDel(key.to_owned(), field.to_owned()));
        self
    }

    /// Buffers a whole-hash read.
    pub fn hgetall(&mut self, key: &str) -> &mut Self {
        self.ops.push(Op::HGetAll(key.to_owned()));
        self
    }

    /// Buffers a whole-hash delete.
    pub fn hclear(&mut self, key: &str) -> &mut Self {
        self.ops.push(Op::HClear(key.to_owned()));
        self
    }

    /// Inserts a cross-key ordering fence: every command buffered before
    /// this point is applied — on every shard it touches — before any
    /// command buffered after it, without splitting the flush (still one
    /// round trip, one fence check). Within a segment the usual per-shard
    /// grouping applies. Lets a caller interleave ordered writes and
    /// deletes of *different* keys on *different* shards in a single
    /// batch: `set(a); fence(); del(b)` guarantees no observer sees `b`
    /// deleted while `a` is still unwritten.
    pub fn fence(&mut self) -> &mut Self {
        self.fences.push(self.ops.len());
        self
    }

    /// Applies every buffered command and returns their results in
    /// submission order. One round-trip latency charge and one fence check
    /// for the whole batch; each shard's commands applied under one lock
    /// acquisition, in submission order per shard (shards in shard order,
    /// unless a [`Pipeline::fence`] orders them).
    ///
    /// An empty pipeline flushes for free and returns no results.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` — applying **none** of the batch — if
    /// the session's component has been forcefully disconnected. With a
    /// fault plan configured, may fail with an injected transient
    /// `KarError::Store` (none of the batch applied) or an injected ack loss
    /// (**all** of the batch applied, failure reported anyway).
    pub fn flush(self) -> KarResult<Vec<PipelineResult>> {
        self.submit()?.wait()
    }

    /// [`Pipeline::flush`] without the wait: every buffered command is
    /// applied when this returns, and the returned
    /// [`Completion`](kar_types::Completion) says when the flush's one round
    /// trip is acknowledged and what the acknowledgement carries.
    ///
    /// # Errors
    ///
    /// Fails at once — **none** of the batch applied — with
    /// `KarError::Fenced` or an injected transient `KarError::Store`. An
    /// injected ack loss applies **all** of the batch; the completion
    /// carries the failure.
    pub fn submit(self) -> KarResult<Completion<Vec<PipelineResult>>> {
        let Pipeline {
            inner,
            auth,
            ops,
            fences,
        } = self;
        if ops.is_empty() {
            return Ok(Completion::immediate(Ok(Vec::new())));
        }
        // Administrative pipelines model the runtime's co-located leader:
        // they batch lock traffic but pay no emulated network round trip,
        // matching the single-command admin accessors. The round trip is
        // counted before the fence check — a fenced flush still crossed the
        // network to be rejected — but the pipeline counters below only
        // count batches that actually applied.
        let trip = auth.and_then(|_| inner.begin_round_trip());

        // Gray-failure gate, before any lock: fenced flushes inject at the
        // state plane's flush site, admin flushes at the admin site. A
        // transient decision applies *none* of the batch (like a fence); an
        // ack-lost decision applies *all* of it and reports failure — the
        // indeterminate outcome the flush-then-respond hardening must
        // absorb. The brownout/spike lane is the first op's shard.
        let site = if auth.is_some() {
            FaultSite::StoreFlush
        } else {
            FaultSite::StoreAdmin
        };
        let gate = if inner.config.faults.is_some() {
            inner.fault_gate(site, inner.shard_of(ops[0].key()))?
        } else {
            FaultGate::default()
        };

        // A small batch already in application order — the usual shape —
        // is applied as submitted, with no plan to build.
        let len = ops.len();
        let mut small = [0; SMALL_BATCH];
        let plan = if len <= SMALL_BATCH {
            for (shard, op) in small.iter_mut().zip(&ops) {
                *shard = inner.shard_of(op.key());
            }
            let shards = &small[..len];
            (!grouped(shards, &fences)).then(|| plan_application(shards.iter().copied(), &fences))
        } else {
            Some(plan_application(
                ops.iter().map(|op| inner.shard_of(op.key())),
                &fences,
            ))
        };
        let as_submitted = small[..len.min(SMALL_BATCH)]
            .iter()
            .copied()
            .enumerate()
            .map(|(index, shard)| (shard, index))
            .take(if plan.is_none() { len } else { 0 });
        let order = as_submitted.chain(plan.into_iter().flatten());

        let mut slots: Vec<Slot> = ops.into_iter().map(Slot::Op).collect();
        {
            // One fence check for the whole flush; the read guard spans the
            // application so a concurrent fence can never observe (or cause)
            // a half-applied batch.
            let _fence = match auth {
                Some((component, epoch)) => Some(inner.fence_guard(component, epoch)?),
                None => None,
            };
            inner.stats.pipeline_flushes.fetch_add(1, Ordering::Relaxed);
            inner
                .stats
                .pipeline_ops
                .fetch_add(slots.len() as u64, Ordering::Relaxed);
            // One shard-lock acquisition per run of one shard in the plan.
            let mut locked: Option<(usize, MutexGuard<'_, ShardData>)> = None;
            for (shard, index) in order {
                if locked.as_ref().is_none_or(|(held, _)| *held != shard) {
                    // The previous shard's lock goes before the next is taken.
                    drop(locked.take());
                    locked = Some((shard, inner.lock_shard(shard)));
                }
                let data = &mut locked.as_mut().expect("locked above").1;
                let Slot::Op(op) = std::mem::replace(&mut slots[index], Slot::Applied) else {
                    unreachable!("pipeline op applied twice");
                };
                slots[index] = Slot::Raw(apply(&inner, data, op));
            }
        }
        // Materialize value trees strictly outside every lock. (Under an
        // ack-lost gate the batch is fully applied all the same; only the
        // acknowledgement is lost.)
        let results = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Raw(raw) => finish(raw),
                Slot::Op(_) | Slot::Applied => unreachable!("pipeline op not applied"),
            })
            .collect();
        Ok(StoreInner::complete(trip, gate, site, results))
    }
}

/// One command of a flush on its way through it.
enum Slot {
    Op(Op),
    /// Taken out for its application.
    Applied,
    Raw(RawResult),
}

/// Batches of up to this many commands are checked for being in
/// application order already, on the stack.
const SMALL_BATCH: usize = 8;

/// True if the plan of a flush whose ops touch `shards` is the submission
/// order: within each fence-ordered segment, no shard comes back after
/// another one.
fn grouped(shards: &[usize], fences: &[usize]) -> bool {
    let mut start = 0;
    (1..shards.len()).all(|index| {
        if fences.contains(&index) {
            start = index;
        }
        let before = &shards[start..(index - 1).max(start)];
        shards[index] == shards[index - 1] || !before.contains(&shards[index])
    })
}

/// Plans the application order of a flush whose ops touch `shards`: splits
/// the op indices into fence-ordered segments, then groups each segment's
/// indices by target shard (first-touch order, submission order within a
/// group). The flush applies the returned `(shard, index)` pairs strictly
/// in order, taking a shard's lock once per run of it, so every op before a
/// fence is applied before any op after it — on every shard — while
/// unfenced ops still coalesce into minimal lock traffic.
fn plan_application(
    shards: impl ExactSizeIterator<Item = usize>,
    fences: &[usize],
) -> Vec<(usize, usize)> {
    // Each op keyed by (segment, first touch of its shard in the segment,
    // index): an unstable sort on unique keys is deterministic and does not
    // allocate.
    let mut keyed: Vec<((usize, usize, usize), usize)> = Vec::with_capacity(shards.len());
    let mut first_touch: Vec<(usize, usize)> = Vec::new();
    let mut segment = 0;
    let mut fences = fences.iter().copied().peekable();
    for (index, shard) in shards.enumerate() {
        let mut crossed = false;
        while fences.next_if(|&fence| fence <= index).is_some() {
            crossed = true;
        }
        if crossed && index > 0 {
            segment += 1;
            first_touch.clear();
        }
        let first = match first_touch.iter().find(|(s, _)| *s == shard) {
            Some(&(_, first)) => first,
            None => {
                first_touch.push((shard, index));
                index
            }
        };
        keyed.push(((segment, first, index), shard));
    }
    keyed.sort_unstable_by_key(|&(key, _)| key);
    keyed
        .into_iter()
        .map(|((_, _, index), shard)| (shard, index))
        .collect()
}

/// Applies one command to its shard, counting the logical operation.
fn apply(inner: &StoreInner, data: &mut ShardData, op: Op) -> RawResult {
    let stats = &inner.stats;
    match op {
        Op::Get(key) => {
            stats.reads.fetch_add(1, Ordering::Relaxed);
            RawResult::Value(data.strings.get(key.as_str()).cloned())
        }
        Op::Set(key, value) => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            RawResult::Value(data.strings.insert(key.into(), value))
        }
        Op::SetNx(key, value) => {
            stats.cas.fetch_add(1, Ordering::Relaxed);
            match data.strings.entry(key.into()) {
                std::collections::hash_map::Entry::Occupied(_) => RawResult::Flag(false),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(value);
                    RawResult::Flag(true)
                }
            }
        }
        Op::Cas { key, expected, new } => {
            stats.cas.fetch_add(1, Ordering::Relaxed);
            let current = data.strings.get(key.as_str());
            if holds(current, expected.as_ref()) {
                data.strings.insert(key.into(), new);
                RawResult::Cas(Ok(()))
            } else {
                RawResult::Cas(Err(current.cloned()))
            }
        }
        Op::CasDel { key, expected } => {
            stats.cas.fetch_add(1, Ordering::Relaxed);
            RawResult::Flag(delete_if_holds(data, &key, &expected))
        }
        Op::Del(key) => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            RawResult::Value(data.strings.remove(key.as_str()))
        }
        Op::HGet(key, field) => {
            stats.reads.fetch_add(1, Ordering::Relaxed);
            RawResult::Value(
                data.hashes
                    .get(key.as_str())
                    .and_then(|h| h.get(&field))
                    .cloned(),
            )
        }
        Op::HSet(key, field, value) => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            RawResult::Value(
                data.hashes
                    .entry(key.into())
                    .or_default()
                    .insert(field, value),
            )
        }
        Op::HSetMulti(key, entries) => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            data.hashes.entry(key.into()).or_default().extend(entries);
            RawResult::Unit
        }
        Op::HDel(key, field) => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            RawResult::Value(
                data.hashes
                    .get_mut(key.as_str())
                    .and_then(|h| h.remove(&field)),
            )
        }
        Op::HGetAll(key) => {
            stats.reads.fetch_add(1, Ordering::Relaxed);
            RawResult::Hash(data.hashes.get(key.as_str()).cloned())
        }
        Op::HClear(key) => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            RawResult::Flag(data.hashes.remove(key.as_str()).is_some())
        }
    }
}

/// Materializes a raw result (outside every lock).
fn finish(raw: RawResult) -> PipelineResult {
    match raw {
        RawResult::Unit => PipelineResult::Unit,
        RawResult::Value(v) => PipelineResult::Value(v.map(Stored::into_value)),
        RawResult::Flag(f) => PipelineResult::Flag(f),
        RawResult::Cas(outcome) => {
            PipelineResult::Cas(outcome.map_err(|actual| actual.map(Stored::into_value)))
        }
        RawResult::Hash(h) => PipelineResult::Hash(h.map(materialize_hash).unwrap_or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreConfig};
    use std::time::{Duration, Instant};

    fn store_and_conn() -> (Store, crate::Connection) {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        (store, conn)
    }

    #[test]
    fn mixed_batch_returns_results_in_submission_order() {
        let (_s, conn) = store_and_conn();
        let mut pipe = conn.pipeline();
        assert!(pipe.is_empty());
        pipe.set("a", Value::from(1))
            .get("a")
            .set_nx("a", Value::from(9))
            .compare_and_swap("a", Some(Value::from(1)), Value::from(2))
            .hset("h", "f", Value::from(3))
            .hgetall("h")
            .hdel("h", "f")
            .del("a");
        assert_eq!(pipe.len(), 8);
        let results = pipe.flush().unwrap();
        assert_eq!(results[0], PipelineResult::Value(None));
        assert_eq!(results[1], PipelineResult::Value(Some(Value::from(1))));
        assert_eq!(results[2], PipelineResult::Flag(false));
        assert_eq!(results[3], PipelineResult::Cas(Ok(())));
        assert_eq!(results[4], PipelineResult::Value(None));
        let hash = results[5].clone().into_hash().unwrap();
        assert_eq!(hash["f"], Value::from(3));
        assert_eq!(results[6], PipelineResult::Value(Some(Value::from(3))));
        assert_eq!(results[7], PipelineResult::Value(Some(Value::from(2))));
        assert_eq!(conn.get("a").unwrap(), None);
    }

    #[test]
    fn one_latency_charge_per_flush() {
        let store = Store::with_config(StoreConfig::with_op_latency(Duration::from_millis(10)));
        let conn = store.connect(ComponentId::from_raw(1));
        let t0 = Instant::now();
        let mut pipe = conn.pipeline();
        for i in 0..32 {
            pipe.set(&format!("k{i}"), Value::from(i));
        }
        pipe.flush().unwrap();
        let elapsed = t0.elapsed();
        // 32 per-command round trips would cost >= 320 ms; one flush costs
        // one charge (plus scheduling noise).
        assert!(
            elapsed < Duration::from_millis(100),
            "pipeline paid per-command latency: {elapsed:?}"
        );
        let stats = store.stats();
        assert_eq!(stats.round_trips, 1);
        assert_eq!(stats.pipeline_flushes, 1);
        assert_eq!(stats.pipeline_ops, 32);
        assert_eq!(stats.writes, 32);
    }

    #[test]
    fn empty_flush_is_free() {
        let (store, conn) = store_and_conn();
        assert!(conn.pipeline().flush().unwrap().is_empty());
        assert_eq!(store.stats().round_trips, 0);
        assert_eq!(store.stats().pipeline_flushes, 0);
    }

    #[test]
    fn fenced_pipeline_applies_nothing() {
        let store = Store::new();
        let c = ComponentId::from_raw(3);
        let conn = store.connect(c);
        store.fence(c);
        let mut pipe = conn.pipeline();
        pipe.set("a", Value::from(1)).set("b", Value::from(2));
        assert!(pipe.flush().unwrap_err().is_fenced());
        assert_eq!(store.admin_get("a"), None);
        assert_eq!(store.admin_get("b"), None);
    }

    #[test]
    fn per_key_order_is_submission_order() {
        let (_s, conn) = store_and_conn();
        let mut pipe = conn.pipeline();
        pipe.set("k", Value::from(1))
            .set("k", Value::from(2))
            .compare_and_swap("k", Some(Value::from(2)), Value::from(3))
            .get("k");
        let results = pipe.flush().unwrap();
        assert_eq!(results[2], PipelineResult::Cas(Ok(())));
        assert_eq!(results[3], PipelineResult::Value(Some(Value::from(3))));
        assert_eq!(conn.get("k").unwrap(), Some(Value::from(3)));
    }

    #[test]
    fn admin_pipeline_bypasses_fencing_and_latency() {
        let store = Store::with_config(StoreConfig::with_op_latency(Duration::from_millis(20)));
        store.fence(ComponentId::from_raw(1));
        let t0 = Instant::now();
        let mut pipe = store.admin_pipeline();
        pipe.set("placement/A/x", Value::from(7))
            .get("placement/A/x")
            .del("placement/A/x");
        let results = pipe.flush().unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(15),
            "admin paid latency"
        );
        assert_eq!(results[1], PipelineResult::Value(Some(Value::from(7))));
        assert_eq!(store.admin_get("placement/A/x"), None);
    }

    /// The plan of a flush whose ops touch `shards`.
    fn plan(shards: &[usize], fences: &[usize]) -> Vec<(usize, usize)> {
        plan_application(shards.iter().copied(), fences)
    }

    /// Flattened application order (op indices) of a plan.
    fn applied_order(plan: &[(usize, usize)]) -> Vec<usize> {
        plan.iter().map(|&(_, index)| index).collect()
    }

    /// The shard of each lock acquisition a plan makes, in order.
    fn locked(plan: &[(usize, usize)]) -> Vec<usize> {
        let mut shards: Vec<usize> = plan.iter().map(|&(shard, _)| shard).collect();
        shards.dedup();
        shards
    }

    #[test]
    fn unfenced_plan_pulls_later_ops_across_shards() {
        // The documented hazard the fence exists for: with ops on shards
        // [0, 1, 0], the second shard-0 op is pulled ahead of the shard-1
        // op submitted before it.
        let plan = plan(&[0, 1, 0], &[]);
        assert_eq!(applied_order(&plan), vec![0, 2, 1]);
    }

    #[test]
    fn fence_keeps_cross_shard_write_then_delete_in_submission_order() {
        // Reconciliation's shape: interleave placement writes and deletes
        // of different keys on different shards in one flush. Every op
        // before a fence must apply before any op after it.
        let shards = [0, 1, 0, 2, 1];
        let fenced = plan(&shards, &[1, 2, 3, 4]);
        assert_eq!(applied_order(&fenced), vec![0, 1, 2, 3, 4]);
        // A single-lock acquisition per segment group, in segment order.
        assert_eq!(locked(&fenced), vec![0, 1, 0, 2, 1]);

        // Partial fencing still coalesces within a segment: the two
        // shard-0 ops in the first segment share one lock acquisition.
        let partial = plan(&[0, 1, 0, 2], &[3]);
        assert_eq!(applied_order(&partial), vec![0, 2, 1, 3]);
        assert_eq!(locked(&partial).len(), 3);
    }

    #[test]
    fn degenerate_fences_are_noops() {
        // Leading, trailing, and doubled fences change nothing.
        let plan = plan(&[0, 1], &[0, 1, 1, 2, 2]);
        assert_eq!(applied_order(&plan), vec![0, 1]);
        assert_eq!(locked(&plan).len(), 2);
    }

    #[test]
    fn fenced_batch_still_one_round_trip_and_submission_order_results() {
        let store = Store::with_config(StoreConfig::with_op_latency(Duration::from_millis(10)));
        let conn = store.connect(ComponentId::from_raw(1));
        let mut pipe = conn.pipeline();
        pipe.set("a", Value::from(1))
            .fence()
            .del("b")
            .fence()
            .set("c", Value::from(3))
            .get("a");
        let results = pipe.flush().unwrap();
        assert_eq!(results[0], PipelineResult::Value(None));
        assert_eq!(results[1], PipelineResult::Value(None));
        assert_eq!(results[3], PipelineResult::Value(Some(Value::from(1))));
        assert_eq!(store.stats().round_trips, 1);
        assert_eq!(store.stats().pipeline_flushes, 1);
        assert_eq!(conn.get("c").unwrap(), Some(Value::from(3)));
    }

    #[test]
    fn flush_ack_lost_applies_batch_and_reports_failure() {
        use kar_types::{FaultInjector, FaultPlan, FaultSite, FaultSpec};
        let plan = FaultPlan::new(5).with_site(
            FaultSite::StoreFlush,
            FaultSpec::ack_lost(1.0).with_budget(1),
        );
        let store = Store::with_config(StoreConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..StoreConfig::default()
        });
        let conn = store.connect(ComponentId::from_raw(1));
        let mut pipe = conn.pipeline();
        pipe.set("a", Value::from(1)).set("b", Value::from(2));
        let err = pipe.flush().unwrap_err();
        assert!(err.is_transient(), "injected ack loss classifies transient");
        // The whole batch applied even though the flush reported failure.
        assert_eq!(store.admin_get("a"), Some(Value::from(1)));
        assert_eq!(store.admin_get("b"), Some(Value::from(2)));
        // Budget spent: replaying the idempotent batch succeeds cleanly.
        let mut pipe = conn.pipeline();
        pipe.set("a", Value::from(1)).set("b", Value::from(2));
        pipe.flush().unwrap();
    }

    #[test]
    fn result_accessors() {
        assert_eq!(
            PipelineResult::Value(Some(Value::from(1))).into_value(),
            Some(Value::from(1))
        );
        assert_eq!(PipelineResult::Unit.into_value(), None);
        assert_eq!(PipelineResult::Flag(true).flag(), Some(true));
        assert_eq!(PipelineResult::Unit.flag(), None);
        assert_eq!(PipelineResult::Cas(Ok(())).into_cas(), Some(Ok(())));
        assert!(PipelineResult::Hash(BTreeMap::new()).into_hash().is_some());
        assert!(PipelineResult::Unit.into_hash().is_none());
    }
}
