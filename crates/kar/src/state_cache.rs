//! An actor's state image: the in-memory copy of its persistent state hash.
//!
//! The real KAR runtime keeps each active actor's state hash in memory and
//! talks to Redis only at well-defined points; this module reproduces that
//! for `ctx.state()`. Every resident actor's slot owns one [`StateImage`]
//! (`ComponentCore::actors`), and the invocations running the actor hold a
//! handle to it:
//!
//! * **Read-through**: an actor's first state access loads the whole durable
//!   hash with one `hgetall`; subsequent reads are answered from memory.
//! * **Write-behind, flush-before-respond**: writes (`set`, `set_multi`,
//!   `remove`, `clear`) are buffered in memory and made durable by
//!   [`StateImage::flush`] as **one** pipelined store round trip. The
//!   component flushes strictly *before* sending the invocation's
//!   response or tail-call continuation, so any completion a caller
//!   observes implies the state it acknowledged is durable. A kill between the flush
//!   and the send leaves a durable-but-unacknowledged state, exactly the
//!   case retry orchestration already handles (the retry re-executes and
//!   overwrites).
//!
//! The store key is formatted only when an image talks to the store — its
//! load and its flush — never per access.
//!
//! An image leaves memory with its slot: when its actor is passivated (the
//! idle sweep, or an eviction at admission — both refuse an image with
//! buffered writes or a handle still out) or its component is killed. When
//! recovery completes, a clean image is conservatively unloaded in place
//! ([`StateImage::unload_if_clean`]) and reloads on its next access; one with
//! buffered writes belongs to an invocation still running locally (placement
//! never moves an actor off a *live* component, so it stays authoritative)
//! and is kept.
//!
//! Concurrency: one actor's invocations are temporally serialized by the
//! actor lock (reentrant frames interleave on the same call chain, never in
//! parallel), so the image's own mutex suffices; it is never held across a
//! flush's acknowledgement. Lock order: the actors lock, then an image.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use kar_store::Connection;
use kar_types::{ActorRef, Completion, KarResult, Value};

use crate::context::state_key;
use crate::faults::{retry_transient, TRANSIENT_ATTEMPTS};

/// The in-memory image of one actor's persistent state hash.
#[derive(Debug, Default)]
struct CachedState {
    /// True once the durable hash has been read through.
    loaded: bool,
    /// The durable image as of the last load or flush.
    fields: BTreeMap<String, Value>,
    /// Buffered writes since the last flush: `Some` = set, `None` = delete.
    dirty: BTreeMap<String, Option<Value>>,
    /// A buffered whole-hash clear, applied before `dirty` on flush.
    cleared: bool,
    /// Bumped by every buffered write: a flush folds its writes into the
    /// durable image only if nothing was buffered since it was submitted.
    writes: u64,
}

impl CachedState {
    fn has_pending(&self) -> bool {
        self.cleared || !self.dirty.is_empty()
    }

    /// The current (buffered-writes-applied) value of one field.
    fn effective_get(&self, field: &str) -> Option<Value> {
        if let Some(pending) = self.dirty.get(field) {
            return pending.clone();
        }
        if self.cleared {
            return None;
        }
        self.fields.get(field).cloned()
    }

    /// True if the current (buffered-writes-applied) hash has no fields.
    /// Derived without cloning any value, unlike [`CachedState::effective_all`].
    fn effective_is_empty(&self) -> bool {
        if self.dirty.values().any(Option::is_some) {
            return false;
        }
        if self.cleared {
            return true;
        }
        // No pending sets: non-empty iff some durable field is not shadowed
        // by a pending delete.
        self.fields
            .keys()
            .all(|field| matches!(self.dirty.get(field), Some(None)))
    }

    /// The current (buffered-writes-applied) whole hash.
    fn effective_all(&self) -> BTreeMap<String, Value> {
        let mut all = if self.cleared {
            BTreeMap::new()
        } else {
            self.fields.clone()
        };
        for (field, pending) in &self.dirty {
            match pending {
                Some(value) => {
                    all.insert(field.clone(), value.clone());
                }
                None => {
                    all.remove(field);
                }
            }
        }
        all
    }
}

/// One state flush between its submit and its acknowledgement (see
/// [`StateImage::submit_flush`]).
#[derive(Debug)]
pub(crate) struct PendingFlush {
    /// The image's write count when the flush was submitted.
    writes: u64,
}

/// One actor's buffered writes at the instant [`StateImage::savepoint`] was
/// called.
#[derive(Debug)]
pub(crate) struct Savepoint {
    dirty: BTreeMap<String, Option<Value>>,
    cleared: bool,
}

/// One resident actor's state image, shared by its slot and the
/// invocations running the actor. Cloning clones the handle, not the image.
#[derive(Debug, Clone, Default)]
pub(crate) struct StateImage(Arc<Mutex<CachedState>>);

impl StateImage {
    /// The image, locked, with `actor`'s durable hash read through first if
    /// it is not loaded yet.
    fn loaded(
        &self,
        conn: &Connection,
        actor: &ActorRef,
    ) -> KarResult<MutexGuard<'_, CachedState>> {
        let mut state = self.0.lock();
        if !state.loaded {
            // A read is idempotent: a transient store fault is replayed here
            // instead of failing the whole invocation into the retry lane.
            let key = state_key(actor);
            state.fields = retry_transient(TRANSIENT_ATTEMPTS, || conn.hgetall(&key))?;
            state.loaded = true;
        }
        Ok(state)
    }

    /// Reads one field through the image.
    pub(crate) fn get(
        &self,
        conn: &Connection,
        actor: &ActorRef,
        field: &str,
    ) -> KarResult<Option<Value>> {
        Ok(self.loaded(conn, actor)?.effective_get(field))
    }

    /// Buffers a field write, returning the previous (effective) value.
    pub(crate) fn set(
        &self,
        conn: &Connection,
        actor: &ActorRef,
        field: &str,
        value: Value,
    ) -> KarResult<Option<Value>> {
        let mut state = self.loaded(conn, actor)?;
        let previous = state.effective_get(field);
        state.dirty.insert(field.to_owned(), Some(value));
        state.writes += 1;
        Ok(previous)
    }

    /// Buffers several field writes.
    pub(crate) fn set_multi(
        &self,
        conn: &Connection,
        actor: &ActorRef,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> KarResult<()> {
        let mut state = self.loaded(conn, actor)?;
        for (field, value) in entries {
            state.dirty.insert(field, Some(value));
        }
        state.writes += 1;
        Ok(())
    }

    /// Buffers a field delete, returning the previous (effective) value.
    pub(crate) fn remove(
        &self,
        conn: &Connection,
        actor: &ActorRef,
        field: &str,
    ) -> KarResult<Option<Value>> {
        let mut state = self.loaded(conn, actor)?;
        let previous = state.effective_get(field);
        state.dirty.insert(field.to_owned(), None);
        state.writes += 1;
        Ok(previous)
    }

    /// Reads the whole hash through the image.
    pub(crate) fn get_all(
        &self,
        conn: &Connection,
        actor: &ActorRef,
    ) -> KarResult<BTreeMap<String, Value>> {
        Ok(self.loaded(conn, actor)?.effective_all())
    }

    /// Buffers a whole-hash clear, returning true if the hash (effectively)
    /// existed.
    pub(crate) fn clear_hash(&self, conn: &Connection, actor: &ActorRef) -> KarResult<bool> {
        let mut state = self.loaded(conn, actor)?;
        let existed = !state.effective_is_empty();
        state.cleared = true;
        state.dirty.clear();
        state.writes += 1;
        Ok(existed)
    }

    /// Makes the buffered writes durable as one store round trip (a pure
    /// `set` batch is a single `hset_multi` command; mixes involving deletes
    /// or a clear go through one pipeline flush) and waits for its
    /// acknowledgement. On success the buffered writes are folded into the
    /// durable image; a clean image flushes for free, with zero round trips.
    /// [`StateImage::submit_flush`] followed by [`StateImage::finish_flush`]
    /// with the wait in between — for the passivation sweep and whoever else
    /// may block; an invocation on a reactor parks between the two instead.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected; the image is emptied (the component's copy is no
    /// longer authoritative) and nothing was applied. A *transient* store
    /// failure ([`kar_types::KarError::is_transient`]) keeps the image and
    /// its buffered writes intact instead: the batch is pure sets/deletes —
    /// idempotent — so the caller replays the flush, and a gray failure
    /// whose ack was lost after the batch applied is absorbed by the replay.
    pub(crate) fn flush(&self, conn: &Connection, actor: &ActorRef) -> KarResult<()> {
        match self.submit_flush(conn, actor)? {
            None => Ok(()),
            Some((pending, completion)) => self.finish_flush(pending, completion.wait()),
        }
    }

    /// Submits the buffered writes as one store round trip to `actor`'s
    /// hash: they are **applied when this returns**, and the returned
    /// completion says when the round trip is acknowledged. The image is not
    /// touched yet — hand the acknowledgement, once it is due, to
    /// [`StateImage::finish_flush`]. `None` when nothing is buffered (no
    /// round trip).
    ///
    /// # Errors
    ///
    /// A flush refused at submit applied nothing: `KarError::Fenced` empties
    /// the image, an injected transient fault keeps it for a replay.
    pub(crate) fn submit_flush(
        &self,
        conn: &Connection,
        actor: &ActorRef,
    ) -> KarResult<Option<(PendingFlush, Completion<()>)>> {
        let mut state = self.0.lock();
        if !state.has_pending() {
            return Ok(None);
        }
        let key = state_key(actor);
        let sets: Vec<(String, Value)> = state
            .dirty
            .iter()
            .filter_map(|(field, value)| value.clone().map(|v| (field.clone(), v)))
            .collect();
        let dels: Vec<&String> = state
            .dirty
            .iter()
            .filter(|(_, value)| value.is_none())
            .map(|(field, _)| field)
            .collect();
        let submitted = if state.cleared {
            let mut pipe = conn.pipeline();
            pipe.hclear(&key);
            if !sets.is_empty() {
                pipe.hset_multi(&key, sets);
            }
            pipe.submit().map(discard_results)
        } else if dels.is_empty() {
            conn.submit_hset_multi(&key, sets)
        } else {
            let mut pipe = conn.pipeline();
            if !sets.is_empty() {
                pipe.hset_multi(&key, sets);
            }
            for field in dels {
                pipe.hdel(&key, field);
            }
            pipe.submit().map(discard_results)
        };
        let writes = state.writes;
        match submitted {
            Ok(completion) => Ok(Some((PendingFlush { writes }, completion))),
            Err(error) => Err(flush_failed(&mut state, error)),
        }
    }

    /// The acknowledgement of a submitted flush is in. `Ok` folds the
    /// now-durable writes into the image (unless something was buffered
    /// since the submit — then they stay buffered, and the next flush
    /// rewrites them along with the newer ones: idempotent); an error is
    /// handled as [`StateImage::flush`] documents and handed back.
    pub(crate) fn finish_flush(
        &self,
        pending: PendingFlush,
        acked: KarResult<()>,
    ) -> KarResult<()> {
        let mut state = self.0.lock();
        if let Err(error) = acked {
            return Err(flush_failed(&mut state, error));
        }
        if state.writes != pending.writes {
            return Ok(());
        }
        if state.cleared {
            state.fields.clear();
            state.cleared = false;
        }
        let dirty = std::mem::take(&mut state.dirty);
        for (field, value) in dirty {
            match value {
                Some(v) => {
                    state.fields.insert(field, v);
                }
                None => {
                    state.fields.remove(&field);
                }
            }
        }
        Ok(())
    }

    /// Captures the buffered (not yet durable) writes as they stand now, for
    /// [`StateImage::rollback`]. Cheap when nothing is buffered.
    pub(crate) fn savepoint(&self) -> Savepoint {
        let state = self.0.lock();
        Savepoint {
            dirty: state.dirty.clone(),
            cleared: state.cleared,
        }
    }

    /// Puts the buffered writes back to `savepoint`, un-writing whatever was
    /// buffered since. Nothing was flushed in between (the caller is the
    /// invocation holding the actor), so the durable image is untouched.
    pub(crate) fn rollback(&self, savepoint: Savepoint) {
        let mut state = self.0.lock();
        state.dirty = savepoint.dirty;
        state.cleared = savepoint.cleared;
        state.writes += 1;
    }

    /// True once the durable hash has been read through (and not unloaded
    /// since).
    pub(crate) fn is_loaded(&self) -> bool {
        self.0.lock().loaded
    }

    /// True when the image may leave memory with its slot: nothing but the
    /// slot holds it, and it has no buffered writes. Handles are only handed
    /// out under the actors lock, which the caller holds, so the count check
    /// cannot race a new borrower; a handle still out would otherwise take
    /// its writes to an image no later flush can find.
    pub(crate) fn may_drop(&self) -> bool {
        Arc::strong_count(&self.0) == 1 && !self.0.lock().has_pending()
    }

    /// Unloads a clean image in place (recovery completed: conservative
    /// refresh); its next access reloads the durable hash. An image with
    /// buffered writes belongs to an invocation still executing locally and
    /// is kept. A handle held meanwhile stays valid: its next access reloads,
    /// and its flush finds its writes.
    pub(crate) fn unload_if_clean(&self) {
        let mut state = self.0.lock();
        if !state.has_pending() {
            state.loaded = false;
            state.fields.clear();
        }
    }
}

/// A flush failed with `error`: only a dead epoch empties the image (its
/// buffered writes die with the component's authority); a transient infra
/// error leaves them for the caller to replay.
fn flush_failed(state: &mut CachedState, error: kar_types::KarError) -> kar_types::KarError {
    if !error.is_transient() {
        *state = CachedState::default();
    }
    error
}

/// A pipeline flush's completion, its per-command results dropped.
fn discard_results<T>(completion: Completion<T>) -> Completion<()> {
    Completion {
        due: completion.due,
        result: completion.result.map(drop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_store::Store;
    use kar_types::ComponentId;

    fn setup() -> (Store, Connection, StateImage) {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        (store, conn, StateImage::default())
    }

    fn actor(name: &str) -> ActorRef {
        ActorRef::new("A", name)
    }

    #[test]
    fn read_through_loads_once_and_buffers_writes() {
        let (store, conn, image) = setup();
        let a = actor("a");
        conn.hset("state/A/a", "seed", Value::from(1)).unwrap();
        let before = store.stats();
        assert_eq!(image.get(&conn, &a, "seed").unwrap(), Some(Value::from(1)));
        assert_eq!(image.set(&conn, &a, "x", Value::from(2)).unwrap(), None);
        assert_eq!(
            image.get(&conn, &a, "x").unwrap(),
            Some(Value::from(2)),
            "buffered write must be visible to the activation"
        );
        let delta = store.stats().since(&before);
        assert_eq!(delta.round_trips, 1, "one hgetall, writes buffered");
        // The store does not see the write until the flush.
        assert!(!store.admin_hgetall("state/A/a").contains_key("x"));
        image.flush(&conn, &a).unwrap();
        assert_eq!(
            store.admin_hgetall("state/A/a")["x"],
            Value::from(2),
            "flush makes buffered writes durable"
        );
        // A clean image re-flushes for free.
        let before = store.stats();
        image.flush(&conn, &a).unwrap();
        assert_eq!(store.stats().since(&before).round_trips, 0);
    }

    #[test]
    fn removes_and_clears_flush_through_one_pipeline() {
        let (store, conn, image) = setup();
        let k = actor("k");
        conn.hset_multi(
            "state/A/k",
            [
                ("a".to_string(), Value::from(1)),
                ("b".to_string(), Value::from(2)),
            ],
        )
        .unwrap();
        assert_eq!(image.remove(&conn, &k, "a").unwrap(), Some(Value::from(1)));
        image.set(&conn, &k, "c", Value::from(3)).unwrap();
        let before = store.stats();
        image.flush(&conn, &k).unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(delta.round_trips, 1, "mixed set+del is one flush");
        assert_eq!(delta.pipeline_flushes, 1);
        let durable = store.admin_hgetall("state/A/k");
        assert!(!durable.contains_key("a"));
        assert_eq!(durable["b"], Value::from(2));
        assert_eq!(durable["c"], Value::from(3));

        // clear + set: the clear applies first.
        assert!(image.clear_hash(&conn, &k).unwrap());
        image.set(&conn, &k, "fresh", Value::from(9)).unwrap();
        assert_eq!(image.get_all(&conn, &k).unwrap().len(), 1);
        image.flush(&conn, &k).unwrap();
        let durable = store.admin_hgetall("state/A/k");
        assert_eq!(durable.len(), 1);
        assert_eq!(durable["fresh"], Value::from(9));
        assert!(!StateImage::default()
            .clear_hash(&conn, &actor("missing"))
            .unwrap());
    }

    #[test]
    fn fenced_flush_drops_the_entry_and_applies_nothing() {
        let (store, conn, image) = setup();
        let k = actor("k");
        image.set(&conn, &k, "x", Value::from(1)).unwrap();
        store.fence(ComponentId::from_raw(1));
        assert!(image.flush(&conn, &k).unwrap_err().is_fenced());
        assert!(!image.is_loaded(), "a fenced image must be emptied");
        assert!(image.may_drop(), "and hold no buffered writes");
        assert!(store.admin_hgetall("state/A/k").is_empty());
    }

    #[test]
    fn transient_flush_failure_keeps_the_entry_for_replay() {
        use crate::faults::{FaultPlan, FaultSite, FaultSpec};
        use kar_store::StoreConfig;
        use kar_types::FaultInjector;

        // Exactly one ack-lost fault on the pipeline-flush path: the batch
        // *applies* but the flush reports failure. The image must keep its
        // buffered writes so the replay (idempotent sets/deletes) converges
        // on the same durable image.
        let plan = FaultPlan::new(11).with_site(
            FaultSite::StoreFlush,
            FaultSpec::ack_lost(1.0).with_budget(1),
        );
        let store = Store::with_config(StoreConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..StoreConfig::default()
        });
        let conn = store.connect(ComponentId::from_raw(1));
        let image = StateImage::default();
        let k = actor("k");
        conn.hset("state/A/k", "stale", Value::from(0)).unwrap();
        image.set(&conn, &k, "v", Value::from(1)).unwrap();
        image.remove(&conn, &k, "stale").unwrap();

        let err = image.flush(&conn, &k).unwrap_err();
        assert!(err.is_transient(), "injected gray failure: {err:?}");
        assert!(!image.may_drop(), "transient failure must keep the writes");
        // The ack was lost *after* the batch applied.
        assert_eq!(store.admin_hgetall("state/A/k")["v"], Value::from(1));

        image.flush(&conn, &k).unwrap();
        let durable = store.admin_hgetall("state/A/k");
        assert_eq!(durable["v"], Value::from(1));
        assert!(!durable.contains_key("stale"));
        // Replay folded the writes in: the image is clean again.
        image.flush(&conn, &k).unwrap();
        assert!(image.may_drop());
    }

    #[test]
    fn invalidation_keeps_dirty_entries() {
        let (store, conn, clean) = setup();
        let dirty = StateImage::default();
        conn.hset("state/A/dirty", "x", Value::from(0)).unwrap();
        clean.get(&conn, &actor("clean"), "x").unwrap();
        dirty
            .set(&conn, &actor("dirty"), "x", Value::from(1))
            .unwrap();
        clean.unload_if_clean();
        dirty.unload_if_clean();
        assert!(!clean.is_loaded(), "the clean image is unloaded");
        assert!(dirty.is_loaded(), "the dirty image is kept");
        dirty.flush(&conn, &actor("dirty")).unwrap();
        assert_eq!(store.admin_hgetall("state/A/dirty")["x"], Value::from(1));
        dirty.unload_if_clean();
        assert!(!dirty.is_loaded(), "a flushed image is clean again");
    }

    #[test]
    fn a_write_through_a_handle_held_across_an_unload_is_flushed() {
        // A handler holds the image while recovery unloads it: its write
        // reloads the image and lands in it, and the completion's flush
        // makes it durable.
        let (store, conn, image) = setup();
        let a = actor("a");
        conn.hset("state/A/a", "kept", Value::from(1)).unwrap();
        image.get(&conn, &a, "kept").unwrap();
        let handle = image.clone();
        image.unload_if_clean();
        handle.set(&conn, &a, "x", Value::from(2)).unwrap();
        assert_eq!(handle.get(&conn, &a, "kept").unwrap(), Some(Value::from(1)));
        image.flush(&conn, &a).unwrap();
        let durable = store.admin_hgetall("state/A/a");
        assert_eq!(
            durable["x"],
            Value::from(2),
            "an acknowledged write was lost"
        );
        assert_eq!(durable["kept"], Value::from(1));
    }

    #[test]
    fn rollback_unwrites_what_was_buffered_since_the_savepoint() {
        let (store, conn, image) = setup();
        let a = actor("a");
        image.set(&conn, &a, "kept", Value::from(1)).unwrap();
        let savepoint = image.savepoint();
        image.set(&conn, &a, "kept", Value::from(2)).unwrap();
        image.set(&conn, &a, "done", Value::from(true)).unwrap();
        image.clear_hash(&conn, &a).unwrap();
        image.rollback(savepoint);
        assert_eq!(image.get(&conn, &a, "kept").unwrap(), Some(Value::from(1)));
        assert_eq!(image.get(&conn, &a, "done").unwrap(), None);
        image.flush(&conn, &a).unwrap();
        let durable = store.admin_hgetall("state/A/a");
        assert_eq!(durable.len(), 1, "only the write before the savepoint");
        assert_eq!(durable["kept"], Value::from(1));
    }

    #[test]
    fn passivate_removes_only_clean_unreferenced_entries() {
        let (store, conn, image) = setup();
        assert!(image.may_drop(), "an untouched image holds nothing");

        let d = actor("dirty");
        image.set(&conn, &d, "v", Value::from(1)).unwrap();
        assert!(!image.may_drop(), "buffered writes pin the image");

        image.flush(&conn, &d).unwrap();
        let handle = image.clone();
        assert!(!image.may_drop(), "a held handle pins the image");
        drop(handle);
        assert!(image.may_drop(), "clean and unreferenced: droppable");
        // The flushed image survives in the store for rehydration.
        assert_eq!(store.admin_hgetall("state/A/dirty")["v"], Value::from(1));
    }
}
