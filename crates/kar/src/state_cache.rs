//! An actor's state image: the in-memory copy of its persistent state hash.
//!
//! The real KAR runtime keeps each active actor's state hash in memory and
//! talks to Redis only at well-defined points; this module reproduces that
//! for `ctx.state()`. Every resident actor's slot owns one [`StateImage`]
//! (`ComponentCore::actors`), and the invocations running the actor hold a
//! handle to it:
//!
//! * **Loaded ahead of the handler**: an invocation whose actor's image is
//!   not loaded submits one `hgetall` ([`StateImage::submit_load`]) and
//!   parks until it is acknowledged; its handler runs once the fields are in
//!   the image, and every read is answered from memory. No accessor talks to
//!   the store, and a handler never sees an unloaded image — except one a
//!   fenced load or flush emptied, which answers `KarError::Fenced`.
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
//! A load and a flush are the same shape: submitted, acknowledged at a due
//! time, then handed to [`StateImage::finish`]. The store key is formatted
//! only at a submit, never per access.
//!
//! An image leaves memory with its slot: when its actor is passivated (the
//! idle sweep, or an eviction at admission — both refuse an image with
//! buffered writes or a handle still out) or its component is killed. When
//! recovery completes, an image that could leave with its slot — clean, and
//! held by no invocation — is conservatively unloaded in place
//! ([`StateImage::unload_if_idle`]), and the next invocation reloads it ahead
//! of its handler. Any other image belongs to an invocation still running or
//! parked locally (placement never moves an actor off a *live* component, so
//! it stays authoritative) and is kept loaded.
//!
//! Concurrency: one actor's invocations are temporally serialized by the
//! actor lock (reentrant frames interleave on the same call chain, never in
//! parallel), so the image's own mutex suffices; it is never held across a
//! load's or flush's acknowledgement. Lock order: the actors lock, then an
//! image.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use kar_store::Connection;
use kar_types::{ActorRef, Completion, KarError, KarResult, Value};

use crate::context::state_key;

/// The in-memory image of one actor's persistent state hash.
#[derive(Debug, Default)]
struct CachedState {
    /// True once the durable hash has been loaded.
    loaded: bool,
    /// The error of the fenced load or flush that emptied the image: every
    /// accessor answers it from then on. Boxed, so a live image pays one
    /// pointer for it.
    fenced: Option<Box<KarError>>,
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

/// What an acknowledged load or flush brings back ([`StateImage::finish`]).
#[derive(Debug)]
pub(crate) enum Acked {
    /// The durable hash, read by [`StateImage::submit_load`].
    Loaded(BTreeMap<String, Value>),
    /// The buffered writes as of the image's write count `writes` are durable.
    Flushed { writes: u64 },
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
    /// The image, locked, for an accessor. A handler never sees an unloaded
    /// image — its invocation loaded it ahead of the handler, and holds it —
    /// but one a fenced load or flush emptied: that one answers the fence.
    fn loaded(&self) -> KarResult<MutexGuard<'_, CachedState>> {
        let state = self.0.lock();
        if let Some(error) = &state.fenced {
            return Err((**error).clone());
        }
        debug_assert!(state.loaded, "a state image was read before its load");
        Ok(state)
    }

    /// Reads one field through the image.
    pub(crate) fn get(&self, field: &str) -> KarResult<Option<Value>> {
        Ok(self.loaded()?.effective_get(field))
    }

    /// Buffers a field write, returning the previous (effective) value.
    pub(crate) fn set(&self, field: &str, value: Value) -> KarResult<Option<Value>> {
        let mut state = self.loaded()?;
        let previous = state.effective_get(field);
        state.dirty.insert(field.to_owned(), Some(value));
        state.writes += 1;
        Ok(previous)
    }

    /// Buffers several field writes.
    pub(crate) fn set_multi(
        &self,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> KarResult<()> {
        let mut state = self.loaded()?;
        for (field, value) in entries {
            state.dirty.insert(field, Some(value));
        }
        state.writes += 1;
        Ok(())
    }

    /// Buffers a field delete, returning the previous (effective) value.
    pub(crate) fn remove(&self, field: &str) -> KarResult<Option<Value>> {
        let mut state = self.loaded()?;
        let previous = state.effective_get(field);
        state.dirty.insert(field.to_owned(), None);
        state.writes += 1;
        Ok(previous)
    }

    /// Reads the whole hash through the image.
    pub(crate) fn get_all(&self) -> KarResult<BTreeMap<String, Value>> {
        Ok(self.loaded()?.effective_all())
    }

    /// Buffers a whole-hash clear, returning true if the hash (effectively)
    /// existed.
    pub(crate) fn clear_hash(&self) -> KarResult<bool> {
        let mut state = self.loaded()?;
        let existed = !state.effective_is_empty();
        state.cleared = true;
        state.dirty.clear();
        state.writes += 1;
        Ok(existed)
    }

    /// Submits the read of `actor`'s durable hash (one `hgetall`), whose
    /// completion — hand it, once due, to [`StateImage::finish`] — carries
    /// the fields. `None` when the image is loaded already.
    ///
    /// # Errors
    ///
    /// As [`StateImage::submit_flush`]'s: nothing was read.
    pub(crate) fn submit_load(
        &self,
        conn: &Connection,
        actor: &ActorRef,
    ) -> KarResult<Option<Completion<Acked>>> {
        let mut state = self.0.lock();
        if state.loaded {
            return Ok(None);
        }
        match conn.submit_hgetall(&state_key(actor)) {
            Ok(completion) => Ok(Some(completion.map(Acked::Loaded))),
            Err(error) => Err(io_failed(&mut state, error)),
        }
    }

    /// Makes the buffered writes durable as one store round trip (a pure
    /// `set` batch is a single `hset_multi` command; mixes involving deletes
    /// or a clear go through one pipeline flush) and waits for its
    /// acknowledgement: [`StateImage::submit_flush`], the wait, then
    /// [`StateImage::finish`] — for the passivation sweep, which may block;
    /// an invocation on a reactor parks between the two instead. A clean
    /// image flushes for free, with zero round trips.
    ///
    /// # Errors
    ///
    /// `KarError::Fenced` empties the image (the component's copy is no
    /// longer authoritative), and nothing was applied. A *transient* failure
    /// keeps the buffered writes for a replay: the batch is pure
    /// sets/deletes, so a replay absorbs an ack lost after it applied.
    pub(crate) fn flush(&self, conn: &Connection, actor: &ActorRef) -> KarResult<()> {
        match self.submit_flush(conn, actor)? {
            None => Ok(()),
            Some(completion) => self.finish(completion.wait()),
        }
    }

    /// Submits the buffered writes as one store round trip to `actor`'s
    /// hash: they are **applied when this returns**, and the returned
    /// completion says when the round trip is acknowledged. The image is not
    /// touched yet — hand the acknowledgement, once it is due, to
    /// [`StateImage::finish`]. `None` when nothing is buffered (no round
    /// trip).
    ///
    /// # Errors
    ///
    /// A flush refused at submit applied nothing: `KarError::Fenced` empties
    /// the image, an injected transient fault keeps it for a replay.
    pub(crate) fn submit_flush(
        &self,
        conn: &Connection,
        actor: &ActorRef,
    ) -> KarResult<Option<Completion<Acked>>> {
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
            pipe.submit().map(|done| done.map(drop))
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
            pipe.submit().map(|done| done.map(drop))
        };
        let writes = state.writes;
        match submitted {
            Ok(completion) => Ok(Some(completion.map(|()| Acked::Flushed { writes }))),
            Err(error) => Err(io_failed(&mut state, error)),
        }
    }

    /// The acknowledgement of a submitted load or flush is in. A load fills
    /// the image with the durable hash. A flush folds the now-durable writes
    /// into it — unless something was buffered since the submit: then they
    /// stay buffered, and the next flush rewrites them along with the newer
    /// ones (idempotent). An error is handled as [`StateImage::flush`]
    /// documents — a fenced load empties the image too — and handed back.
    pub(crate) fn finish(&self, acked: KarResult<Acked>) -> KarResult<()> {
        let mut state = self.0.lock();
        match acked {
            Err(error) => Err(io_failed(&mut state, error)),
            Ok(Acked::Loaded(fields)) if !state.loaded => {
                state.fields = fields;
                state.loaded = true;
                Ok(())
            }
            Ok(Acked::Flushed { writes }) if writes == state.writes => {
                if std::mem::take(&mut state.cleared) {
                    state.fields.clear();
                }
                for (field, value) in std::mem::take(&mut state.dirty) {
                    match value {
                        Some(v) => state.fields.insert(field, v),
                        None => state.fields.remove(&field),
                    };
                }
                Ok(())
            }
            // Loaded meanwhile, or written to since the flush was submitted.
            Ok(_) => Ok(()),
        }
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

    /// True once the durable hash has been loaded (and not unloaded since).
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

    /// Unloads the image in place if it [may drop](StateImage::may_drop)
    /// (recovery completed: a conservative refresh); the next invocation
    /// reloads it ahead of its handler. An image a handle holds — a running
    /// handler, a parked continuation — stays loaded, so no handler ever
    /// sees one unloaded under it; the caller holds the actors lock.
    pub(crate) fn unload_if_idle(&self) {
        if self.may_drop() {
            let mut state = self.0.lock();
            state.loaded = false;
            state.fields.clear();
        }
    }
}

/// A load or flush failed with `error`: only a dead epoch empties the image
/// (its buffered writes die with the component's authority, and every
/// accessor answers the fence from then on); a transient infra error leaves
/// it for the caller to replay.
fn io_failed(state: &mut CachedState, error: KarError) -> KarError {
    if !error.is_transient() {
        *state = CachedState {
            fenced: Some(Box::new(error.clone())),
            ..CachedState::default()
        };
    }
    error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultSite, FaultSpec};
    use kar_store::{Store, StoreConfig};
    use kar_types::{ComponentId, FaultInjector};

    fn setup() -> (Store, Connection, StateImage) {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        (store, conn, StateImage::default())
    }

    /// A store whose `site` fails one command as `spec` says.
    fn faulty(site: FaultSite, spec: FaultSpec) -> (Store, Connection) {
        let plan = FaultPlan::new(11).with_site(site, spec.with_budget(1));
        let store = Store::with_config(StoreConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..StoreConfig::default()
        });
        let conn = store.connect(ComponentId::from_raw(1));
        (store, conn)
    }

    fn actor(name: &str) -> ActorRef {
        ActorRef::new("A", name)
    }

    /// What an invocation's start does before its handler runs: submits the
    /// load, waits for its ack and finishes it.
    fn load(image: &StateImage, conn: &Connection, actor: &ActorRef) -> KarResult<()> {
        match image.submit_load(conn, actor)? {
            None => Ok(()),
            Some(completion) => image.finish(completion.wait()),
        }
    }

    /// A fresh image of `actor`, loaded.
    fn loaded(conn: &Connection, actor: &ActorRef) -> StateImage {
        let image = StateImage::default();
        load(&image, conn, actor).unwrap();
        image
    }

    #[test]
    fn read_through_loads_once_and_buffers_writes() {
        let (store, conn, image) = setup();
        let a = actor("a");
        conn.hset("state/A/a", "seed", Value::from(1)).unwrap();
        let before = store.stats();
        load(&image, &conn, &a).unwrap();
        assert!(image.is_loaded());
        load(&image, &conn, &a).unwrap();
        assert_eq!(image.get("seed").unwrap(), Some(Value::from(1)));
        assert_eq!(image.set("x", Value::from(2)).unwrap(), None);
        assert_eq!(
            image.get("x").unwrap(),
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
        let (store, conn, _) = setup();
        let k = actor("k");
        conn.hset_multi(
            "state/A/k",
            [
                ("a".to_string(), Value::from(1)),
                ("b".to_string(), Value::from(2)),
            ],
        )
        .unwrap();
        let image = loaded(&conn, &k);
        assert_eq!(image.remove("a").unwrap(), Some(Value::from(1)));
        image.set("c", Value::from(3)).unwrap();
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
        assert!(image.clear_hash().unwrap());
        image.set("fresh", Value::from(9)).unwrap();
        assert_eq!(image.get_all().unwrap().len(), 1);
        image.flush(&conn, &k).unwrap();
        let durable = store.admin_hgetall("state/A/k");
        assert_eq!(durable.len(), 1);
        assert_eq!(durable["fresh"], Value::from(9));
        assert!(!loaded(&conn, &actor("missing")).clear_hash().unwrap());
    }

    /// Every accessor of `image` answers `Fenced`.
    fn assert_fenced(image: &StateImage) {
        assert!(image.get("x").unwrap_err().is_fenced());
        assert!(image.set("x", Value::from(2)).unwrap_err().is_fenced());
        assert!(image.set_multi([]).unwrap_err().is_fenced());
        assert!(image.remove("x").unwrap_err().is_fenced());
        assert!(image.get_all().unwrap_err().is_fenced());
        assert!(image.clear_hash().unwrap_err().is_fenced());
    }

    #[test]
    fn fenced_flush_drops_the_entry_and_applies_nothing() {
        let (store, conn, _) = setup();
        let k = actor("k");
        let image = loaded(&conn, &k);
        image.set("x", Value::from(1)).unwrap();
        store.fence(ComponentId::from_raw(1));
        assert!(image.flush(&conn, &k).unwrap_err().is_fenced());
        assert!(!image.is_loaded(), "a fenced image must be emptied");
        assert!(image.may_drop(), "and hold no buffered writes");
        assert!(store.admin_hgetall("state/A/k").is_empty());
        assert_fenced(&image);
    }

    #[test]
    fn a_fenced_load_leaves_the_image_unloaded_and_every_accessor_answers_fenced() {
        let (store, conn, image) = setup();
        let a = actor("a");
        conn.hset("state/A/a", "x", Value::from(1)).unwrap();
        store.fence(ComponentId::from_raw(1));
        assert!(image.submit_load(&conn, &a).unwrap_err().is_fenced());
        assert!(!image.is_loaded(), "a fenced load reads nothing in");
        assert_fenced(&image);
        assert!(image.may_drop());
    }

    #[test]
    fn a_transient_load_refusal_loads_nothing_and_a_replay_loads() {
        let (store, conn) = faulty(FaultSite::StoreCommand, FaultSpec::transient(1.0));
        let a = actor("a");
        store.admin_hset("state/A/a", "x", Value::from(1));
        let image = StateImage::default();
        let error = image.submit_load(&conn, &a).unwrap_err();
        assert!(error.is_transient(), "injected refusal: {error:?}");
        assert!(!image.is_loaded(), "a refused load reads nothing in");
        // The replay — what the invocation's start does next.
        load(&image, &conn, &a).unwrap();
        assert_eq!(image.get("x").unwrap(), Some(Value::from(1)));
    }

    #[test]
    fn a_lost_load_ack_is_replayed() {
        let (store, conn) = faulty(FaultSite::StoreCommand, FaultSpec::ack_lost(1.0));
        let a = actor("a");
        store.admin_hset("state/A/a", "x", Value::from(1));
        let image = StateImage::default();
        let completion = image.submit_load(&conn, &a).unwrap().expect("unloaded");
        let error = image.finish(completion.wait()).unwrap_err();
        assert!(error.is_transient(), "injected ack loss: {error:?}");
        assert!(!image.is_loaded(), "a lost ack brings no fields");
        load(&image, &conn, &a).unwrap();
        assert_eq!(image.get("x").unwrap(), Some(Value::from(1)));
    }

    #[test]
    fn transient_flush_failure_keeps_the_entry_for_replay() {
        // Exactly one ack-lost fault on the pipeline-flush path: the batch
        // *applies* but the flush reports failure. The image must keep its
        // buffered writes so the replay (idempotent sets/deletes) converges
        // on the same durable image.
        let (store, conn) = faulty(FaultSite::StoreFlush, FaultSpec::ack_lost(1.0));
        let k = actor("k");
        conn.hset("state/A/k", "stale", Value::from(0)).unwrap();
        let image = loaded(&conn, &k);
        image.set("v", Value::from(1)).unwrap();
        image.remove("stale").unwrap();

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
        // The refresh unloads only an image that could leave with its slot:
        // clean, and held by nobody but the slot.
        let (store, conn, _) = setup();
        conn.hset("state/A/dirty", "x", Value::from(0)).unwrap();
        let clean = loaded(&conn, &actor("clean"));
        let dirty = loaded(&conn, &actor("dirty"));
        dirty.set("x", Value::from(1)).unwrap();
        clean.unload_if_idle();
        dirty.unload_if_idle();
        assert!(!clean.is_loaded(), "the clean image is unloaded");
        assert!(dirty.is_loaded(), "the dirty image is kept");
        dirty.flush(&conn, &actor("dirty")).unwrap();
        assert_eq!(store.admin_hgetall("state/A/dirty")["x"], Value::from(1));
        dirty.unload_if_idle();
        assert!(!dirty.is_loaded(), "a flushed image is clean again");
        // Unloaded, it reloads ahead of the next handler.
        load(&dirty, &conn, &actor("dirty")).unwrap();
        assert_eq!(dirty.get("x").unwrap(), Some(Value::from(1)));
    }

    #[test]
    fn a_write_through_a_handle_held_across_an_unload_is_flushed() {
        // A handler holds the image while recovery refreshes the slots: the
        // refresh leaves the held clean image loaded, the handler's reads
        // and write go on in memory, and the completion's flush makes the
        // write durable.
        let (store, conn, _) = setup();
        let a = actor("a");
        conn.hset("state/A/a", "kept", Value::from(1)).unwrap();
        let image = loaded(&conn, &a);
        let handle = image.clone();
        image.unload_if_idle();
        assert!(image.is_loaded(), "the refresh unloaded a held image");
        let before = store.stats();
        handle.set("x", Value::from(2)).unwrap();
        assert_eq!(handle.get("kept").unwrap(), Some(Value::from(1)));
        assert_eq!(store.stats().since(&before).round_trips, 0);
        image.flush(&conn, &a).unwrap();
        let durable = store.admin_hgetall("state/A/a");
        assert_eq!(
            durable["x"],
            Value::from(2),
            "an acknowledged write was lost"
        );
        assert_eq!(durable["kept"], Value::from(1));
        // Let go of, the clean image is refreshed.
        drop(handle);
        image.unload_if_idle();
        assert!(!image.is_loaded());
    }

    #[test]
    fn rollback_unwrites_what_was_buffered_since_the_savepoint() {
        let (store, conn, _) = setup();
        let a = actor("a");
        let image = loaded(&conn, &a);
        image.set("kept", Value::from(1)).unwrap();
        let savepoint = image.savepoint();
        image.set("kept", Value::from(2)).unwrap();
        image.set("done", Value::from(true)).unwrap();
        image.clear_hash().unwrap();
        image.rollback(savepoint);
        assert_eq!(image.get("kept").unwrap(), Some(Value::from(1)));
        assert_eq!(image.get("done").unwrap(), None);
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
        load(&image, &conn, &d).unwrap();
        image.set("v", Value::from(1)).unwrap();
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
