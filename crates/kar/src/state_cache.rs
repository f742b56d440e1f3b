//! The per-activation actor-state cache.
//!
//! The real KAR runtime keeps each active actor's state hash in memory and
//! talks to Redis only at well-defined points; this module reproduces that
//! for `ctx.state()`:
//!
//! * **Read-through**: an actor's first state access loads the whole durable
//!   hash with one `hgetall`; subsequent reads are answered from memory.
//! * **Write-behind, flush-before-respond**: writes (`set`, `set_multi`,
//!   `remove`, `clear`) are buffered in memory and made durable by
//!   [`StateCache::flush`] as **one** pipelined store round trip. The
//!   component calls `flush` strictly *before* sending the invocation's
//!   response or tail-call continuation, so any completion a caller
//!   observes implies the state it acknowledged is durable. A kill between the flush
//!   and the send leaves a durable-but-unacknowledged state, exactly the
//!   case retry orchestration already handles (the retry re-executes and
//!   overwrites).
//!
//! Entries are invalidated when the component is killed or fenced (its
//! in-memory image dies with it) and — conservatively — when recovery
//! completes ([`StateCache::invalidate_clean`]): entries with buffered
//! writes belong to invocations still running locally (placement never moves
//! an actor off a *live* component, so their image stays authoritative) and
//! are kept; clean entries are cheap to drop and reload.
//!
//! **Eviction** rides the queue-retention clock, like the runtime's other
//! aged bookkeeping: every touch stamps the entry with the current
//! generation, the owner advances the generation once per (time-compressed)
//! retention window ([`StateCache::maybe_age`], driven from the heartbeat
//! loop), and a *clean* entry untouched for two generations — its actor has
//! been idle for one to two full windows — is dropped and re-loaded on next
//! touch. A component hosting millions of transient actors therefore stops
//! accumulating state images; dirty entries are never evicted (their
//! buffered writes belong to an invocation that has not flushed yet).
//!
//! Concurrency: one actor's invocations are temporally serialized by the
//! actor lock (reentrant frames interleave on the same call chain, never in
//! parallel), so a per-entry mutex suffices; the outer map lock is only held
//! to look entries up, never across a store round trip.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_store::Connection;
use kar_types::{Completion, KarResult, Value};

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
    /// Eviction generation at the entry's last touch; an entry two
    /// generations stale (idle one to two retention windows) is an eviction
    /// candidate if clean.
    touched: u64,
    /// Bumped by every buffered write: a flush folds its writes into the
    /// durable image only if nothing was buffered since it was submitted.
    writes: u64,
}

impl CachedState {
    fn has_pending(&self) -> bool {
        self.cleared || !self.dirty.is_empty()
    }

    fn ensure_loaded(&mut self, conn: &Connection, key: &str) -> KarResult<()> {
        if !self.loaded {
            // A read is idempotent: a transient store fault is replayed here
            // instead of failing the whole invocation into the retry lane.
            self.fields = retry_transient(TRANSIENT_ATTEMPTS, || conn.hgetall(key))?;
            self.loaded = true;
        }
        Ok(())
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
/// [`StateCache::submit_flush`]).
#[derive(Debug)]
pub(crate) struct PendingFlush {
    entry: Arc<Mutex<CachedState>>,
    /// The entry's write count when the flush was submitted.
    writes: u64,
}

/// One actor's buffered writes at the instant [`StateCache::savepoint`] was
/// called.
#[derive(Debug)]
pub(crate) struct Savepoint {
    dirty: BTreeMap<String, Option<Value>>,
    cleared: bool,
}

/// The per-component map of cached actor states, keyed by state-hash key.
#[derive(Debug)]
pub(crate) struct StateCache {
    entries: Mutex<HashMap<String, Arc<Mutex<CachedState>>>>,
    /// Current eviction generation; advanced once per interval by
    /// [`StateCache::maybe_age`].
    generation: AtomicU64,
    /// Clean entries evicted after idling for a retention window.
    evictions: AtomicU64,
    /// The (time-compressed) retention window driving the generations.
    interval: Duration,
    /// Wall-clock time of the last generation advance.
    last_rotation: Mutex<Duration>,
}

impl StateCache {
    /// Creates an empty cache whose idle entries age out on `interval` (the
    /// time-compressed retention window; clamped to 1 ms so a zero-compressed
    /// retention cannot spin-advance the generation).
    pub(crate) fn new(interval: Duration) -> Self {
        StateCache {
            entries: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            interval: interval.max(Duration::from_millis(1)),
            last_rotation: Mutex::new(kar_types::mono_now()),
        }
    }

    fn entry(&self, key: &str) -> Arc<Mutex<CachedState>> {
        let entry = self
            .entries
            .lock()
            .entry(key.to_owned())
            .or_default()
            .clone();
        // Every touch refreshes the generation stamp: an actor in active use
        // never becomes an eviction candidate.
        entry.lock().touched = self.generation.load(Ordering::Relaxed);
        entry
    }

    /// Number of cached actor states (tests and debugging).
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Number of clean entries evicted for idleness since creation.
    pub(crate) fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Advances the eviction generation if the retention interval elapsed,
    /// dropping every *clean* entry untouched for two generations (idle one
    /// to two retention windows — by then its actor's queue records have
    /// expired too, so the activation is genuinely cold). Dirty entries are
    /// always kept: their buffered writes belong to a running invocation.
    /// Returns the number of entries evicted.
    ///
    /// An entry is also kept while any caller still holds its handle
    /// (`Arc::strong_count > 1`): a mutator that has cloned the `Arc` out of
    /// the map but not yet locked it would otherwise buffer its write into
    /// an orphaned image that no later flush can find, silently dropping the
    /// invocation's state writes. Handing a clone out requires the map lock
    /// held here, so the count check cannot race a new borrower.
    pub(crate) fn maybe_age(&self, now: Duration) -> usize {
        {
            let mut last = self.last_rotation.lock();
            if now.saturating_sub(*last) < self.interval {
                return 0;
            }
            *last = now;
        }
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let mut dropped = 0;
        self.entries.lock().retain(|_, entry| {
            if Arc::strong_count(entry) > 1 {
                return true;
            }
            let state = entry.lock();
            let keep = state.has_pending() || state.touched + 2 > generation;
            if !keep {
                dropped += 1;
            }
            keep
        });
        self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Reads one field through the cache.
    pub(crate) fn get(
        &self,
        conn: &Connection,
        key: &str,
        field: &str,
    ) -> KarResult<Option<Value>> {
        let entry = self.entry(key);
        let mut state = entry.lock();
        state.ensure_loaded(conn, key)?;
        Ok(state.effective_get(field))
    }

    /// Buffers a field write, returning the previous (effective) value.
    pub(crate) fn set(
        &self,
        conn: &Connection,
        key: &str,
        field: &str,
        value: Value,
    ) -> KarResult<Option<Value>> {
        let entry = self.entry(key);
        let mut state = entry.lock();
        state.ensure_loaded(conn, key)?;
        let previous = state.effective_get(field);
        state.dirty.insert(field.to_owned(), Some(value));
        state.writes += 1;
        Ok(previous)
    }

    /// Buffers several field writes.
    pub(crate) fn set_multi(
        &self,
        conn: &Connection,
        key: &str,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> KarResult<()> {
        let entry = self.entry(key);
        let mut state = entry.lock();
        state.ensure_loaded(conn, key)?;
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
        key: &str,
        field: &str,
    ) -> KarResult<Option<Value>> {
        let entry = self.entry(key);
        let mut state = entry.lock();
        state.ensure_loaded(conn, key)?;
        let previous = state.effective_get(field);
        state.dirty.insert(field.to_owned(), None);
        state.writes += 1;
        Ok(previous)
    }

    /// Reads the whole hash through the cache.
    pub(crate) fn get_all(
        &self,
        conn: &Connection,
        key: &str,
    ) -> KarResult<BTreeMap<String, Value>> {
        let entry = self.entry(key);
        let mut state = entry.lock();
        state.ensure_loaded(conn, key)?;
        Ok(state.effective_all())
    }

    /// Buffers a whole-hash clear, returning true if the hash (effectively)
    /// existed.
    pub(crate) fn clear_hash(&self, conn: &Connection, key: &str) -> KarResult<bool> {
        let entry = self.entry(key);
        let mut state = entry.lock();
        state.ensure_loaded(conn, key)?;
        let existed = !state.effective_is_empty();
        state.cleared = true;
        state.dirty.clear();
        state.writes += 1;
        Ok(existed)
    }

    /// Makes the buffered writes of `key` durable as one store round trip
    /// (a pure `set` batch is a single `hset_multi` command; mixes involving
    /// deletes or a clear go through one pipeline flush) and waits for its
    /// acknowledgement. On success the buffered writes are folded into the
    /// durable image; a clean entry flushes for free, with zero round trips.
    /// [`StateCache::submit_flush`] followed by [`StateCache::finish_flush`]
    /// with the wait in between — for the passivation sweep and whoever else
    /// may block; an invocation on a reactor parks between the two instead.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected; the entry is dropped (the component's image is no
    /// longer authoritative) and nothing was applied. A *transient* store
    /// failure ([`kar_types::KarError::is_transient`]) keeps the entry and
    /// its buffered writes intact instead: the batch is pure sets/deletes —
    /// idempotent — so the caller replays the flush, and a gray failure
    /// whose ack was lost after the batch applied is absorbed by the replay.
    pub(crate) fn flush(&self, conn: &Connection, key: &str) -> KarResult<()> {
        match self.submit_flush(conn, key)? {
            None => Ok(()),
            Some((pending, completion)) => self.finish_flush(key, pending, completion.wait()),
        }
    }

    /// Submits the buffered writes of `key` as one store round trip: they
    /// are **applied when this returns**, and the returned completion says
    /// when the round trip is acknowledged. The cached image is not touched
    /// yet — hand the acknowledgement, once it is due, to
    /// [`StateCache::finish_flush`]. `None` when nothing is buffered (no
    /// round trip).
    ///
    /// # Errors
    ///
    /// A flush refused at submit applied nothing: `KarError::Fenced` drops
    /// the entry, an injected transient fault keeps it for a replay.
    pub(crate) fn submit_flush(
        &self,
        conn: &Connection,
        key: &str,
    ) -> KarResult<Option<(PendingFlush, Completion<()>)>> {
        let Some(entry) = self.entries.lock().get(key).cloned() else {
            return Ok(None);
        };
        let state = entry.lock();
        if !state.has_pending() {
            return Ok(None);
        }
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
            pipe.hclear(key);
            if !sets.is_empty() {
                pipe.hset_multi(key, sets);
            }
            pipe.submit().map(discard_results)
        } else if dels.is_empty() {
            conn.submit_hset_multi(key, sets)
        } else {
            let mut pipe = conn.pipeline();
            if !sets.is_empty() {
                pipe.hset_multi(key, sets);
            }
            for field in dels {
                pipe.hdel(key, field);
            }
            pipe.submit().map(discard_results)
        };
        let writes = state.writes;
        drop(state);
        match submitted {
            Ok(completion) => Ok(Some((PendingFlush { entry, writes }, completion))),
            Err(error) => Err(self.flush_failed(key, error)),
        }
    }

    /// The acknowledgement of a submitted flush is in. `Ok` folds the
    /// now-durable writes into the cached image (unless something was
    /// buffered since the submit — then they stay buffered, and the next
    /// flush rewrites them along with the newer ones: idempotent); an error
    /// is handled as [`StateCache::flush`] documents and handed back.
    pub(crate) fn finish_flush(
        &self,
        key: &str,
        pending: PendingFlush,
        acked: KarResult<()>,
    ) -> KarResult<()> {
        if let Err(error) = acked {
            return Err(self.flush_failed(key, error));
        }
        let mut state = pending.entry.lock();
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

    /// A flush of `key` failed with `error`: only a dead epoch invalidates
    /// the image; a transient infra error leaves the dirty entry for the
    /// caller to replay.
    fn flush_failed(&self, key: &str, error: kar_types::KarError) -> kar_types::KarError {
        if !error.is_transient() {
            self.entries.lock().remove(key);
        }
        error
    }

    /// Captures the buffered (not yet durable) writes of `key` as they stand
    /// now, for [`StateCache::rollback`]. Cheap when nothing is buffered.
    pub(crate) fn savepoint(&self, key: &str) -> Savepoint {
        let entry = self.entry(key);
        let state = entry.lock();
        Savepoint {
            dirty: state.dirty.clone(),
            cleared: state.cleared,
        }
    }

    /// Puts the buffered writes of `key` back to `savepoint`, un-writing
    /// whatever was buffered since. Nothing was flushed in between (the
    /// caller is the invocation holding the actor), so the durable image is
    /// untouched. A no-op if the entry is gone (the component was killed or
    /// fenced: its buffered writes died with it).
    pub(crate) fn rollback(&self, key: &str, savepoint: Savepoint) {
        let Some(entry) = self.entries.lock().get(key).cloned() else {
            return;
        };
        let mut state = entry.lock();
        state.dirty = savepoint.dirty;
        state.cleared = savepoint.cleared;
        state.writes += 1;
    }

    /// Drops one actor's entry for passivation, but only if it is safe:
    /// nothing else holds its handle and it has no buffered writes (the idle
    /// sweep flushes first; an eviction at admission never flushes, so it
    /// only ever takes a clean actor). Returns true when the actor's slot
    /// may be dropped — the entry was removed, or there was none — and false
    /// when the entry must stay (it holds writes no flush has made durable,
    /// or the actor is in use).
    ///
    /// The `strong_count` check is the same no-orphaned-image rule as
    /// [`StateCache::maybe_age`]: handing a handle out requires the map
    /// lock held here, so the check cannot race a new borrower.
    pub(crate) fn passivate(&self, key: &str) -> bool {
        let mut entries = self.entries.lock();
        let Some(entry) = entries.get(key) else {
            return true;
        };
        if Arc::strong_count(entry) > 1 {
            return false;
        }
        if entry.lock().has_pending() {
            return false;
        }
        entries.remove(key);
        true
    }

    /// Drops every entry (the component was killed or fenced: its in-memory
    /// image dies with it, and its unflushed writes with it — no completion
    /// was sent for them).
    pub(crate) fn invalidate_all(&self) {
        self.entries.lock().clear();
    }

    /// Drops every entry with no buffered writes (recovery completed:
    /// conservative refresh). Entries with pending writes belong to
    /// invocations still executing locally — placement never moves an actor
    /// off a live component, so their image remains authoritative and
    /// dropping it would lose acknowledged-soon writes.
    pub(crate) fn invalidate_clean(&self) {
        self.entries
            .lock()
            .retain(|_, entry| entry.lock().has_pending());
    }
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

    fn setup() -> (Store, Connection, StateCache) {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        (store, conn, StateCache::new(Duration::from_millis(1)))
    }

    #[test]
    fn read_through_loads_once_and_buffers_writes() {
        let (store, conn, cache) = setup();
        conn.hset("state/A/a", "seed", Value::from(1)).unwrap();
        let before = store.stats();
        assert_eq!(
            cache.get(&conn, "state/A/a", "seed").unwrap(),
            Some(Value::from(1))
        );
        assert_eq!(
            cache.set(&conn, "state/A/a", "x", Value::from(2)).unwrap(),
            None
        );
        assert_eq!(
            cache.get(&conn, "state/A/a", "x").unwrap(),
            Some(Value::from(2)),
            "buffered write must be visible to the activation"
        );
        let delta = store.stats().since(&before);
        assert_eq!(delta.round_trips, 1, "one hgetall, writes buffered");
        // The store does not see the write until the flush.
        assert!(!store.admin_hgetall("state/A/a").contains_key("x"));
        cache.flush(&conn, "state/A/a").unwrap();
        assert_eq!(
            store.admin_hgetall("state/A/a")["x"],
            Value::from(2),
            "flush makes buffered writes durable"
        );
        // A clean entry re-flushes for free.
        let before = store.stats();
        cache.flush(&conn, "state/A/a").unwrap();
        assert_eq!(store.stats().since(&before).round_trips, 0);
    }

    #[test]
    fn removes_and_clears_flush_through_one_pipeline() {
        let (store, conn, cache) = setup();
        conn.hset_multi(
            "k",
            [
                ("a".to_string(), Value::from(1)),
                ("b".to_string(), Value::from(2)),
            ],
        )
        .unwrap();
        assert_eq!(cache.remove(&conn, "k", "a").unwrap(), Some(Value::from(1)));
        cache.set(&conn, "k", "c", Value::from(3)).unwrap();
        let before = store.stats();
        cache.flush(&conn, "k").unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(delta.round_trips, 1, "mixed set+del is one flush");
        assert_eq!(delta.pipeline_flushes, 1);
        let durable = store.admin_hgetall("k");
        assert!(!durable.contains_key("a"));
        assert_eq!(durable["b"], Value::from(2));
        assert_eq!(durable["c"], Value::from(3));

        // clear + set: the clear applies first.
        assert!(cache.clear_hash(&conn, "k").unwrap());
        cache.set(&conn, "k", "fresh", Value::from(9)).unwrap();
        assert_eq!(cache.get_all(&conn, "k").unwrap().len(), 1);
        cache.flush(&conn, "k").unwrap();
        let durable = store.admin_hgetall("k");
        assert_eq!(durable.len(), 1);
        assert_eq!(durable["fresh"], Value::from(9));
        assert!(!cache.clear_hash(&conn, "missing").unwrap());
    }

    #[test]
    fn fenced_flush_drops_the_entry_and_applies_nothing() {
        let (store, conn, cache) = setup();
        cache.set(&conn, "k", "x", Value::from(1)).unwrap();
        store.fence(ComponentId::from_raw(1));
        assert!(cache.flush(&conn, "k").unwrap_err().is_fenced());
        assert_eq!(cache.len(), 0, "fenced entry must be invalidated");
        assert!(store.admin_hgetall("k").is_empty());
    }

    #[test]
    fn transient_flush_failure_keeps_the_entry_for_replay() {
        use crate::faults::{FaultPlan, FaultSite, FaultSpec};
        use kar_store::StoreConfig;
        use kar_types::FaultInjector;
        use std::sync::Arc;

        // Exactly one ack-lost fault on the pipeline-flush path: the batch
        // *applies* but the flush reports failure. The entry must survive
        // with its buffered writes so the replay (idempotent sets/deletes)
        // converges on the same durable image.
        let plan = FaultPlan::new(11).with_site(
            FaultSite::StoreFlush,
            FaultSpec::ack_lost(1.0).with_budget(1),
        );
        let store = Store::with_config(StoreConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..StoreConfig::default()
        });
        let conn = store.connect(ComponentId::from_raw(1));
        let cache = StateCache::new(Duration::from_millis(1));
        conn.hset("k", "stale", Value::from(0)).unwrap();
        cache.set(&conn, "k", "v", Value::from(1)).unwrap();
        cache.remove(&conn, "k", "stale").unwrap();

        let err = cache.flush(&conn, "k").unwrap_err();
        assert!(err.is_transient(), "injected gray failure: {err:?}");
        assert_eq!(cache.len(), 1, "transient failure must keep the entry");
        // The ack was lost *after* the batch applied.
        assert_eq!(store.admin_hgetall("k")["v"], Value::from(1));

        cache.flush(&conn, "k").unwrap();
        let durable = store.admin_hgetall("k");
        assert_eq!(durable["v"], Value::from(1));
        assert!(!durable.contains_key("stale"));
        // Replay folded the writes in: the entry is clean again.
        cache.flush(&conn, "k").unwrap();
        assert!(cache.passivate("k"));
    }

    #[test]
    fn idle_clean_entries_age_out_and_reload_on_next_touch() {
        let (store, conn, cache) = setup();
        conn.hset("state/A/idle", "v", Value::from(1)).unwrap();
        cache.get(&conn, "state/A/idle", "v").unwrap();
        cache
            .set(&conn, "state/A/dirty", "v", Value::from(2))
            .unwrap();
        assert_eq!(cache.len(), 2);

        let t = kar_types::mono_now();
        // One generation idle: not yet a candidate.
        assert_eq!(cache.maybe_age(t + Duration::from_millis(2)), 0);
        // A second advance within the interval is a no-op.
        assert_eq!(cache.maybe_age(t + Duration::from_millis(2)), 0);
        assert_eq!(cache.len(), 2);
        // Two generations idle: the clean entry is dropped, the dirty entry
        // (its invocation has not flushed) is kept.
        assert_eq!(cache.maybe_age(t + Duration::from_millis(4)), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.eviction_count(), 1);

        // The evicted actor re-loads through the durable image on next touch.
        assert_eq!(
            cache.get(&conn, "state/A/idle", "v").unwrap(),
            Some(Value::from(1))
        );
        let _ = store;
    }

    #[test]
    fn entries_with_an_outstanding_handle_are_never_evicted() {
        // The eviction/mutation race: a writer clones the entry Arc out of
        // the map, is descheduled, and two generations pass before it locks
        // and buffers its write. Eviction must keep the entry alive while
        // any handle is out, or the write would land on an orphaned image
        // and a later flush would silently drop it.
        let (store, conn, cache) = setup();
        cache.get(&conn, "k", "v").unwrap();
        let handle = cache.entry("k");
        let t = kar_types::mono_now();
        cache.maybe_age(t + Duration::from_millis(2));
        assert_eq!(
            cache.maybe_age(t + Duration::from_millis(4)),
            0,
            "entry evicted while a mutator still held its handle"
        );
        assert_eq!(cache.len(), 1);
        // The descheduled writer finally lands its write; the flush must
        // still find (and persist) it.
        handle.lock().dirty.insert("v".into(), Some(Value::from(7)));
        drop(handle);
        cache.flush(&conn, "k").unwrap();
        assert_eq!(store.admin_hgetall("k")["v"], Value::from(7));
        // With the handle dropped and the entry clean again, idleness
        // eviction proceeds as usual.
        let evicted = cache.maybe_age(t + Duration::from_millis(6))
            + cache.maybe_age(t + Duration::from_millis(8));
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn touches_refresh_the_eviction_stamp() {
        let (_store, conn, cache) = setup();
        cache.get(&conn, "state/A/hot", "v").unwrap();
        let t = kar_types::mono_now();
        cache.maybe_age(t + Duration::from_millis(2));
        // Touched between generations: survives the next sweep.
        cache.get(&conn, "state/A/hot", "v").unwrap();
        assert_eq!(cache.maybe_age(t + Duration::from_millis(4)), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.eviction_count(), 0);
    }

    #[test]
    fn invalidation_keeps_dirty_entries() {
        let (_store, conn, cache) = setup();
        cache.get(&conn, "clean", "x").unwrap();
        cache.set(&conn, "dirty", "x", Value::from(1)).unwrap();
        assert_eq!(cache.len(), 2);
        cache.invalidate_clean();
        assert_eq!(cache.len(), 1, "only the clean entry is dropped");
        cache.flush(&conn, "dirty").unwrap();
        cache.invalidate_clean();
        assert_eq!(cache.len(), 0, "flushed entries are clean again");
        cache.set(&conn, "dirty", "x", Value::from(1)).unwrap();
        cache.invalidate_all();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn rollback_unwrites_what_was_buffered_since_the_savepoint() {
        let (store, conn, cache) = setup();
        cache.set(&conn, "a", "kept", Value::from(1)).unwrap();
        let savepoint = cache.savepoint("a");
        cache.set(&conn, "a", "kept", Value::from(2)).unwrap();
        cache.set(&conn, "a", "done", Value::from(true)).unwrap();
        cache.clear_hash(&conn, "a").unwrap();
        cache.rollback("a", savepoint);
        assert_eq!(cache.get(&conn, "a", "kept").unwrap(), Some(Value::from(1)));
        assert_eq!(cache.get(&conn, "a", "done").unwrap(), None);
        cache.flush(&conn, "a").unwrap();
        let durable = store.admin_hgetall("a");
        assert_eq!(durable.len(), 1, "only the write before the savepoint");
        assert_eq!(durable["kept"], Value::from(1));

        // An entry dropped meanwhile (kill, fence) stays dropped.
        let savepoint = cache.savepoint("a");
        cache.invalidate_all();
        cache.rollback("a", savepoint);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn passivate_removes_only_clean_unreferenced_entries() {
        let (store, conn, cache) = setup();
        assert!(cache.passivate("absent"), "no entry means nothing to keep");

        cache.set(&conn, "dirty", "v", Value::from(1)).unwrap();
        assert!(!cache.passivate("dirty"), "buffered writes pin the entry");
        assert_eq!(cache.len(), 1);

        cache.flush(&conn, "dirty").unwrap();
        let handle = cache.entry("dirty");
        assert!(!cache.passivate("dirty"), "a held handle pins the entry");
        drop(handle);
        assert!(cache.passivate("dirty"), "clean and unreferenced: dropped");
        assert_eq!(cache.len(), 0);
        // The flushed image survives in the store for rehydration.
        assert_eq!(store.admin_hgetall("dirty")["v"], Value::from(1));
    }
}
