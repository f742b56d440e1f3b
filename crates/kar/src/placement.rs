//! Actor placement: compare-and-swap on the store plus a per-component cache.
//!
//! Components announce the actor types they host (§4.1), one field each in
//! the type's [`hosts_key`] hash. The first invocation
//! of an actor instance places it on a compatible live component using a
//! compare-and-swap on the store; subsequent invocations hit the placement
//! cache. Placement decisions for actors hosted by failed components are
//! invalidated during reconciliation, and caches are flushed when recovery
//! completes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use kar_store::Connection;
use kar_types::{ActorRef, ComponentId, KarError, KarResult, Value, WaitSignal};

/// The set of components currently believed to be live, shared by every
/// component of a mesh and refreshed on every completed rebalance.
pub type LiveSet = Arc<RwLock<HashSet<ComponentId>>>;

/// Store key holding the placement of `actor`.
pub fn placement_key(actor: &ActorRef) -> String {
    format!("placement/{}", actor.qualified_name())
}

/// Store hash announcing the components that host actor type `actor_type`:
/// one [`host_field`] per component. A placement miss reads it with one
/// `hgetall` — O(hosts), never a scan of the keyspace.
pub fn hosts_key(actor_type: &str) -> String {
    format!("hosts/{actor_type}")
}

/// The field of a [`hosts_key`] hash announcing `component`.
pub fn host_field(component: ComponentId) -> String {
    component.as_u64().to_string()
}

/// The components of an announcement hash that pass `is_live`, sorted.
pub(crate) fn live_announced(
    hosts: &BTreeMap<String, Value>,
    is_live: impl Fn(ComponentId) -> bool,
) -> Vec<ComponentId> {
    let mut live: Vec<ComponentId> = hosts
        .keys()
        .filter_map(|field| field.parse::<u64>().ok())
        .map(ComponentId::from_raw)
        .filter(|component| is_live(*component))
        .collect();
    live.sort();
    live
}

/// A read-only snapshot of the placement cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to go to the store (cold, stale-epoch, or pointing
    /// at a dead component).
    pub misses: u64,
    /// Cache invalidation events: epoch bumps (recovery-driven
    /// [`PlacementService::clear_cache`]) plus entries lazily evicted
    /// because their epoch was stale or their component dead.
    pub invalidations: u64,
    /// Admissions that skipped placement resolution entirely because their
    /// dispatch slot carried an "ownership verified in epoch E" stamp from
    /// the current cache epoch (see `ComponentCore::admit_request`). Hot
    /// actors pay zero placement work per request between recoveries.
    pub slot_hits: u64,
}

/// One placement per actor, tagged with the cache epoch it was inserted in.
/// Entries from older epochs are treated as misses and lazily evicted —
/// which is what makes [`PlacementService::clear_cache`] O(1): recovery bumps
/// the epoch instead of locking every shard to drain it, so readers never
/// stall behind a clear.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    component: ComponentId,
    epoch: u64,
}

/// Entries one generation of a cache shard holds before it rotates.
const GENERATION_ENTRIES: usize = 4096;

/// One shard of the cache, in two generations (the `AgingSet` idiom on a
/// size trigger instead of a clock, so the simulator sees no time in it): an
/// insert into a full young generation retires it to `old` and drops the
/// previous `old`; a hit in `old` moves the entry back to `young`. A shard
/// therefore never holds more than 2 × [`GENERATION_ENTRIES`] placements,
/// the ones in use stay, and its tables stop doubling with every actor a
/// component has ever called.
#[derive(Debug, Default)]
struct CacheShard {
    young: HashMap<ActorRef, CacheEntry>,
    old: HashMap<ActorRef, CacheEntry>,
}

impl CacheShard {
    /// Inserts into the young generation. Returns the generation this
    /// retired, for the caller to drop once the shard is unlocked.
    fn insert(
        &mut self,
        actor: ActorRef,
        entry: CacheEntry,
    ) -> Option<HashMap<ActorRef, CacheEntry>> {
        let retired = (self.young.len() >= GENERATION_ENTRIES)
            .then(|| std::mem::replace(&mut self.old, std::mem::take(&mut self.young)));
        self.young.insert(actor, entry);
        retired
    }

    /// Removes from both generations: two resolutions racing each other can
    /// leave a second copy in `old`.
    fn remove(&mut self, actor: &ActorRef) -> Option<CacheEntry> {
        let young = self.young.remove(actor);
        self.old.remove(actor).or(young)
    }

    fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.young.values().chain(self.old.values())
    }
}

/// The sharded placement cache: actors hash onto shards, so concurrent
/// consumer lanes resolving placements contend only when they race on the
/// same shard — never on one global cache lock.
#[derive(Debug)]
struct ShardedCache {
    shards: Vec<Mutex<CacheShard>>,
    epoch: AtomicU64,
}

impl ShardedCache {
    fn new(shards: usize) -> Self {
        ShardedCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    fn shard(&self, actor: &ActorRef) -> &Mutex<CacheShard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        actor.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Per-component placement service.
#[derive(Debug)]
pub struct PlacementService {
    conn: Connection,
    live: LiveSet,
    cache: Option<ShardedCache>,
    /// Bumped by [`PlacementService::clear_cache`] (recovery completed on
    /// this component, so stale placements have been repaired). Edge threads
    /// waiting out a stale placement park here between attempts — the
    /// `poll_wait` condvar idiom of `wait_for_recoveries` — instead of
    /// sleep-polling the store.
    repaired: WaitSignal,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    slot_hits: AtomicU64,
}

impl PlacementService {
    /// Creates a placement service using the given (fenced) store connection.
    /// `cache_shards` is ignored when the cache is disabled.
    pub fn new(conn: Connection, live: LiveSet, cache_enabled: bool, cache_shards: usize) -> Self {
        PlacementService {
            conn,
            live,
            cache: cache_enabled.then(|| ShardedCache::new(cache_shards)),
            repaired: WaitSignal::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            slot_hits: AtomicU64::new(0),
        }
    }

    /// The stamp admission writes into a dispatch slot once it has verified
    /// actor ownership: the current cache epoch, or `None` when the cache is
    /// disabled (stamping would then never be invalidated, so it is off).
    /// A recovery-driven [`PlacementService::clear_cache`] bumps the epoch,
    /// invalidating every outstanding stamp in O(1).
    pub fn ownership_stamp(&self) -> Option<u64> {
        self.cache.as_ref().map(ShardedCache::current_epoch)
    }

    /// Counts one admission that skipped placement resolution thanks to a
    /// current-epoch slot stamp.
    pub(crate) fn note_slot_hit(&self) {
        self.slot_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Invalidates the whole placement cache (called when recovery
    /// completes, §4.1). Epoch-based: bumps the cache epoch in O(1) instead
    /// of draining every shard under its lock, so concurrent readers are
    /// never stalled behind recovery. Entries from older epochs are lazily
    /// evicted on their next lookup.
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.epoch.fetch_add(1, Ordering::AcqRel);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        // Recovery just repaired placements: wake resolvers parked on a
        // stale one. Bumped outside the cache guard so cache-less services
        // still wake their waiters.
        self.repaired.bump();
    }

    /// Drops one actor's cached placement (passivation: the actor's whole
    /// in-memory footprint goes, so a host's cache follows its resident
    /// set; the placements of actors a component only *calls* are bounded by
    /// the shards' two generations instead). The *store* record is
    /// untouched: the actor is still placed here, just not resident; the
    /// rehydrating admission re-resolves and re-caches it.
    pub(crate) fn forget(&self, actor: &ActorRef) {
        if let Some(cache) = &self.cache {
            if cache.shard(actor).lock().remove(actor).is_some() {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of cached placements in the current epoch (used by tests and
    /// benchmarks). Walks every shard; not a hot-path operation.
    pub fn cache_len(&self) -> usize {
        let Some(cache) = &self.cache else { return 0 };
        let epoch = cache.current_epoch();
        cache
            .shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .entries()
                    .filter(|entry| entry.epoch == epoch)
                    .count()
            })
            .sum()
    }

    /// Number of cache shards (0 when the cache is disabled).
    pub fn cache_shards(&self) -> usize {
        self.cache.as_ref().map_or(0, |cache| cache.shards.len())
    }

    /// Current repair-signal sequence. Pair with
    /// [`PlacementService::wait_for_repair`]: snapshot before a
    /// [`PlacementService::resolve_nowait`] attempt, so a repair landing
    /// between the lookup and the wait wakes the waiter at once.
    pub fn repair_epoch(&self) -> u64 {
        self.repaired.current()
    }

    /// Parks until a reconciliation repair lands (the repair signal moves
    /// past `seen`) or `timeout` expires: what an edge thread does between
    /// two [`PlacementService::resolve_nowait`] attempts. Each wait is capped
    /// by its caller, so repairs made without a local cache clear — e.g. the
    /// leader rewriting a placement while re-homing an orphan when a fresh
    /// component joins — are still picked up promptly. A reactor never waits
    /// here: its round parks until the next attempt is due.
    pub fn wait_for_repair(&self, seen: u64, timeout: Duration) {
        self.repaired.wait(seen, timeout);
    }

    /// A snapshot of the hit/miss/invalidation counters.
    pub fn counters(&self) -> PlacementCounters {
        PlacementCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            slot_hits: self.slot_hits.load(Ordering::Relaxed),
        }
    }

    /// Cache lookup: a hit requires the entry to be from the current epoch
    /// and to point at a live component; anything else is a miss (and a
    /// lazily evicted entry, counted as an invalidation).
    fn cache_lookup(&self, actor: &ActorRef) -> Option<ComponentId> {
        let Some(cache) = self.cache.as_ref() else {
            // No cache: every resolution is a (counted) miss, so the bench's
            // cache-on/cache-off comparison sees the full lookup volume.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let epoch = cache.current_epoch();
        let mut shard = cache.shard(actor).lock();
        let mut retired = None;
        let entry = shard.young.get(actor).copied().or_else(|| {
            // In use again: back into the young generation.
            let entry = shard.old.remove(actor)?;
            retired = shard.insert(actor.clone(), entry);
            Some(entry)
        });
        let hit = match entry {
            Some(entry) if entry.epoch == epoch && self.is_live(entry.component) => {
                Some(entry.component)
            }
            Some(_) => {
                shard.young.remove(actor);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        drop(shard);
        drop(retired);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Caches a resolved placement. `epoch` must have been read (via
    /// [`PlacementService::cache_epoch`]) *before* the store lookup: if a
    /// clear races the resolution, the entry is inserted already-stale and
    /// ignored, instead of resurrecting a pre-recovery placement.
    fn cache_insert(&self, actor: &ActorRef, component: ComponentId, epoch: u64) {
        if let Some(cache) = &self.cache {
            let entry = CacheEntry { component, epoch };
            let retired = cache.shard(actor).lock().insert(actor.clone(), entry);
            drop(retired);
        }
    }

    /// The cache epoch to tag in-flight resolutions with.
    fn cache_epoch(&self) -> u64 {
        self.cache.as_ref().map_or(0, ShardedCache::current_epoch)
    }

    /// Resolves the component hosting `actor` — one attempt, never a wait —
    /// placing the actor on a compatible live component if it has no
    /// placement yet.
    ///
    /// Returns `Ok(None)` when the recorded placement points to a component
    /// that is not live: resolution has to wait for reconciliation to
    /// invalidate or rewrite it rather than double-place the actor. How to
    /// wait is the caller's business (`ComponentCore::place_once`: a reactor
    /// parks the round, an edge thread parks on the repair signal, both
    /// bounded by the call timeout).
    ///
    /// # Errors
    ///
    /// Fails with [`KarError::NoHostForActorType`] if no live component hosts
    /// the actor's type, or with a store error if the component has been
    /// fenced.
    pub fn resolve_nowait(&self, actor: &ActorRef) -> KarResult<Option<ComponentId>> {
        if let Some(component) = self.cache_lookup(actor) {
            return Ok(Some(component));
        }
        let epoch = self.cache_epoch();
        let resolved = self.resolve_uncached(actor)?;
        if let Some(component) = resolved {
            self.cache_insert(actor, component, epoch);
        }
        Ok(resolved)
    }

    /// One placement attempt. Returns `Ok(None)` when the recorded placement
    /// points at a dead component (the caller should retry after
    /// reconciliation has repaired it).
    fn resolve_uncached(&self, actor: &ActorRef) -> KarResult<Option<ComponentId>> {
        let key = placement_key(actor);
        let current = self.conn.get(&key)?;
        if let Some(value) = &current {
            if let Some(component) = component_from_value(value) {
                if self.is_live(component) {
                    return Ok(Some(component));
                }
                // Stale placement pointing at a failed component: wait for
                // reconciliation to invalidate it instead of racing it.
                return Ok(None);
            }
        }
        // No placement yet: pick a live host for the type and try to claim it.
        let candidates = self.live_hosts(actor.actor_type())?;
        if candidates.is_empty() {
            return Err(KarError::NoHostForActorType {
                actor_type: actor.actor_type().to_owned(),
            });
        }
        let pick = candidates[spread_index(actor, candidates.len())];
        match self
            .conn
            .compare_and_swap(&key, current.as_ref(), component_to_value(pick))?
        {
            Ok(()) => Ok(Some(pick)),
            Err(actual) => {
                // Lost the race: use whatever won if it is live.
                match actual.as_ref().and_then(component_from_value) {
                    Some(winner) if self.is_live(winner) => Ok(Some(winner)),
                    _ => Ok(None),
                }
            }
        }
    }

    /// The live components announcing support for `actor_type`, sorted: one
    /// `hgetall` of the type's announcement hash.
    pub fn live_hosts(&self, actor_type: &str) -> KarResult<Vec<ComponentId>> {
        let hosts = self.conn.hgetall(&hosts_key(actor_type))?;
        Ok(live_announced(&hosts, |c| self.is_live(c)))
    }

    fn is_live(&self, component: ComponentId) -> bool {
        self.live.read().contains(&component)
    }
}

/// Deterministically spreads actor instances across candidate hosts.
fn spread_index(actor: &ActorRef, candidates: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    actor.hash(&mut hasher);
    (hasher.finish() as usize) % candidates
}

/// Encodes a component id as a placement value.
pub fn component_to_value(component: ComponentId) -> Value {
    Value::Int(component.as_u64() as i64)
}

/// Decodes a placement value back into a component id.
pub fn component_from_value(value: &Value) -> Option<ComponentId> {
    value.as_i64().map(|raw| ComponentId::from_raw(raw as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_store::Store;

    fn live(ids: &[u64]) -> LiveSet {
        Arc::new(RwLock::new(
            ids.iter().map(|i| ComponentId::from_raw(*i)).collect(),
        ))
    }

    fn announce(store: &Store, actor_type: &str, component: u64) {
        store.admin_hset(
            &hosts_key(actor_type),
            &host_field(ComponentId::from_raw(component)),
            Value::Int(1),
        );
    }

    fn service(store: &Store, id: u64, live_set: &LiveSet, cache: bool) -> PlacementService {
        PlacementService::new(
            store.connect(ComponentId::from_raw(id)),
            live_set.clone(),
            cache,
            4,
        )
    }

    /// One resolution attempt that must not meet a stale placement.
    fn resolve(placement: &PlacementService, actor: &ActorRef) -> KarResult<ComponentId> {
        placement
            .resolve_nowait(actor)
            .map(|resolved| resolved.expect("no stale placement in this test"))
    }

    #[test]
    fn places_actor_on_a_live_host_and_caches_it() {
        let store = Store::new();
        announce(&store, "Order", 1);
        announce(&store, "Order", 2);
        let live_set = live(&[1, 2]);
        let placement = service(&store, 1, &live_set, true);
        let actor = ActorRef::new("Order", "o-1");
        let first = resolve(&placement, &actor).unwrap();
        assert!(matches!(first.as_u64(), 1 | 2));
        assert_eq!(placement.cache_len(), 1);
        // A second resolve from another component agrees (placement is
        // coordinated through the store, not local state).
        let other = service(&store, 2, &live_set, true);
        assert_eq!(resolve(&other, &actor).unwrap(), first);
    }

    #[test]
    fn no_live_host_is_an_error() {
        let store = Store::new();
        let live_set = live(&[1]);
        let placement = service(&store, 1, &live_set, true);
        let err = resolve(&placement, &ActorRef::new("Ghost", "g")).unwrap_err();
        assert!(matches!(err, KarError::NoHostForActorType { .. }));
    }

    #[test]
    fn dead_hosts_are_not_considered() {
        let store = Store::new();
        announce(&store, "Order", 1);
        announce(&store, "Order", 2);
        let live_set = live(&[2]); // component 1 is dead
        let placement = service(&store, 2, &live_set, true);
        for i in 0..8 {
            let c = resolve(&placement, &ActorRef::new("Order", format!("o-{i}"))).unwrap();
            assert_eq!(c, ComponentId::from_raw(2));
        }
    }

    #[test]
    fn a_stale_placement_is_unresolved_until_it_is_repaired() {
        let store = Store::new();
        announce(&store, "Order", 2);
        let live_set = live(&[2]);
        let placement = service(&store, 2, &live_set, true);
        let actor = ActorRef::new("Order", "o-1");
        // Simulate a placement pointing at dead component 9.
        let stale = component_to_value(ComponentId::from_raw(9));
        let admin = store.connect(ComponentId::from_raw(2));
        admin.set(&placement_key(&actor), stale.clone()).unwrap();
        // However often it is asked, resolution neither answers with the
        // dead component nor places the actor a second time: waiting — and
        // giving up at the call timeout — is the caller's business
        // (`tests/io_completions.rs` holds a round to that deadline).
        for _ in 0..3 {
            assert_eq!(placement.resolve_nowait(&actor).unwrap(), None);
        }
        assert_eq!(admin.get(&placement_key(&actor)).unwrap(), Some(stale));
        assert_eq!(placement.cache_len(), 0);
        // Once reconciliation rewrites the placement, resolve succeeds.
        admin
            .set(
                &placement_key(&actor),
                component_to_value(ComponentId::from_raw(2)),
            )
            .unwrap();
        assert_eq!(
            resolve(&placement, &actor).unwrap(),
            ComponentId::from_raw(2)
        );
    }

    #[test]
    fn cache_can_be_disabled_and_cleared() {
        let store = Store::new();
        announce(&store, "Order", 1);
        let live_set = live(&[1]);
        let without_cache = service(&store, 1, &live_set, false);
        resolve(&without_cache, &ActorRef::new("Order", "o")).unwrap();
        assert_eq!(without_cache.cache_len(), 0);

        let with_cache = service(&store, 1, &live_set, true);
        resolve(&with_cache, &ActorRef::new("Order", "o")).unwrap();
        assert_eq!(with_cache.cache_len(), 1);
        with_cache.clear_cache();
        assert_eq!(with_cache.cache_len(), 0);
    }

    #[test]
    fn cached_entry_pointing_at_dead_component_is_ignored() {
        let store = Store::new();
        announce(&store, "Order", 1);
        announce(&store, "Order", 2);
        let live_set = live(&[1, 2]);
        let placement = service(&store, 1, &live_set, true);
        let actor = ActorRef::new("Order", "o");
        let first = resolve(&placement, &actor).unwrap();
        // The placed component dies; reconciliation rewrites the placement.
        live_set.write().remove(&first);
        let survivor = if first == ComponentId::from_raw(1) {
            2
        } else {
            1
        };
        store
            .connect(ComponentId::from_raw(survivor))
            .set(
                &placement_key(&actor),
                component_to_value(ComponentId::from_raw(survivor)),
            )
            .unwrap();
        assert_eq!(
            resolve(&placement, &actor).unwrap(),
            ComponentId::from_raw(survivor)
        );
    }

    #[test]
    fn concurrent_resolution_agrees_on_one_placement() {
        let store = Store::new();
        announce(&store, "Order", 1);
        announce(&store, "Order", 2);
        announce(&store, "Order", 3);
        let live_set = live(&[1, 2, 3]);
        let actor = ActorRef::new("Order", "contended");
        let mut handles = Vec::new();
        for i in 1..=3u64 {
            let store = store.clone();
            let live_set = live_set.clone();
            let actor = actor.clone();
            handles.push(std::thread::spawn(move || {
                let placement = service(&store, i, &live_set, true);
                resolve(&placement, &actor).unwrap()
            }));
        }
        let results: Vec<ComponentId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "divergent placements: {results:?}"
        );
    }

    #[test]
    fn counters_track_hits_misses_and_invalidations() {
        let store = Store::new();
        announce(&store, "Order", 1);
        let live_set = live(&[1]);
        let placement = service(&store, 1, &live_set, true);
        let actor = ActorRef::new("Order", "o");
        assert_eq!(placement.counters(), PlacementCounters::default());
        resolve(&placement, &actor).unwrap(); // cold: miss
        resolve(&placement, &actor).unwrap(); // cached: hit
        resolve(&placement, &actor).unwrap(); // cached: hit
        let counters = placement.counters();
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.hits, 2);
        assert_eq!(counters.invalidations, 0);
        // Epoch-based clear: one invalidation event, next lookup misses and
        // lazily evicts the stale entry (a second invalidation).
        placement.clear_cache();
        assert_eq!(placement.cache_len(), 0, "stale epoch entries don't count");
        resolve(&placement, &actor).unwrap();
        let counters = placement.counters();
        assert_eq!(counters.misses, 2);
        assert_eq!(counters.invalidations, 2);
        assert_eq!(placement.cache_len(), 1, "re-resolved into the new epoch");
    }

    #[test]
    fn disabled_cache_counts_only_misses() {
        let store = Store::new();
        announce(&store, "Order", 1);
        let live_set = live(&[1]);
        let placement = service(&store, 1, &live_set, false);
        assert_eq!(placement.cache_shards(), 0);
        let actor = ActorRef::new("Order", "o");
        resolve(&placement, &actor).unwrap();
        resolve(&placement, &actor).unwrap();
        let counters = placement.counters();
        assert_eq!(counters.hits, 0);
        assert_eq!(counters.misses, 2);
        placement.clear_cache(); // no-op without a cache
        assert_eq!(placement.counters().invalidations, 0);
    }

    #[test]
    fn cache_spreads_actors_over_shards() {
        let store = Store::new();
        announce(&store, "Order", 1);
        let live_set = live(&[1]);
        let placement = service(&store, 1, &live_set, true);
        assert_eq!(placement.cache_shards(), 4);
        for i in 0..64 {
            resolve(&placement, &ActorRef::new("Order", format!("o-{i}"))).unwrap();
        }
        assert_eq!(placement.cache_len(), 64);
        // With 64 actors over 4 shards, every shard should hold some.
        let cache = placement.cache.as_ref().unwrap();
        for shard in &cache.shards {
            assert!(
                shard.lock().entries().next().is_some(),
                "a cache shard stayed empty"
            );
        }
    }

    #[test]
    fn a_shard_keeps_two_generations_and_the_placements_in_use() {
        let store = Store::new();
        announce(&store, "Order", 1);
        let live_set = live(&[1]);
        let placement = PlacementService::new(
            store.connect(ComponentId::from_raw(1)),
            live_set.clone(),
            true,
            1,
        );
        let hot = ActorRef::new("Order", "hot");
        resolve(&placement, &hot).unwrap();
        // Three generations of actors called once each, the hot one called
        // again within every generation.
        for i in 0..3 * GENERATION_ENTRIES {
            resolve(&placement, &ActorRef::new("Order", format!("o-{i}"))).unwrap();
            if i % (GENERATION_ENTRIES / 2) == 0 {
                resolve(&placement, &hot).unwrap();
            }
        }
        assert!(placement.cache_len() <= 2 * GENERATION_ENTRIES);
        assert!(placement.cache_len() > GENERATION_ENTRIES);
        let before = placement.counters();
        resolve(&placement, &hot).unwrap();
        resolve(&placement, &ActorRef::new("Order", "o-0")).unwrap();
        let after = placement.counters();
        assert_eq!(after.hits, before.hits + 1, "the hot placement stayed");
        assert_eq!(after.misses, before.misses + 1, "a cold one aged out");
        // Passivation drops a placement whichever generation holds it.
        let len = placement.cache_len();
        placement.forget(&hot);
        placement.forget(&ActorRef::new(
            "Order",
            format!("o-{}", 2 * GENERATION_ENTRIES),
        ));
        assert_eq!(placement.cache_len(), len - 2);
    }

    #[test]
    fn a_waiter_between_two_attempts_is_woken_by_the_repair_signal() {
        let store = Store::new();
        announce(&store, "Order", 2);
        let live_set = live(&[2]);
        let placement = Arc::new(service(&store, 2, &live_set, true));
        let actor = ActorRef::new("Order", "o-1");
        // A stale placement pointing at dead component 9.
        store
            .connect(ComponentId::from_raw(2))
            .set(
                &placement_key(&actor),
                component_to_value(ComponentId::from_raw(9)),
            )
            .unwrap();
        // A repair thread rewrites the placement and signals the repair the
        // way recovery does (clear_cache on resume).
        let repair_store = store.clone();
        let repair_placement = placement.clone();
        let repair = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            repair_store
                .connect(ComponentId::from_raw(2))
                .set(
                    &placement_key(&ActorRef::new("Order", "o-1")),
                    component_to_value(ComponentId::from_raw(2)),
                )
                .unwrap();
            repair_placement.clear_cache();
        });
        // The edge-thread wait of `ComponentCore::issue_outbox`: snapshot the
        // signal, attempt, park. The waits are generous: if they returned
        // only by timing out, one of them would blow the elapsed bound.
        let t0 = std::time::Instant::now();
        let mut attempts = 0;
        let resolved = loop {
            let seen = placement.repair_epoch();
            attempts += 1;
            if let Some(component) = placement.resolve_nowait(&actor).unwrap() {
                break component;
            }
            placement.wait_for_repair(seen, Duration::from_secs(5));
        };
        let elapsed = t0.elapsed();
        repair.join().unwrap();
        assert_eq!(resolved, ComponentId::from_raw(2));
        assert_eq!(attempts, 2, "one wait, ended by the repair");
        assert!(
            elapsed < Duration::from_secs(2),
            "the waiter slept past the repair signal: {elapsed:?}"
        );
    }

    #[test]
    fn clear_cache_epoch_bump_never_serves_a_stale_placement() {
        // Regression for the O(1) epoch-based clear: readers racing a clear
        // must never observe the pre-recovery placement once the rewrite +
        // clear have both happened, even though stale entries are evicted
        // lazily rather than drained.
        let store = Store::new();
        announce(&store, "Order", 1);
        announce(&store, "Order", 2);
        let live_set = live(&[1, 2]);
        let placement = Arc::new(PlacementService::new(
            store.connect(ComponentId::from_raw(1)),
            live_set.clone(),
            true,
            2,
        ));
        let actor = ActorRef::new("Order", "contended");
        store
            .connect(ComponentId::from_raw(1))
            .set(
                &placement_key(&actor),
                component_to_value(ComponentId::from_raw(1)),
            )
            .unwrap();
        assert_eq!(
            resolve(&placement, &actor).unwrap(),
            ComponentId::from_raw(1)
        );

        // Readers hammer resolve while the "recovery" flips the placement.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flipped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let placement = placement.clone();
                let stop = stop.clone();
                let flipped = flipped.clone();
                std::thread::spawn(move || {
                    let actor = ActorRef::new("Order", "contended");
                    while !stop.load(Ordering::SeqCst) {
                        // Sample the flip flag BEFORE resolving: if the flip
                        // was already complete when we started, a stale
                        // answer is a genuine violation.
                        let flip_done = flipped.load(Ordering::SeqCst);
                        // Mid-flip the placement is stale: unresolved.
                        let Some(resolved) = placement.resolve_nowait(&actor).unwrap() else {
                            continue;
                        };
                        if flip_done {
                            assert_eq!(
                                resolved,
                                ComponentId::from_raw(2),
                                "stale placement served after clear_cache"
                            );
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        // The recovery sequence: component 1 dies, placement is rewritten,
        // caches are cleared (epoch bump), THEN the flip is declared done.
        live_set.write().remove(&ComponentId::from_raw(1));
        store
            .connect(ComponentId::from_raw(2))
            .set(
                &placement_key(&actor),
                component_to_value(ComponentId::from_raw(2)),
            )
            .unwrap();
        placement.clear_cache();
        flipped.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::SeqCst);
        for reader in readers {
            reader.join().unwrap();
        }
        // And the service itself agrees immediately after the clear.
        assert_eq!(
            resolve(&placement, &actor).unwrap(),
            ComponentId::from_raw(2)
        );
    }

    #[test]
    fn ownership_stamp_follows_the_cache_epoch() {
        let store = Store::new();
        announce(&store, "Order", 1);
        let live_set = live(&[1]);
        let with_cache = service(&store, 1, &live_set, true);
        assert_eq!(with_cache.ownership_stamp(), Some(0));
        with_cache.clear_cache();
        assert_eq!(
            with_cache.ownership_stamp(),
            Some(1),
            "clear_cache must invalidate outstanding slot stamps"
        );
        // Slot hits are counted separately from cache hits.
        with_cache.note_slot_hit();
        let counters = with_cache.counters();
        assert_eq!(counters.slot_hits, 1);
        assert_eq!(counters.hits, 0);
        // With the cache disabled there is no epoch to stamp against, so
        // stamping is off (a stamp could never be invalidated).
        let without_cache = service(&store, 1, &live_set, false);
        assert_eq!(without_cache.ownership_stamp(), None);
    }

    #[test]
    fn value_roundtrip_and_keys() {
        let c = ComponentId::from_raw(7);
        assert_eq!(component_from_value(&component_to_value(c)), Some(c));
        assert_eq!(component_from_value(&Value::from("junk")), None);
        assert_eq!(
            placement_key(&ActorRef::new("Order", "1")),
            "placement/Order/1"
        );
        assert_eq!(hosts_key("Order"), "hosts/Order");
        assert_eq!(host_field(c), "7");
        // Announced fields sort as strings; the live hosts sort as ids.
        let hosts: BTreeMap<String, Value> = [10, 9, 2]
            .map(|raw| (host_field(ComponentId::from_raw(raw)), Value::Int(1)))
            .into();
        assert_eq!(
            live_announced(&hosts, |c| c.as_u64() != 2),
            vec![ComponentId::from_raw(9), ComponentId::from_raw(10)]
        );
    }

    #[test]
    fn a_miss_reads_one_hash_however_large_the_keyspace() {
        // A miss must not scale with the keyspace: every actor ever placed
        // leaves a `placement/…` key. A scan of 200 000 of them per miss
        // makes 1 000 misses cost seconds (~20 s in a debug build).
        let store = Store::new();
        announce(&store, "Order", 1);
        announce(&store, "Order", 2);
        for i in 0..200_000 {
            store.admin_set(&format!("placement/Other/x{i}"), Value::Int(1));
        }
        let live_set = live(&[1, 2]);
        let placement = service(&store, 1, &live_set, true);
        let before = store.stats();
        let t0 = std::time::Instant::now();
        for i in 0..1_000 {
            resolve(&placement, &ActorRef::new("Order", format!("o-{i}"))).unwrap();
        }
        let elapsed = t0.elapsed();
        let after = store.stats();
        // Per miss: the placement `get`, the hosts `hgetall`, the claim CAS.
        assert_eq!(after.reads - before.reads, 2 * 1_000);
        assert_eq!(after.cas - before.cas, 1_000);
        assert!(
            elapsed < Duration::from_secs(3),
            "1 000 misses took {elapsed:?}: a miss scales with the keyspace"
        );
    }
}
