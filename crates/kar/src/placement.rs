//! Actor placement: compare-and-swap on the store plus a per-component cache.
//!
//! Components announce the actor types they host (§4.1), one field each in
//! the type's [`hosts_key`] hash. The first invocation
//! of an actor instance places it on a compatible live component using a
//! compare-and-swap on the store; subsequent invocations hit the placement
//! cache. What the cache misses is a `Lookup`: the store round trips that
//! resolve it are submitted and settled, never waited for on a reactor.
//! Placement decisions for actors hosted by failed components are
//! invalidated during reconciliation, and caches are flushed when recovery
//! completes.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_store::{Connection, Pipeline, PipelineResult};
use kar_types::{
    ActorRef, Completion, ComponentId, KarError, KarResult, RequestId, Value, WaitSignal,
};

use crate::membership::MembershipView;

/// Store key holding the placement of `actor`.
pub fn placement_key(actor: &ActorRef) -> String {
    format!("placement/{}/{}", actor.actor_type(), actor.actor_id())
}

/// The key a record is routed onto its destination component's home
/// partitions by: its actor's `Type/id` — a request's target, a response's
/// caller actor — so one actor's records share a partition, or `req-<id>`
/// for a response to an external client. Hashed as
/// [`PartitionSet::partition_for_key`](kar_queue::PartitionSet::partition_for_key)
/// hashes the string, without building it.
#[derive(Clone, Copy)]
pub(crate) enum RouteKey<'a> {
    /// The records of one actor.
    Actor(&'a ActorRef),
    /// The response to an external client's request.
    Request(RequestId),
}

impl RouteKey<'_> {
    /// The routing key of the response to a request from `caller_actor`
    /// (`None`: an external client) with id `id`.
    pub(crate) fn response(caller_actor: Option<&ActorRef>, id: RequestId) -> RouteKey<'_> {
        caller_actor.map_or(RouteKey::Request(id), RouteKey::Actor)
    }

    /// The key's hash, for [`PartitionSet::partition_for_hash`](kar_queue::PartitionSet::partition_for_hash).
    pub(crate) fn hash(self) -> u64 {
        match self {
            RouteKey::Actor(actor) => kar_queue::key_hash([
                actor.actor_type().as_bytes(),
                b"/",
                actor.actor_id().as_bytes(),
            ]),
            RouteKey::Request(id) => {
                // `req-<id>`, written on the stack.
                const ROOM: usize = "req-".len() + 20;
                let mut key = [0u8; ROOM];
                let len = {
                    let mut rest = &mut key[..];
                    write!(rest, "req-{}", id.as_u64()).expect("room for any u64 key");
                    ROOM - rest.len()
                };
                kar_queue::key_hash([&key[..len]])
            }
        }
    }

    /// The partition of `set` the key routes to.
    pub(crate) fn partition_in(self, set: &kar_queue::PartitionSet) -> Option<usize> {
        set.partition_for_hash(self.hash())
    }
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
    /// Inserts into the young generation. A full one rotates in place: the
    /// old generation is emptied — its entries freed under the shard lock —
    /// and its grown table becomes the young one. Under churn a fresh table
    /// every few thousand inserts is a stream of large short-lived blocks
    /// that small long-lived allocations (store keys, actor slots) split
    /// up, and the heap grows around the holes.
    fn insert(&mut self, actor: ActorRef, entry: CacheEntry) {
        if self.young.len() >= GENERATION_ENTRIES {
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
        }
        self.young.insert(actor, entry);
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
    /// The mesh's membership, read for its live set.
    membership: Arc<MembershipView>,
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
    pub(crate) fn new(
        conn: Connection,
        membership: Arc<MembershipView>,
        cache_enabled: bool,
        cache_shards: usize,
    ) -> Self {
        PlacementService {
            conn,
            membership,
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
    /// the shards' two generations instead). The *store* record stays until
    /// the actor's tombstone ages out and the host releases it; the
    /// rehydrating admission re-resolves from the store either way.
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

    /// The cached placement of `actor`: a hit requires the entry to be from
    /// the current epoch and to point at a live component; anything else is
    /// a miss (and a lazily evicted entry, counted as an invalidation).
    pub(crate) fn cached(&self, actor: &ActorRef) -> Option<ComponentId> {
        let Some(cache) = self.cache.as_ref() else {
            // No cache: every resolution is a (counted) miss, so the bench's
            // cache-on/cache-off comparison sees the full lookup volume.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let epoch = cache.current_epoch();
        let mut shard = cache.shard(actor).lock();
        let entry = shard.young.get(actor).copied().or_else(|| {
            // In use again: back into the young generation.
            let entry = shard.old.remove(actor)?;
            shard.insert(actor.clone(), entry);
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
            cache.shard(actor).lock().insert(actor.clone(), entry);
        }
    }

    /// The cache epoch to tag in-flight resolutions with.
    fn cache_epoch(&self) -> u64 {
        self.cache.as_ref().map_or(0, ShardedCache::current_epoch)
    }

    /// Resolves the component hosting `actor` — one attempt, waiting only
    /// for the store round trips of a cache miss — placing the actor on a
    /// compatible live component if it has no placement yet.
    ///
    /// Returns `Ok(None)` when the recorded placement points to a component
    /// that is not live: resolution has to wait for reconciliation to
    /// invalidate or rewrite it rather than double-place the actor. How to
    /// wait for that is the caller's business. Only for the lookups that may
    /// block: a round sent from a reactor resolves its misses as a
    /// `Lookup` it parks on (`ComponentCore::place_once`).
    ///
    /// # Errors
    ///
    /// Fails with [`KarError::NoHostForActorType`] if no live component hosts
    /// the actor's type, or with a store error if the component has been
    /// fenced.
    pub fn resolve_nowait(&self, actor: &ActorRef) -> KarResult<Option<ComponentId>> {
        if let Some(component) = self.cached(actor) {
            return Ok(Some(component));
        }
        let mut lookup = self.submit_lookup([actor], |_| None, true, |_| {})?;
        loop {
            if let Some(due) = lookup.due() {
                kar_types::pace_until(due);
            }
            if self.settle_lookup(&mut lookup)? {
                break;
            }
        }
        match lookup.answer(actor) {
            Some(Resolution::Placed(component)) => Ok(Some(component)),
            Some(Resolution::Stale) => Ok(None),
            _ => Err(no_host(actor)),
        }
    }

    /// Counts a lookup that goes past the cache to the store's record: an
    /// activation's ownership read. A host releases a passivated actor's
    /// placement once its tombstone ages out, so a cached "placed here" may
    /// name a record that is gone.
    pub(crate) fn note_stored_read(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Submits the first round trip of a lookup of `actors` (a duplicate is
    /// looked up once): one pipelined `get` of each record `known` cannot
    /// place, plus whatever `rider` adds (its results come back through
    /// [`Lookup::take_riders`]). A `sender`'s lookup — a record may be
    /// absent — also reads the announcement hashes of their types, and
    /// caches every placement it learns; an activation's ownership check
    /// expects its record, and caches only a placement elsewhere (its own is
    /// the slot's stamp). Hand the lookup to
    /// [`PlacementService::settle_lookup`] once [`Lookup::due`].
    ///
    /// # Errors
    ///
    /// The pipeline's submit error: nothing was read.
    pub(crate) fn submit_lookup<'a>(
        &self,
        actors: impl IntoIterator<Item = &'a ActorRef>,
        mut known: impl FnMut(&ActorRef) -> Option<ComponentId>,
        sender: bool,
        rider: impl FnOnce(&mut Pipeline),
    ) -> KarResult<Lookup> {
        // Read before the store is: a clear racing the lookup leaves what
        // it caches already stale (see `cache_insert`).
        let epoch = self.cache_epoch();
        let actors = actors.into_iter();
        let mut targets: Vec<(ActorRef, Target)> = Vec::with_capacity(actors.size_hint().0);
        for actor in actors {
            if targets.iter().all(|(seen, _)| seen != actor) {
                let target = match known(actor) {
                    Some(component) => Target::Answered(Resolution::Placed(component)),
                    None => Target::Reading,
                };
                targets.push((actor.clone(), target));
            }
        }
        // A sender reads one announcement hash per type of the targets it
        // reads; an activation only once its record turns out absent.
        let mut hosts = Vec::new();
        if sender {
            add_hosts(&targets, &mut hosts, |target| {
                matches!(target, Target::Reading)
            });
        }
        let mut pipe = self.conn.pipeline();
        let records = targets
            .iter()
            .filter(|(_, target)| matches!(target, Target::Reading))
            .count();
        // Room for the records, the hosts' reads and a rider's read.
        pipe.reserve(records + hosts.len() + 1);
        for (actor, target) in &targets {
            if matches!(target, Target::Reading) {
                pipe.get(&placement_key(actor));
            }
        }
        for (index, _) in &hosts {
            pipe.hgetall(&hosts_key(targets[*index].0.actor_type()));
        }
        rider(&mut pipe);
        Ok(Lookup {
            epoch,
            sender,
            targets,
            hosts,
            trip: Trip::Read,
            ack: Some(pipe.submit()?),
            riders: Vec::new(),
        })
    }

    /// The acknowledgement of `lookup`'s round trip is due: learns what it
    /// read — caching each placement found or claimed — and submits the
    /// next round trip if one is needed: the announcement hashes not read
    /// yet, then one pipelined compare-and-swap claiming a live host for
    /// every target with no record. True once every target is answered;
    /// false with the next round trip in flight ([`Lookup::due`]).
    ///
    /// # Errors
    ///
    /// What the acknowledgement carries (a lost ack), or the next submit's
    /// error. Either way the lookup is over; a retry starts a new one.
    pub(crate) fn settle_lookup(&self, lookup: &mut Lookup) -> KarResult<bool> {
        let Some(ack) = lookup.ack.take() else {
            return Ok(true);
        };
        let mut results = ack.result?;
        let trip = lookup.trip;
        // What this component asked for comes first; a rider's results stay.
        let asked = match trip {
            Trip::Read => lookup.reads(),
            Trip::Hosts | Trip::Claim => results.len(),
        };
        let mut answers = results.drain(..asked);
        for (actor, target) in &mut lookup.targets {
            let resolution = match (trip, &*target) {
                (Trip::Read, Target::Reading) => {
                    let record = answers.next().and_then(PipelineResult::into_value);
                    match record.as_ref().and_then(component_from_value) {
                        Some(component) if self.is_live(component) => Resolution::Placed(component),
                        // A stale placement pointing at a failed component:
                        // wait for reconciliation instead of racing it.
                        Some(_) => Resolution::Stale,
                        None => {
                            *target = Target::Unplaced(record);
                            continue;
                        }
                    }
                }
                (Trip::Claim, Target::Claiming(pick)) => {
                    match answers.next().and_then(PipelineResult::into_cas) {
                        Some(Ok(())) => Resolution::Placed(*pick),
                        // Lost the race: whatever won, if it is live.
                        Some(Err(actual)) => match actual.as_ref().and_then(component_from_value) {
                            Some(winner) if self.is_live(winner) => Resolution::Placed(winner),
                            _ => Resolution::Stale,
                        },
                        None => Resolution::Stale,
                    }
                }
                _ => continue,
            };
            if let Resolution::Placed(component) = resolution {
                if lookup.sender || component != self.conn.component() {
                    self.cache_insert(actor, component, lookup.epoch);
                }
            }
            *target = Target::Answered(resolution);
        }
        match trip {
            Trip::Read | Trip::Hosts => lookup.learn_hosts(&mut answers, |c| self.is_live(c)),
            Trip::Claim => return Ok(true),
        }
        drop(answers);
        // A rider read what it read before any claim this lookup makes: an
        // actor placed by the claim may have been written to since.
        let claims = lookup
            .targets
            .iter()
            .any(|(_, t)| matches!(t, Target::Unplaced(_)));
        if trip == Trip::Read && !claims {
            lookup.riders = results;
        }
        self.submit_next_trip(lookup)
    }

    /// Submits the round trip `lookup` needs next, if any: the announcement
    /// hashes of the types of unplaced targets not read yet, or else the
    /// claims of the unplaced targets. True when none is needed.
    fn submit_next_trip(&self, lookup: &mut Lookup) -> KarResult<bool> {
        let Lookup { targets, hosts, .. } = &mut *lookup;
        add_hosts(targets, hosts, |target| {
            matches!(target, Target::Unplaced(_))
        });
        let unplaced = |actor_type: &str| {
            targets.iter().any(|(actor, target)| {
                matches!(target, Target::Unplaced(_)) && actor.actor_type() == actor_type
            })
        };
        let mut pipe = self.conn.pipeline();
        // Either trip sends at most one command per unplaced target.
        pipe.reserve(
            targets
                .iter()
                .filter(|(_, target)| matches!(target, Target::Unplaced(_)))
                .count(),
        );
        for (index, live) in hosts.iter_mut().filter(|(_, live)| live.is_none()) {
            let actor_type = targets[*index].0.actor_type();
            if unplaced(actor_type) {
                pipe.hgetall(&hosts_key(actor_type));
            } else {
                // Nothing of this type to place: nothing to learn of it.
                *live = Some(Vec::new());
            }
        }
        if !pipe.is_empty() {
            lookup.trip = Trip::Hosts;
            lookup.ack = Some(pipe.submit()?);
            return Ok(false);
        }
        for at in 0..targets.len() {
            let (actor, target) = &targets[at];
            if !matches!(target, Target::Unplaced(_)) {
                continue;
            }
            let candidates = hosts
                .iter()
                .find(|(index, _)| targets[*index].0.actor_type() == actor.actor_type())
                .and_then(|(_, live)| live.as_deref())
                .unwrap_or_default();
            let pick =
                (!candidates.is_empty()).then(|| candidates[spread_index(actor, candidates.len())]);
            let (actor, target) = &mut targets[at];
            let Some(pick) = pick else {
                *target = Target::Answered(Resolution::NoHost);
                continue;
            };
            let Target::Unplaced(current) = std::mem::replace(target, Target::Claiming(pick))
            else {
                unreachable!("checked above");
            };
            pipe.compare_and_swap(&placement_key(actor), current, component_to_value(pick));
        }
        if pipe.is_empty() {
            return Ok(true);
        }
        lookup.trip = Trip::Claim;
        lookup.ack = Some(pipe.submit()?);
        Ok(false)
    }

    fn is_live(&self, component: ComponentId) -> bool {
        self.membership.read(|members| members.is_live(component))
    }
}

/// What a placement lookup learnt of one actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// Placed on this live component.
    Placed(ComponentId),
    /// The record names a failed component: reconciliation has to repair it
    /// before the actor resolves — waiting for that, bounded by the call
    /// timeout, is the caller's business.
    Stale,
    /// No live component announces the actor's type.
    NoHost,
}

/// Where one target of a [`Lookup`] stands.
#[derive(Debug)]
enum Target {
    /// Its record is being read.
    Reading,
    /// It has no record (or one naming no component, the CAS's expected
    /// value): a live host is claimed for it.
    Unplaced(Option<Value>),
    /// The claim for this host is in flight.
    Claiming(ComponentId),
    Answered(Resolution),
}

/// The round trip a [`Lookup`] has in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trip {
    /// The records (and a sender's announcement hashes).
    Read,
    /// The announcement hashes an activation's absent record needs.
    Hosts,
    /// The claims of the targets with no record.
    Claim,
}

/// The placements a cache could not answer, resolved together over the
/// store's pipelines: one round trip reads every record, one more claims a
/// live host for those that have none — an activation whose record is gone
/// reads its type's hosts in between. Nothing here waits: each round trip
/// is submitted, and [`PlacementService::settle_lookup`] takes it up once it
/// is [due](Lookup::due). A reactor parks on that due time; an edge thread
/// paces itself to it.
#[derive(Debug)]
pub(crate) struct Lookup {
    /// The cache epoch read before the first round trip.
    epoch: u64,
    /// A sender's lookup (see [`PlacementService::submit_lookup`]).
    sender: bool,
    targets: Vec<(ActorRef, Target)>,
    /// The live hosts announced for each type of the targets read — named
    /// by the index of its first such target — once learnt.
    hosts: Vec<(usize, Option<Vec<ComponentId>>)>,
    trip: Trip,
    /// The acknowledgement of the round trip in flight; `None` once settled.
    ack: Option<Completion<Vec<PipelineResult>>>,
    /// The results of the first round trip's rider.
    riders: Vec<PipelineResult>,
}

impl Lookup {
    /// When the round trip in flight is acknowledged (`None`: at once, or
    /// nothing is in flight).
    pub(crate) fn due(&self) -> Option<Duration> {
        self.ack.as_ref().and_then(|ack| ack.due)
    }

    /// What the settled lookup answered for `actor` (`None`: not one of its
    /// targets, or still in flight).
    pub(crate) fn answer(&self, actor: &ActorRef) -> Option<Resolution> {
        self.targets.iter().find_map(|(target, state)| match state {
            Target::Answered(answer) if target == actor => Some(*answer),
            _ => None,
        })
    }

    /// The results of what the rider added to the first round trip, in
    /// submission order — none when the lookup claimed a placement.
    pub(crate) fn take_riders(&mut self) -> Vec<PipelineResult> {
        std::mem::take(&mut self.riders)
    }

    /// How many results of the first round trip are this lookup's own: the
    /// records and announcement hashes it read.
    fn reads(&self) -> usize {
        let records = self
            .targets
            .iter()
            .filter(|(_, target)| matches!(target, Target::Reading))
            .count();
        records + self.hosts.len()
    }

    /// Learns the next announcement hashes of `results`: one for each type
    /// not learnt yet that the round trip read.
    fn learn_hosts(
        &mut self,
        results: &mut impl Iterator<Item = PipelineResult>,
        is_live: impl Fn(ComponentId) -> bool,
    ) {
        for (_, live) in self.hosts.iter_mut().filter(|(_, live)| live.is_none()) {
            let hosts = results
                .next()
                .and_then(PipelineResult::into_hash)
                .unwrap_or_default();
            *live = Some(live_announced(&hosts, &is_live));
        }
    }
}

/// Adds an announcement-hash entry to `hosts` — named by the index of its
/// first target — for every type of the `targets` that `needs` one and has
/// none yet.
fn add_hosts(
    targets: &[(ActorRef, Target)],
    hosts: &mut Vec<(usize, Option<Vec<ComponentId>>)>,
    needs: impl Fn(&Target) -> bool,
) {
    for (index, (actor, target)) in targets.iter().enumerate() {
        let typed = |(first, _): &(usize, _)| targets[*first].0.actor_type() == actor.actor_type();
        if needs(target) && !hosts.iter().any(typed) {
            hosts.push((index, None));
        }
    }
}

/// The error of a lookup that found no live host for `actor`'s type.
pub(crate) fn no_host(actor: &ActorRef) -> KarError {
    KarError::NoHostForActorType {
        actor_type: actor.actor_type().to_owned(),
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

    fn live(ids: &[u64]) -> Arc<MembershipView> {
        let view = Arc::new(MembershipView::default());
        view.publish(|members| {
            members
                .live
                .extend(ids.iter().map(|i| ComponentId::from_raw(*i)))
        });
        view
    }

    #[test]
    fn a_route_key_routes_like_its_string() {
        let set = kar_queue::PartitionSet::new((3..11).collect());
        for n in [0u64, 7, 10, 99, 12_345, u64::MAX] {
            let actor = ActorRef::new("Echo", format!("e{n}"));
            assert_eq!(
                RouteKey::Actor(&actor).partition_in(&set),
                set.partition_for_key(&actor.qualified_name())
            );
            let id = RequestId::from_raw(n);
            assert_eq!(
                RouteKey::response(None, id).partition_in(&set),
                set.partition_for_key(&format!("req-{n}"))
            );
        }
    }

    fn announce(store: &Store, actor_type: &str, component: u64) {
        store.admin_hset(
            &hosts_key(actor_type),
            &host_field(ComponentId::from_raw(component)),
            Value::Int(1),
        );
    }

    fn service(
        store: &Store,
        id: u64,
        live_set: &Arc<MembershipView>,
        cache: bool,
    ) -> PlacementService {
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
        live_set.publish(|members| members.live.remove(&first));
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
        live_set.publish(|members| members.live.remove(&ComponentId::from_raw(1)));
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
