//! Two-generation aging collections for the retry bookkeeping and the
//! resident actor table.
//!
//! `ComponentCore` remembers completed request ids (to dedupe retries) and
//! seen response ids (to release deferred happen-before retries). Both only
//! matter while a copy of the corresponding request can still arrive from a
//! queue — and queue records expire after the broker's retention window. An
//! [`AgingSet`] therefore keeps two generations and rotates them on the same
//! (time-compressed) retention period: a member survives between one and two
//! retention windows after its last insert, after which it is dropped in
//! bulk. Long-running components stop leaking memory, and a record old
//! enough to have aged out of the set has also aged out of every queue.
//!
//! The clock is written once; how a generation stores its members is a
//! [`Generation`]. Request ids come from one mesh-wide counter, so the ids a
//! component remembers are dense: an [`IdBitmap`] keeps them as bits, word
//! `id >> 6` holding bit `id & 63` — under a byte per id, keys and table
//! slack included, where a hash set spends 9 to 18, and at worst (one id
//! per word) about twice a hash set. Completed ids sit under the
//! component's claims lock beside its in-flight ids, seen response ids under
//! its deferred lock beside the retries they release. Passivation
//! tombstones are hashes, not dense ids, and live in [`Tombs`]: a
//! `HashSet<u64>` plus the buried actors' names packed into one buffer, so
//! a tombstone that ages out names the placement its owner releases.
//!
//! [`AgingMap`] applies the same clock to key→value tables whose entries
//! must not be dropped blindly. A component's resident actors live in one:
//! each slot (instance, mailbox, state image) carries its own idle stamps,
//! which name the actors idle long enough for the heartbeat sweep and order
//! the coldest ones for admission to evict. Each candidate is passivated
//! only once the owner has verified, under the table's lock, that the actor
//! is quiescent (see `ComponentCore::sweep_passivation` and
//! `ComponentCore::evict_coldest`).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Duration;

use kar_types::{mono_now, ActorRef, RequestId};

/// How one generation of an [`AgingSet`] stores its members.
pub(crate) trait Generation: Default {
    type Member;

    /// Adds `member`. Returns true if it was absent.
    fn insert(&mut self, member: Self::Member) -> bool;

    /// True if `member` is present.
    fn contains(&self, member: &Self::Member) -> bool;

    /// Removes `member`. Returns true if it was present.
    fn remove(&mut self, member: &Self::Member) -> bool;

    /// Number of members.
    fn len(&self) -> usize;

    /// Drops every member, keeping the table for reuse.
    fn clear(&mut self);

    /// Number of members `other` does not hold.
    fn count_outside(&self, other: &Self) -> usize;
}

impl<T: Eq + Hash> Generation for HashSet<T> {
    type Member = T;

    fn insert(&mut self, member: T) -> bool {
        HashSet::insert(self, member)
    }

    fn contains(&self, member: &T) -> bool {
        HashSet::contains(self, member)
    }

    fn remove(&mut self, member: &T) -> bool {
        HashSet::remove(self, member)
    }

    fn len(&self) -> usize {
        HashSet::len(self)
    }

    fn clear(&mut self) {
        HashSet::clear(self)
    }

    fn count_outside(&self, other: &Self) -> usize {
        self.difference(other).count()
    }
}

/// A generation of request ids as bits: word `id >> 6` holds bit `id & 63`.
/// A word leaves the table when its last bit is removed, so the table holds
/// exactly the words with members.
#[derive(Debug, Default)]
pub(crate) struct IdBitmap {
    words: HashMap<u64, u64, BuildHasherDefault<WordHasher>>,
}

impl IdBitmap {
    /// The word index and bit mask of `id`.
    fn locate(id: RequestId) -> (u64, u64) {
        let raw = id.as_u64();
        (raw >> 6, 1 << (raw & 63))
    }
}

impl Generation for IdBitmap {
    type Member = RequestId;

    fn insert(&mut self, id: RequestId) -> bool {
        let (word, bit) = Self::locate(id);
        let bits = self.words.entry(word).or_insert(0);
        let fresh = *bits & bit == 0;
        *bits |= bit;
        fresh
    }

    fn contains(&self, id: &RequestId) -> bool {
        let (word, bit) = Self::locate(*id);
        self.words.get(&word).is_some_and(|bits| bits & bit != 0)
    }

    fn remove(&mut self, id: &RequestId) -> bool {
        let (word, bit) = Self::locate(*id);
        let Some(bits) = self.words.get_mut(&word) else {
            return false;
        };
        if *bits & bit == 0 {
            return false;
        }
        *bits &= !bit;
        if *bits == 0 {
            self.words.remove(&word);
        }
        true
    }

    fn len(&self) -> usize {
        self.words
            .values()
            .map(|bits| bits.count_ones() as usize)
            .sum()
    }

    fn clear(&mut self) {
        self.words.clear();
    }

    fn count_outside(&self, other: &Self) -> usize {
        self.words
            .iter()
            .map(|(word, bits)| {
                let theirs = other.words.get(word).copied().unwrap_or(0);
                (bits & !theirs).count_ones() as usize
            })
            .sum()
    }
}

/// Hashes an [`IdBitmap`] word index with one multiply by an odd constant:
/// the low bits (the bucket) of consecutive indices stay distinct, and the
/// high bits (the table's tag) are well mixed. Word indices are dense and
/// never attacker-chosen, so no keyed hash is needed.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A set whose members are dropped in bulk once they have been idle for one
/// to two rotation intervals, each generation stored as a `G`. Rotation is
/// driven by the owner (the component's heartbeat loop) via
/// [`AgingSet::maybe_rotate`].
#[derive(Debug)]
pub(crate) struct AgingSet<G> {
    current: G,
    previous: G,
    interval: Duration,
    last_rotation: Duration,
}

impl<G: Generation> AgingSet<G> {
    /// Creates an empty set rotating every `interval` (clamped to 1ms so a
    /// zero-compressed retention cannot spin-rotate).
    pub(crate) fn new(interval: Duration) -> Self {
        Self::started_at(interval, mono_now())
    }

    /// [`Self::new`] with its clock started at `now`.
    fn started_at(interval: Duration, now: Duration) -> Self {
        AgingSet {
            current: G::default(),
            previous: G::default(),
            interval: interval.max(Duration::from_millis(1)),
            last_rotation: now,
        }
    }

    /// Inserts `member` into the young generation. Returns true if it was
    /// not already a member of either generation.
    pub(crate) fn insert(&mut self, member: G::Member) -> bool {
        let fresh = !self.previous.contains(&member);
        self.current.insert(member) && fresh
    }

    /// True if either generation holds `member`.
    pub(crate) fn contains(&self, member: &G::Member) -> bool {
        self.current.contains(member) || self.previous.contains(member)
    }

    /// Number of members across both generations.
    pub(crate) fn len(&self) -> usize {
        self.current.len() + self.previous.count_outside(&self.current)
    }

    /// Removes `member` from both generations. Returns true if it was a
    /// member. Used by owners whose members have an explicit end of life
    /// (e.g. a passivation tombstone consumed by the rehydrating admission)
    /// rather than a purely clock-driven one.
    pub(crate) fn remove(&mut self, member: &G::Member) -> bool {
        let in_current = self.current.remove(member);
        let in_previous = self.previous.remove(member);
        in_current || in_previous
    }

    /// Drops every member of both generations (owner killed).
    pub(crate) fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
    }

    /// Rotates the generations if the interval has elapsed: the old
    /// generation is dropped, the young one becomes old. Returns the number
    /// of members dropped. The dropped generation's table is emptied and
    /// reused as the young one, so a steady stream of members does not
    /// allocate a fresh table every interval.
    pub(crate) fn maybe_rotate(&mut self, now: Duration) -> usize {
        if !self.rotation_due(now) {
            return 0;
        }
        let dropped = self.previous.count_outside(&self.current);
        std::mem::swap(&mut self.current, &mut self.previous);
        self.current.clear();
        dropped
    }

    /// True, and the clock restarted at `now`, if a rotation is due.
    fn rotation_due(&mut self, now: Duration) -> bool {
        if now.saturating_sub(self.last_rotation) < self.interval {
            return false;
        }
        self.last_rotation = now;
        true
    }
}

impl AgingSet<Tombs> {
    /// Buries `actor`'s tombstone, its name included, in the young
    /// generation.
    pub(crate) fn bury(&mut self, actor: &ActorRef) {
        let hash = tombstone(actor);
        let young = &mut self.current;
        young.names.push(actor.actor_type(), actor.actor_id());
        young.burials.push(hash);
        young.hashes.insert(hash);
    }

    /// [`AgingSet::maybe_rotate`], naming in `out` the actors whose
    /// tombstones it drops: each once, and none whose tombstone a
    /// rehydration consumed or a later passivation renewed.
    pub(crate) fn maybe_rotate_into(&mut self, now: Duration, out: &mut Names) {
        if !self.rotation_due(now) {
            return;
        }
        // The young generation becomes the old one; the old one drains.
        std::mem::swap(&mut self.current, &mut self.previous);
        let young = &self.previous.hashes;
        let old = &mut self.current;
        for (index, hash) in old.burials.iter().enumerate() {
            if old.hashes.remove(hash) && !young.contains(hash) {
                let (actor_type, actor_id) = old.names.get(index);
                out.push(actor_type, actor_id);
            }
        }
        old.clear();
    }
}

/// Actor names packed back to back into one buffer: a list that costs no
/// allocation per name, and keeps its buffers when emptied.
#[derive(Debug, Default)]
pub(crate) struct Names {
    text: String,
    /// Where each name's type and its id end in `text`.
    ends: Vec<(usize, usize)>,
}

impl Names {
    /// Appends the name `actor_type`/`actor_id`.
    pub(crate) fn push(&mut self, actor_type: &str, actor_id: &str) {
        self.text.push_str(actor_type);
        let type_end = self.text.len();
        self.text.push_str(actor_id);
        self.ends.push((type_end, self.text.len()));
    }

    /// The type and the id of the `index`-th name.
    fn get(&self, index: usize) -> (&str, &str) {
        let start = index.checked_sub(1).map_or(0, |before| self.ends[before].1);
        let (type_end, end) = self.ends[index];
        (&self.text[start..type_end], &self.text[type_end..end])
    }

    /// Takes the last name off the list.
    pub(crate) fn pop(&mut self) -> Option<ActorRef> {
        let last = self.ends.len().checked_sub(1)?;
        let (actor_type, actor_id) = self.get(last);
        let actor = ActorRef::new(actor_type, actor_id);
        self.ends.pop();
        let start = self.ends.last().map_or(0, |&(_, end)| end);
        self.text.truncate(start);
        Some(actor)
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Empties the list, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }
}

/// The tombstone of `actor`: a 64-bit hash of its reference, stable across
/// runs. Two actors sharing one would count a rehydration wrongly, or keep
/// one placement a generation longer; that is all a collision can do.
pub(crate) fn tombstone(actor: &ActorRef) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    actor.hash(&mut hasher);
    hasher.finish()
}

/// A generation of passivation tombstones: each one the [`tombstone`] hash
/// a rehydration looks up and consumes, plus its actor's name, packed with
/// the generation's other names. An aged-out tombstone can so name the
/// placement to release while a tombstone costs no allocation of its own:
/// the buffers are emptied, not freed, with the generation.
#[derive(Debug, Default)]
pub(crate) struct Tombs {
    hashes: HashSet<u64>,
    /// Every name buried in this generation, in burial order.
    names: Names,
    /// The hash of each burial, in the same order.
    burials: Vec<u64>,
}

impl Generation for Tombs {
    type Member = u64;

    /// A nameless tombstone: it counts a rehydration, and releases nothing.
    fn insert(&mut self, hash: u64) -> bool {
        self.hashes.insert(hash)
    }

    fn contains(&self, hash: &u64) -> bool {
        self.hashes.contains(hash)
    }

    fn remove(&mut self, hash: &u64) -> bool {
        self.hashes.remove(hash)
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn clear(&mut self) {
        self.hashes.clear();
        self.names.clear();
        self.burials.clear();
    }

    fn count_outside(&self, other: &Self) -> usize {
        self.hashes.difference(&other.hashes).count()
    }
}

#[cfg(test)]
impl AgingSet<IdBitmap> {
    /// Bitmap words held across both generations.
    fn words(&self) -> usize {
        self.current.words.len() + self.previous.words.len()
    }
}

/// A key→value table on the two-generation clock, with a coldest-first
/// eviction queue. An insert or a refreshing read ([`AgingMap::get_refresh`])
/// stamps its entry with the current generation and with the next tick of a
/// touch clock; a plain [`AgingMap::get`] or [`AgingMap::get_mut`] does not.
/// [`AgingMap::advance_due`] bumps the generation once per interval, so an
/// entry two generations stale has been idle for one to two intervals
/// ([`AgingMap::stale`]); the touch clock orders the entries by last use
/// ([`AgingMap::evict_coldest`]). Unlike [`AgingSet`], nothing is dropped
/// automatically: the owner checks each candidate under its own lock and
/// removes it with [`AgingMap::remove`] — or lets `evict_coldest` remove the
/// one it takes.
#[derive(Debug)]
pub(crate) struct AgingMap<K, V> {
    entries: HashMap<K, Stamp<V>>,
    generation: u64,
    /// The touch clock: the tick of the latest insert or refreshing read.
    /// Every entry holds a tick of its own, so ordering by it is total and
    /// repeats exactly under a deterministic schedule.
    touches: u64,
    /// Eviction candidates left from the last refill, coldest last.
    cold: Vec<K>,
    /// The touch clock at the last refill: a candidate touched since then
    /// is passed over (its second chance).
    refilled_at: u64,
    interval: Duration,
    last_rotation: Duration,
}

/// An [`AgingMap`] entry with its stamps.
#[derive(Debug)]
struct Stamp<V> {
    value: V,
    generation: u64,
    touch: u64,
}

impl<K: Eq + Hash + Clone, V> AgingMap<K, V> {
    /// Creates an empty map rotating every `interval` (clamped to 1ms).
    pub(crate) fn new(interval: Duration) -> Self {
        AgingMap {
            entries: HashMap::new(),
            generation: 0,
            touches: 0,
            cold: Vec::new(),
            refilled_at: 0,
            interval: interval.max(Duration::from_millis(1)),
            last_rotation: mono_now(),
        }
    }

    /// Inserts (or replaces) `key`, stamped with the current generation and
    /// a fresh touch.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.touches += 1;
        let stamp = Stamp {
            value,
            generation: self.generation,
            touch: self.touches,
        };
        self.entries.insert(key, stamp);
    }

    /// Looks `key` up, refreshing its stamps: an entry in active use never
    /// becomes a removal candidate.
    pub(crate) fn get_refresh(&mut self, key: &K) -> Option<&mut V> {
        let entry = self.entries.get_mut(key)?;
        self.touches += 1;
        entry.generation = self.generation;
        entry.touch = self.touches;
        Some(&mut entry.value)
    }

    /// Looks `key` up without refreshing it (a peek).
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|stamp| &stamp.value)
    }

    /// Looks `key` up for a change that is not a use: no refresh.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key).map(|stamp| &mut stamp.value)
    }

    /// Every value, in no particular order, refreshing none.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|stamp| &stamp.value)
    }

    /// Every entry, in no particular order, refreshing none.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(key, stamp)| (key, &stamp.value))
    }

    /// Removes `key` unconditionally, handing back its value. Used when the
    /// owner has *independently* verified the entry may go.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|stamp| stamp.value)
    }

    /// Drops every entry and eviction candidate (owner killed).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.cold.clear();
    }

    /// Advances the generation if the interval elapsed. Returns true when it
    /// did — the owner should then sweep for stale entries.
    pub(crate) fn advance_due(&mut self, now: Duration) -> bool {
        if now.saturating_sub(self.last_rotation) < self.interval {
            return false;
        }
        self.last_rotation = now;
        self.generation += 1;
        true
    }

    /// The keys two generations stale — idle one to two intervals — in
    /// touch order: one pass over the stamps, a sort of the stale ones only.
    /// A peek: nothing is refreshed.
    pub(crate) fn stale(&self) -> Vec<K> {
        let mut stale: Vec<(u64, &K)> = self
            .entries
            .iter()
            .filter(|(_, stamp)| stamp.generation.saturating_add(2) <= self.generation)
            .map(|(key, stamp)| (stamp.touch, key))
            .collect();
        stale.sort_unstable_by_key(|&(touch, _)| touch);
        stale.into_iter().map(|(_, key)| key.clone()).collect()
    }

    /// Offers entries to `take`, least recently touched first, until it
    /// takes one; removes that one and returns its key. Candidates come from a queue
    /// refilled from the stamps when it runs dry, at most once per call, so
    /// a call whose every candidate is refused ends with `None`. A candidate
    /// touched since the refill is passed over without being offered — its
    /// second chance: it is back in the next refill if it goes cold — so
    /// entries kept hot are not taken however often the queue cycles.
    pub(crate) fn evict_coldest(&mut self, mut take: impl FnMut(&K, &V) -> bool) -> Option<K> {
        let mut refilled = false;
        loop {
            let Some(key) = self.cold.pop() else {
                if refilled || self.entries.is_empty() {
                    return None;
                }
                self.refill();
                refilled = true;
                continue;
            };
            let taken = self
                .entries
                .get(&key)
                .is_some_and(|stamp| stamp.touch <= self.refilled_at && take(&key, &stamp.value));
            if taken {
                self.entries.remove(&key);
                return Some(key);
            }
        }
    }

    /// Reloads the (empty) eviction queue with every entry, coldest last.
    fn refill(&mut self) {
        let mut entries: Vec<(u64, &K)> = self
            .entries
            .iter()
            .map(|(key, stamp)| (stamp.touch, key))
            .collect();
        entries.sort_unstable_by_key(|&(touch, _)| std::cmp::Reverse(touch));
        self.cold
            .extend(entries.into_iter().map(|(_, key)| key.clone()));
        self.refilled_at = self.touches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A generation storage the set tests run over: `member` names the
    /// member a raw test id stands for.
    trait Storage: Generation {
        fn member(raw: u64) -> Self::Member;
    }

    impl Storage for HashSet<u64> {
        fn member(raw: u64) -> u64 {
            raw
        }
    }

    impl Storage for Tombs {
        fn member(raw: u64) -> u64 {
            raw
        }
    }

    impl Storage for IdBitmap {
        fn member(raw: u64) -> RequestId {
            RequestId::from_raw(raw)
        }
    }

    /// Every key the map still holds, least recently touched first: what
    /// eviction would offer, taking nothing.
    fn coldest_first<V>(map: &mut AgingMap<&'static str, V>) -> Vec<&'static str> {
        let mut offered = Vec::new();
        map.evict_coldest(|key, _| {
            offered.push(*key);
            false
        });
        offered
    }

    #[test]
    fn aging_map_candidates_need_two_idle_generations() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("route", 3usize);
        assert_eq!(map.get_refresh(&"route").copied(), Some(3));
        let t1 = mono_now() + Duration::from_millis(2);
        assert!(map.advance_due(t1));
        assert!(!map.advance_due(t1), "second advance within interval");
        assert!(map.stale().is_empty(), "one generation is not stale");
        assert!(map.advance_due(t1 + Duration::from_millis(2)));
        assert_eq!(map.stale(), vec!["route"]);
        assert_eq!(map.remove(&"route"), Some(3));
        assert!(map.stale().is_empty());
        assert_eq!(map.remove(&"route"), None);
    }

    #[test]
    fn aging_map_touch_vetoes_removal() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("route", 1usize);
        let t = mono_now();
        map.advance_due(t + Duration::from_millis(2));
        map.advance_due(t + Duration::from_millis(4));
        assert_eq!(map.stale(), vec!["route"]);
        // The entry is used between two sweeps: no longer a candidate.
        assert_eq!(map.get_refresh(&"route").copied(), Some(1));
        assert!(map.stale().is_empty());
        map.clear();
        assert!(coldest_first(&mut map).is_empty());
    }

    #[test]
    fn peek_does_not_refresh_but_get_refresh_does() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("route", 9usize);
        let t = mono_now();
        map.advance_due(t + Duration::from_millis(2));
        map.advance_due(t + Duration::from_millis(4));
        // The sweep peeks at the stamps without touching them.
        assert_eq!(map.stale(), vec!["route"]);
        assert_eq!(map.stale(), vec!["route"], "a peek is not a touch");
        assert_eq!(map.get(&"route"), Some(&9));
        *map.get_mut(&"route").unwrap() = 10;
        assert_eq!(map.stale(), vec!["route"], "nor is a plain write");
        *map.get_refresh(&"route").unwrap() += 1;
        assert!(map.stale().is_empty(), "a refreshing read is");
        assert_eq!(map.values().copied().collect::<Vec<_>>(), vec![11]);
    }

    #[test]
    fn stamped_entries_order_coldest_first_and_remove_is_unconditional() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("cold", 1usize);
        let t = mono_now();
        map.advance_due(t + Duration::from_millis(2));
        map.insert("warm", 2usize);
        map.insert("hot", 3usize);
        map.get_refresh(&"warm");
        // Least recently touched first, whatever the generations say.
        assert_eq!(coldest_first(&mut map), vec!["cold", "hot", "warm"]);
        // Stale is two generations; a later advance makes all three stale,
        // and the sweep gets them in the same order.
        map.advance_due(t + Duration::from_millis(4));
        map.advance_due(t + Duration::from_millis(6));
        assert_eq!(map.stale(), vec!["cold", "hot", "warm"]);
        // "warm" is not the coldest, but eviction may still take it.
        assert_eq!(map.evict_coldest(|key, _| *key == "warm"), Some("warm"));
        assert_eq!(map.remove(&"hot"), Some(3));
        assert_eq!(map.remove(&"hot"), None);
        assert_eq!(coldest_first(&mut map), vec!["cold"]);
    }

    #[test]
    fn eviction_passes_over_entries_touched_since_the_refill() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        for key in ["a", "b", "c", "d"] {
            map.insert(key, ());
        }
        // The first call refills the queue and takes the coldest entry.
        assert_eq!(map.evict_coldest(|_, _| true), Some("a"));
        // "b" is touched after the refill: it gets its second chance, and
        // the next-coldest untouched entry goes instead.
        map.get_refresh(&"b");
        assert_eq!(map.evict_coldest(|_, _| true), Some("c"));
        // An entry inserted after the refill is not in the queue either.
        map.insert("e", ());
        assert_eq!(map.evict_coldest(|_, _| true), Some("d"));
        // The queue ran dry: the refill sees "b" and "e" in touch order.
        assert_eq!(map.evict_coldest(|_, _| true), Some("b"));
        // Refusing every candidate ends the call after one refill.
        assert_eq!(map.evict_coldest(|_, _| false), None);
        assert_eq!(coldest_first(&mut map), vec!["e"]);
    }

    #[test]
    fn members_survive_one_rotation_and_die_after_two() {
        fn run<G: Storage>() {
            let mut set = AgingSet::<G>::new(Duration::from_millis(1));
            set.insert(G::member(7));
            assert!(set.contains(&G::member(7)));
            assert_eq!(set.len(), 1);
            let later = mono_now() + Duration::from_millis(2);
            assert_eq!(set.maybe_rotate(later), 0, "first rotation only demotes");
            assert!(
                set.contains(&G::member(7)),
                "still present in the old generation"
            );
            assert_eq!(
                set.maybe_rotate(later + Duration::from_millis(2)),
                1,
                "second rotation drops the idle member"
            );
            assert!(!set.contains(&G::member(7)));
            assert_eq!(set.len(), 0);
        }
        run::<HashSet<u64>>();
        run::<IdBitmap>();
        run::<Tombs>();
    }

    #[test]
    fn reinsertion_refreshes_the_generation() {
        fn run<G: Storage>() {
            let mut set = AgingSet::<G>::new(Duration::from_millis(1));
            set.insert(G::member(7));
            let t1 = mono_now() + Duration::from_millis(2);
            set.maybe_rotate(t1);
            // Re-inserted after demotion: not fresh, but young again.
            assert!(!set.insert(G::member(7)));
            set.maybe_rotate(t1 + Duration::from_millis(2));
            assert!(
                set.contains(&G::member(7)),
                "refresh must outlive the next rotation"
            );
            assert_eq!(set.len(), 1);
        }
        run::<HashSet<u64>>();
        run::<IdBitmap>();
        run::<Tombs>();
    }

    #[test]
    fn rotation_respects_the_interval() {
        fn run<G: Storage>() {
            let mut set = AgingSet::<G>::new(Duration::from_secs(3600));
            set.insert(G::member(1));
            assert_eq!(set.maybe_rotate(mono_now()), 0);
            set.maybe_rotate(mono_now());
            assert!(
                set.contains(&G::member(1)),
                "no rotation before the interval elapses"
            );
        }
        run::<HashSet<u64>>();
        run::<IdBitmap>();
        run::<Tombs>();
    }

    #[test]
    fn set_remove_clears_both_generations() {
        fn run<G: Storage>() {
            let mut set = AgingSet::<G>::new(Duration::from_millis(1));
            set.insert(G::member(1));
            set.maybe_rotate(mono_now() + Duration::from_millis(2));
            set.insert(G::member(1)); // in both generations now
            set.insert(G::member(2));
            assert!(set.remove(&G::member(1)));
            assert!(!set.contains(&G::member(1)));
            assert!(!set.remove(&G::member(1)), "second remove finds nothing");
            set.clear();
            assert_eq!(set.len(), 0);
            assert!(!set.contains(&G::member(2)));
        }
        run::<HashSet<u64>>();
        run::<IdBitmap>();
        run::<Tombs>();
    }

    #[test]
    fn len_does_not_double_count_members_in_both_generations() {
        fn run<G: Storage>() {
            let mut set = AgingSet::<G>::new(Duration::from_millis(1));
            set.insert(G::member(1));
            set.maybe_rotate(mono_now() + Duration::from_millis(2));
            set.insert(G::member(1));
            set.insert(G::member(2));
            assert_eq!(set.len(), 2);
        }
        run::<HashSet<u64>>();
        run::<IdBitmap>();
        run::<Tombs>();
    }

    #[test]
    fn aged_out_tombstones_name_their_actors_once() {
        let actor = |id: &str| ActorRef::new("Ledger/v2", id);
        let mut set = AgingSet::<Tombs>::new(Duration::from_millis(1));
        let mut dropped = Names::default();
        for id in ["old", "twice", "consumed", "renewed", "a/b"] {
            set.bury(&actor(id));
        }
        set.bury(&actor("twice"));
        assert_eq!(set.len(), 5);
        assert!(set.remove(&tombstone(&actor("consumed"))));
        let t1 = mono_now() + Duration::from_millis(2);
        set.maybe_rotate_into(t1, &mut dropped);
        assert_eq!(dropped.len(), 0, "the first rotation only demotes");
        set.bury(&actor("renewed"));
        set.bury(&actor("young"));
        set.maybe_rotate_into(t1, &mut dropped);
        assert_eq!(dropped.len(), 0, "no rotation before the interval");
        set.maybe_rotate_into(t1 + Duration::from_millis(2), &mut dropped);
        // Names split where they were buried, slashes and all; the list
        // pops its last name first.
        let names: Vec<ActorRef> = std::iter::from_fn(|| dropped.pop()).collect();
        assert_eq!(names, vec![actor("a/b"), actor("twice"), actor("old")]);
        assert_eq!(dropped.len(), 0);
        assert!(set.contains(&tombstone(&actor("renewed"))));
        assert!(set.contains(&tombstone(&actor("young"))));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn the_dedup_ledger_stays_compact() {
        // Dense ids, as one mesh-wide counter hands them out: a bit each.
        let ids = 1_000_000u64;
        let mut dense = AgingSet::<IdBitmap>::new(Duration::from_secs(3600));
        for raw in 1..=ids {
            dense.insert(RequestId::from_raw(raw));
        }
        assert_eq!(dense.len(), ids as usize);
        assert!(dense.words() as u64 <= ids / 64 + 1);
        // The worst case, one id per word: a word each, no more.
        let mut sparse = AgingSet::<IdBitmap>::new(Duration::from_secs(3600));
        for raw in 0..1_000u64 {
            sparse.insert(RequestId::from_raw(raw * 64 + 5));
        }
        assert_eq!(sparse.words(), 1_000);
        // A word whose last bit goes leaves the table.
        sparse.remove(&RequestId::from_raw(5));
        assert_eq!(sparse.words(), 999);
    }

    /// One operation of the equivalence property: `(op, k, sparse)`, where
    /// the id is `k` (dense) or `1 + 64 k` (one per word).
    fn raw_id((_, k, sparse): (u8, u64, bool)) -> u64 {
        if sparse {
            1 + 64 * k
        } else {
            k
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of every set operation, on ids dense and
        /// sparse, give the same answers from both storages, and leave the
        /// same members behind.
        #[test]
        fn both_storages_agree_on_every_operation(
            ops in prop::collection::vec((0u8..10, 0u64..160, any::<bool>()), 1..200),
        ) {
            let interval = Duration::from_millis(50);
            let mut now = Duration::from_secs(1);
            let mut hashed = AgingSet::<HashSet<u64>>::started_at(interval, now);
            let mut bits = AgingSet::<IdBitmap>::started_at(interval, now);
            for op in ops {
                let raw = raw_id(op);
                let id = RequestId::from_raw(raw);
                match op.0 {
                    0..=2 => prop_assert_eq!(hashed.insert(raw), bits.insert(id)),
                    3 | 4 => prop_assert_eq!(hashed.contains(&raw), bits.contains(&id)),
                    5 => prop_assert_eq!(hashed.remove(&raw), bits.remove(&id)),
                    6 => prop_assert_eq!(hashed.len(), bits.len()),
                    7 | 8 => {
                        now += Duration::from_millis(op.1 / 2);
                        prop_assert_eq!(hashed.maybe_rotate(now), bits.maybe_rotate(now));
                    }
                    _ if op.1 < 16 => {
                        hashed.clear();
                        bits.clear();
                    }
                    _ => prop_assert_eq!(hashed.len(), bits.len()),
                }
            }
            prop_assert_eq!(hashed.len(), bits.len());
            for k in 0..160 {
                for raw in [k, 1 + 64 * k] {
                    prop_assert_eq!(hashed.contains(&raw), bits.contains(&RequestId::from_raw(raw)));
                }
            }
        }
    }
}
