//! Two-generation aging collections for the retry bookkeeping and the
//! passivation clock.
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
//! [`AgingMap`] applies the same clock to key→value tables whose entries
//! must not be dropped blindly — a component's idle-actor stamps order the
//! passivation candidates coldest first, and each candidate is passivated
//! only once the owner has verified under its own lock that the actor is
//! quiescent (see `ComponentCore::sweep_passivation`).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::time::Duration;

use kar_types::mono_now;

/// A set whose members are dropped in bulk once they have been idle for one
/// to two rotation intervals. Rotation is driven by the owner (the
/// component's heartbeat loop) via [`AgingSet::maybe_rotate`].
#[derive(Debug)]
pub(crate) struct AgingSet<T> {
    current: HashSet<T>,
    previous: HashSet<T>,
    interval: Duration,
    last_rotation: Duration,
}

impl<T: Eq + Hash> AgingSet<T> {
    /// Creates an empty set rotating every `interval` (clamped to 1ms so a
    /// zero-compressed retention cannot spin-rotate).
    pub(crate) fn new(interval: Duration) -> Self {
        AgingSet {
            current: HashSet::new(),
            previous: HashSet::new(),
            interval: interval.max(Duration::from_millis(1)),
            last_rotation: mono_now(),
        }
    }

    /// Inserts `value` into the young generation. Returns true if the value
    /// was not already a member of either generation.
    pub(crate) fn insert(&mut self, value: T) -> bool {
        let fresh = !self.previous.contains(&value);
        self.current.insert(value) && fresh
    }

    /// True if either generation holds `value`.
    pub(crate) fn contains(&self, value: &T) -> bool {
        self.current.contains(value) || self.previous.contains(value)
    }

    /// Number of members across both generations.
    pub(crate) fn len(&self) -> usize {
        self.current.len()
            + self
                .previous
                .iter()
                .filter(|v| !self.current.contains(v))
                .count()
    }

    /// Removes `value` from both generations. Returns true if it was a
    /// member. Used by owners whose members have an explicit end of life
    /// (e.g. a passivation tombstone consumed by the rehydrating admission)
    /// rather than a purely clock-driven one.
    pub(crate) fn remove(&mut self, value: &T) -> bool {
        let in_current = self.current.remove(value);
        let in_previous = self.previous.remove(value);
        in_current || in_previous
    }

    /// Drops every member of both generations (owner killed).
    pub(crate) fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
    }

    /// Rotates the generations if the interval has elapsed: the old
    /// generation is dropped, the young one becomes old. Returns the number
    /// of members dropped.
    pub(crate) fn maybe_rotate(&mut self, now: Duration) -> usize {
        if now.saturating_sub(self.last_rotation) < self.interval {
            return 0;
        }
        self.last_rotation = now;
        let retiring = std::mem::take(&mut self.current);
        let dropped = std::mem::replace(&mut self.previous, retiring);
        dropped
            .iter()
            .filter(|v| !self.previous.contains(v))
            .count()
    }
}

/// A key→value table on the two-generation clock: every refreshing read or
/// write stamps the entry with the current generation, and
/// [`AgingMap::advance_due`] bumps the generation once per interval, so an
/// entry two generations stale has been idle for one to two intervals.
/// Unlike [`AgingSet`], nothing is dropped automatically: the owner reads the
/// stamps ([`AgingMap::stamped_entries`]), checks each candidate under its
/// own lock and removes it with [`AgingMap::remove`].
#[derive(Debug)]
pub(crate) struct AgingMap<K, V> {
    entries: HashMap<K, (V, u64)>,
    generation: u64,
    interval: Duration,
    last_rotation: Duration,
}

impl<K: Eq + Hash + Clone, V: Copy> AgingMap<K, V> {
    /// Creates an empty map rotating every `interval` (clamped to 1ms).
    pub(crate) fn new(interval: Duration) -> Self {
        AgingMap {
            entries: HashMap::new(),
            generation: 0,
            interval: interval.max(Duration::from_millis(1)),
            last_rotation: mono_now(),
        }
    }

    /// Inserts (or replaces) `key`, stamped with the current generation.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.entries.insert(key, (value, self.generation));
    }

    /// Looks `key` up, refreshing its generation stamp: an entry in active
    /// use never becomes a removal candidate.
    pub(crate) fn get_refresh(&mut self, key: &K) -> Option<V> {
        let generation = self.generation;
        self.entries.get_mut(key).map(|entry| {
            entry.1 = generation;
            entry.0
        })
    }

    /// The current generation number (pairs with the stamps returned by
    /// [`AgingMap::stamped_entries`]).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Removes `key` unconditionally. Returns true if it was present. Used
    /// when the owner has *independently* verified the entry is dead (e.g.
    /// an eager coldest-first eviction under memory pressure, where the
    /// entry may not have aged out yet).
    pub(crate) fn remove(&mut self, key: &K) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Drops every entry (owner killed).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
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

    /// Every entry with its generation stamp (smaller stamp = colder). Lets
    /// an owner under memory pressure order candidates coldest-first instead
    /// of waiting for them to become fully stale.
    pub(crate) fn stamped_entries(&self) -> Vec<(K, V, u64)> {
        self.entries
            .iter()
            .map(|(key, (value, stamp))| (key.clone(), *value, *stamp))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys two generations stale: the candidates the passivation sweep
    /// reads off the stamps.
    fn stale<V: Copy>(map: &AgingMap<&'static str, V>) -> Vec<&'static str> {
        let generation = map.generation();
        let mut keys: Vec<&'static str> = map
            .stamped_entries()
            .into_iter()
            .filter(|&(_, _, stamp)| stamp + 2 <= generation)
            .map(|(key, _, _)| key)
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn aging_map_candidates_need_two_idle_generations() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("route", 3usize);
        assert_eq!(map.get_refresh(&"route"), Some(3));
        let t1 = mono_now() + Duration::from_millis(2);
        assert!(map.advance_due(t1));
        assert!(!map.advance_due(t1), "second advance within interval");
        assert!(stale(&map).is_empty(), "one generation is not stale");
        assert!(map.advance_due(t1 + Duration::from_millis(2)));
        assert_eq!(stale(&map), vec!["route"]);
        assert!(map.remove(&"route"));
        assert!(map.stamped_entries().is_empty());
        assert!(!map.remove(&"route"));
    }

    #[test]
    fn aging_map_touch_vetoes_removal() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("route", 1usize);
        let t = mono_now();
        map.advance_due(t + Duration::from_millis(2));
        map.advance_due(t + Duration::from_millis(4));
        assert_eq!(stale(&map), vec!["route"]);
        // The entry is used between two sweeps: no longer a candidate.
        assert_eq!(map.get_refresh(&"route"), Some(1));
        assert!(stale(&map).is_empty());
        map.clear();
        assert!(map.stamped_entries().is_empty());
    }

    #[test]
    fn members_survive_one_rotation_and_die_after_two() {
        let mut set = AgingSet::new(Duration::from_millis(1));
        set.insert(7u64);
        assert!(set.contains(&7));
        assert_eq!(set.len(), 1);
        let later = mono_now() + Duration::from_millis(2);
        assert_eq!(set.maybe_rotate(later), 0, "first rotation only demotes");
        assert!(set.contains(&7), "still present in the old generation");
        assert_eq!(
            set.maybe_rotate(later + Duration::from_millis(2)),
            1,
            "second rotation drops the idle member"
        );
        assert!(!set.contains(&7));
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn reinsertion_refreshes_the_generation() {
        let mut set = AgingSet::new(Duration::from_millis(1));
        set.insert(7u64);
        let t1 = mono_now() + Duration::from_millis(2);
        set.maybe_rotate(t1);
        // Re-inserted after demotion: not fresh, but young again.
        assert!(!set.insert(7));
        set.maybe_rotate(t1 + Duration::from_millis(2));
        assert!(set.contains(&7), "refresh must outlive the next rotation");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn rotation_respects_the_interval() {
        let mut set = AgingSet::new(Duration::from_secs(3600));
        set.insert(1u64);
        assert_eq!(set.maybe_rotate(mono_now()), 0);
        set.maybe_rotate(mono_now());
        assert!(set.contains(&1), "no rotation before the interval elapses");
    }

    #[test]
    fn peek_does_not_refresh_but_get_refresh_does() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("route", 9usize);
        let t = mono_now();
        map.advance_due(t + Duration::from_millis(2));
        map.advance_due(t + Duration::from_millis(4));
        // The sweep peeks at the stamps without touching them.
        assert_eq!(map.stamped_entries(), vec![("route", 9, 0)]);
        assert_eq!(stale(&map), vec!["route"], "a peek is not a touch");
        assert_eq!(map.get_refresh(&"route"), Some(9));
        assert!(stale(&map).is_empty(), "a refreshing read is");
    }

    #[test]
    fn stamped_entries_order_coldest_first_and_remove_is_unconditional() {
        let mut map = AgingMap::new(Duration::from_millis(1));
        map.insert("cold", 1usize);
        let t = mono_now();
        map.advance_due(t + Duration::from_millis(2));
        map.insert("warm", 2usize);
        assert_eq!(map.generation(), 1);
        let mut stamped = map.stamped_entries();
        stamped.sort_unstable_by_key(|&(_, _, stamp)| stamp);
        assert_eq!(stamped[0].0, "cold");
        assert_eq!(stamped[1].0, "warm");
        // "warm" is not stale, but an eager eviction may drop it anyway.
        assert!(!stale(&map).contains(&"warm"));
        assert!(map.remove(&"warm"));
        assert!(!map.remove(&"warm"));
        assert_eq!(map.stamped_entries().len(), 1);
    }

    #[test]
    fn set_remove_clears_both_generations() {
        let mut set = AgingSet::new(Duration::from_millis(1));
        set.insert(1u64);
        set.maybe_rotate(mono_now() + Duration::from_millis(2));
        set.insert(1u64); // in both generations now
        set.insert(2u64);
        assert!(set.remove(&1));
        assert!(!set.contains(&1));
        assert!(!set.remove(&1), "second remove finds nothing");
        set.clear();
        assert_eq!(set.len(), 0);
        assert!(!set.contains(&2));
    }

    #[test]
    fn len_does_not_double_count_members_in_both_generations() {
        let mut set = AgingSet::new(Duration::from_millis(1));
        set.insert(1u64);
        set.maybe_rotate(mono_now() + Duration::from_millis(2));
        set.insert(1u64);
        set.insert(2u64);
        assert_eq!(set.len(), 2);
    }
}
