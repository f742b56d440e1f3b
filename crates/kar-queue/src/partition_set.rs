//! Partition sets: the unit of queue topology assigned to one component.
//!
//! The paper's Kafka deployment assigns each component a *set* of partitions
//! (§4.1), so a single component's consumer side scales with the rest of the
//! runtime. A [`PartitionSet`] is that assignment made first-class:
//!
//! * the **home** partitions are the stable range allocated when the
//!   component is created — producers hash records onto them by actor key
//!   ([`PartitionSet::partition_for_key`]), so every record of one actor
//!   lands in one partition and per-actor FIFO survives the fan-out;
//! * the **adopted** partitions are ranges re-homed from failed components
//!   during reconciliation — they are consumed (drained) by their adopter
//!   but never hash-routed to, which is what keeps routing *stable under
//!   assignment-table changes*: growing a live component's set never moves
//!   an existing actor's records to a different partition mid-stream.
//!
//! Routing stability is a correctness property, not an optimization: if
//! adoption changed the hash layout, an actor with unconsumed records in its
//! old partition could have new records routed to a different partition of
//! the same component, and the two partition consumers would race the
//! actor's mailbox order.

use std::fmt;
use std::hash::Hasher;

/// The set of queue partitions assigned to one component: a stable *home*
/// range that producers hash onto, plus *adopted* ranges drained after being
/// re-homed from failed components.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionSet {
    home: Vec<usize>,
    adopted: Vec<usize>,
}

impl PartitionSet {
    /// A set with the given home partitions (sorted, deduplicated) and no
    /// adopted partitions.
    pub fn new(mut home: Vec<usize>) -> Self {
        home.sort_unstable();
        home.dedup();
        PartitionSet {
            home,
            adopted: Vec::new(),
        }
    }

    /// The contiguous home range `start..start + count`.
    pub fn contiguous(start: usize, count: usize) -> Self {
        PartitionSet {
            home: (start..start + count).collect(),
            adopted: Vec::new(),
        }
    }

    /// The stable home partitions (the hash-routing targets).
    pub fn home(&self) -> &[usize] {
        &self.home
    }

    /// The adopted (drain-only) partitions.
    pub fn adopted(&self) -> &[usize] {
        &self.adopted
    }

    /// Every partition this set's owner consumes: home then adopted.
    pub fn all(&self) -> Vec<usize> {
        let mut all = self.home.clone();
        all.extend_from_slice(&self.adopted);
        all
    }

    /// Number of home partitions.
    pub fn len(&self) -> usize {
        self.home.len()
    }

    /// True if the set has no home partitions.
    pub fn is_empty(&self) -> bool {
        self.home.is_empty()
    }

    /// True if `partition` is a home or adopted member.
    pub fn contains(&self, partition: usize) -> bool {
        self.home.contains(&partition) || self.adopted.contains(&partition)
    }

    /// Adopts `partitions` as drain-only members (duplicates and partitions
    /// already in the set are ignored). Adoption never changes the home set,
    /// so [`PartitionSet::partition_for_key`] is unaffected.
    pub fn adopt(&mut self, partitions: impl IntoIterator<Item = usize>) {
        for partition in partitions {
            if !self.contains(partition) {
                self.adopted.push(partition);
            }
        }
        self.adopted.sort_unstable();
    }

    /// Retires an *adopted* partition: removes it from the drain set. Home
    /// partitions are never retired (they are the hash-routing targets);
    /// returns true only if the partition was an adopted member.
    ///
    /// Recovery re-homes a failed component's partitions as drain-only
    /// adoptees; once retention has expired everything a stale sender could
    /// still have appended after the placement rewrite, the adopter fences
    /// the partition, drops its consumer, and shrinks the set with this.
    pub fn retire_adopted(&mut self, partition: usize) -> bool {
        match self.adopted.iter().position(|p| *p == partition) {
            Some(index) => {
                self.adopted.remove(index);
                true
            }
            None => false,
        }
    }

    /// The home partition `key`'s records are routed to: a stable hash of the
    /// key over the home set. Returns `None` only for an empty home set.
    ///
    /// Stability contract: the result depends on the key and the home set
    /// alone — never on adopted partitions — so re-homing partition ranges
    /// during recovery cannot re-route a live actor's traffic.
    pub fn partition_for_key(&self, key: &str) -> Option<usize> {
        self.partition_for_hash(key_hash([key.as_bytes()]))
    }

    /// [`PartitionSet::partition_for_key`] of a key already hashed by
    /// [`key_hash`].
    pub fn partition_for_hash(&self, hash: u64) -> Option<usize> {
        if self.home.is_empty() {
            return None;
        }
        Some(self.home[(hash as usize) % self.home.len()])
    }
}

/// The hash [`PartitionSet::partition_for_key`] routes a key by, for a key
/// given in pieces: the hash of their concatenation — the bytes, then the
/// `0xff` terminator `str` hashing appends — so a caller can route a
/// composite key without building its string.
pub fn key_hash<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for piece in pieces {
        hasher.write(piece);
    }
    hasher.write_u8(0xff);
    hasher.finish()
}

impl fmt::Display for PartitionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "home{:?}", self.home)?;
        if !self.adopted.is_empty() {
            write!(f, "+adopted{:?}", self.adopted)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_hashed_in_pieces_routes_like_the_whole_key() {
        use std::hash::Hash;
        let set = PartitionSet::new((0..7).collect());
        for id in 0..200 {
            let key = format!("Type/actor-{id}");
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut hasher);
            let id = format!("actor-{id}");
            let pieces = key_hash([&b"Type"[..], b"/", id.as_bytes()]);
            assert_eq!(pieces, hasher.finish(), "the hash `str` keys always had");
            assert_eq!(set.partition_for_hash(pieces), set.partition_for_key(&key));
        }
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let set = PartitionSet::new(vec![3, 1, 3, 2]);
        assert_eq!(set.home(), &[1, 2, 3]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let contiguous = PartitionSet::contiguous(4, 3);
        assert_eq!(contiguous.home(), &[4, 5, 6]);
        assert!(PartitionSet::default().is_empty());
    }

    #[test]
    fn routing_is_stable_and_lands_in_the_home_set() {
        let set = PartitionSet::contiguous(8, 4);
        for i in 0..64 {
            let key = format!("Order/o-{i}");
            let p = set.partition_for_key(&key).unwrap();
            assert!(set.home().contains(&p));
            assert_eq!(
                set.partition_for_key(&key),
                Some(p),
                "routing must be stable"
            );
        }
        assert_eq!(PartitionSet::default().partition_for_key("x"), None);
    }

    #[test]
    fn adoption_never_changes_routing() {
        let mut set = PartitionSet::contiguous(0, 4);
        let routes: Vec<usize> = (0..32)
            .map(|i| set.partition_for_key(&format!("k{i}")).unwrap())
            .collect();
        set.adopt([9, 7, 9, 1]); // 1 is already home: ignored
        assert_eq!(set.adopted(), &[7, 9]);
        assert_eq!(set.all(), vec![0, 1, 2, 3, 7, 9]);
        assert!(set.contains(7) && set.contains(1) && !set.contains(5));
        for (i, expected) in routes.iter().enumerate() {
            assert_eq!(
                set.partition_for_key(&format!("k{i}")),
                Some(*expected),
                "adoption re-routed key k{i}"
            );
        }
        // Adopted partitions are never hash targets.
        for i in 0..256 {
            let p = set.partition_for_key(&format!("x{i}")).unwrap();
            assert!(set.home().contains(&p));
        }
    }

    #[test]
    fn multi_partition_sets_spread_keys() {
        let set = PartitionSet::contiguous(0, 4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            seen.insert(set.partition_for_key(&format!("Ledger/a{i}")).unwrap());
        }
        assert_eq!(seen.len(), 4, "256 keys should reach all 4 home partitions");
    }

    #[test]
    fn retirement_removes_adopted_members_only() {
        let mut set = PartitionSet::contiguous(0, 2);
        set.adopt([5, 7]);
        assert!(set.retire_adopted(5));
        assert_eq!(set.adopted(), &[7]);
        assert!(!set.contains(5));
        // Home partitions and unknown partitions are refused.
        assert!(!set.retire_adopted(0));
        assert!(!set.retire_adopted(5));
        assert_eq!(set.home(), &[0, 1]);
        // Routing is untouched by retirement (home set never changes).
        let before: Vec<usize> = (0..16)
            .map(|i| set.partition_for_key(&format!("k{i}")).unwrap())
            .collect();
        assert!(set.retire_adopted(7));
        for (i, expected) in before.iter().enumerate() {
            assert_eq!(set.partition_for_key(&format!("k{i}")), Some(*expected));
        }
        assert!(set.adopted().is_empty());
    }

    #[test]
    fn display_renders_both_halves() {
        let mut set = PartitionSet::contiguous(0, 2);
        assert_eq!(set.to_string(), "home[0, 1]");
        set.adopt([5]);
        assert_eq!(set.to_string(), "home[0, 1]+adopted[5]");
    }
}
