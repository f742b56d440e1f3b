//! The mesh's membership — which components exist, which the consumer
//! group holds live, which partitions each owns — as one copy-on-write
//! value ([`kar_types::SnapshotVec`]'s idiom, for a struct). A writer
//! publishes a changed clone under the next generation: a component
//! joining, a kill's fence, recovery's consensus step and range re-homing,
//! an adopted partition's retirement. A reader sees the membership before
//! such a step or after it, never half of it, and takes no lock while its
//! thread's cached snapshot is of the current generation.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use kar_queue::PartitionSet;
use kar_types::{ComponentId, NodeId};

use crate::component::ComponentCore;
use crate::placement::RouteKey;

/// One published membership of a mesh.
#[derive(Clone, Default)]
pub(crate) struct Membership {
    /// The publishing [`MembershipView`]'s id.
    view: u64,
    /// Bumped by every publish.
    pub(crate) generation: u64,
    /// The components the group holds live. A killed component stays live
    /// until the consensus step that detects its failure.
    pub(crate) live: HashSet<ComponentId>,
    /// Every component's partition set (home plus adopted ranges), until
    /// survivors adopt a dead one's ranges.
    pub(crate) topology: HashMap<ComponentId, PartitionSet>,
    /// The components placed on each node, alive or not.
    pub(crate) nodes: HashMap<NodeId, Vec<ComponentId>>,
    /// Every component ever added, clients included: the reactor pool's
    /// pump targets, in id order.
    pub(crate) components: BTreeMap<ComponentId, Arc<ComponentCore>>,
    /// The broker time each component killed through the mesh was fenced.
    pub(crate) fenced: HashMap<ComponentId, Duration>,
}

impl Membership {
    /// True if the group holds `component` live.
    pub(crate) fn is_live(&self, component: ComponentId) -> bool {
        self.live.contains(&component)
    }

    /// The home partition of `component` that `key` routes to.
    pub(crate) fn partition_for(&self, component: ComponentId, key: RouteKey<'_>) -> Option<usize> {
        self.topology
            .get(&component)
            .and_then(|set| key.partition_in(set))
    }

    /// [`Membership::partition_for`], for a live `component` only.
    pub(crate) fn live_partition_for(
        &self,
        component: ComponentId,
        key: RouteKey<'_>,
    ) -> Option<usize> {
        self.partition_for(component, key)
            .filter(|_| self.is_live(component))
    }
}

/// Source of [`MembershipView`] ids, so a cached snapshot is only ever
/// reused by the view that published it.
static VIEW_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The last snapshot this thread loaded, of whichever view it read last.
    static CACHED: RefCell<Option<Arc<Membership>>> = const { RefCell::new(None) };
}

/// The published membership of one mesh, shared by the mesh, its recovery
/// manager, every component and their placement services.
pub(crate) struct MembershipView {
    id: u64,
    /// The generation of `current`, stored after it is swapped in.
    generation: AtomicU64,
    current: RwLock<Arc<Membership>>,
}

impl std::fmt::Debug for MembershipView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipView")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl Default for MembershipView {
    fn default() -> Self {
        let id = VIEW_IDS.fetch_add(1, Ordering::Relaxed);
        MembershipView {
            id,
            generation: AtomicU64::new(0),
            current: RwLock::new(Arc::new(Membership {
                view: id,
                ..Membership::default()
            })),
        }
    }
}

impl MembershipView {
    /// `read` applied to the current membership: this thread's cached
    /// snapshot while it is current, else the current one, loaded under the
    /// read lock and cached (uncached by a read nested in another).
    pub(crate) fn read<R>(&self, read: impl FnOnce(&Arc<Membership>) -> R) -> R {
        let generation = self.generation.load(Ordering::Acquire);
        CACHED.with(|cached| {
            let current = cached
                .borrow()
                .as_ref()
                .is_some_and(|m| m.view == self.id && m.generation == generation);
            if !current {
                let loaded = Arc::clone(&self.current.read());
                let Ok(mut slot) = cached.try_borrow_mut() else {
                    return read(&loaded);
                };
                // It may hold a dropped mesh's last cores: drop it unborrowed.
                let replaced = slot.replace(loaded);
                drop(slot);
                drop(replaced);
            }
            read(cached.borrow().as_ref().expect("cached above"))
        })
    }

    /// The current membership, as a handle of its own.
    pub(crate) fn snapshot(&self) -> Arc<Membership> {
        self.read(Arc::clone)
    }

    /// The generation of the current membership.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes the current membership changed by `change` under the next
    /// generation. `change` runs under the write lock — so side effects that
    /// must agree with the published value (the broker's assignment table)
    /// go inside it — and must not read this view.
    pub(crate) fn publish<R>(&self, change: impl FnOnce(&mut Membership) -> R) -> R {
        let mut current = self.current.write();
        let mut next = Membership::clone(&current);
        let result = change(&mut next);
        next.generation += 1;
        let generation = next.generation;
        *current = Arc::new(next);
        self.generation.store(generation, Ordering::Release);
        result
    }
}
