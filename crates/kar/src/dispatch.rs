//! The sharded dispatcher behind every component, with actor-level work
//! stealing, drained by the mesh's shared reactor pool.
//!
//! Early revisions processed a component's queue on one serial consumer
//! thread and spawned a fresh OS thread per invocation; later ones ran a
//! fixed pool of per-component *dispatch worker threads* that blocked on
//! nested calls and handed their shard to a replacement drainer. This module
//! now owns only the **shard queues**: polled requests are routed by actor
//! identity onto `MeshConfig::dispatch_workers` shard queues, and any
//! reactor thread may claim a shard and drain it. Invocations for distinct
//! actors therefore execute in parallel (on distinct reactors), while each
//! actor's mailbox stays strictly ordered:
//!
//! * an actor is pinned to one shard (stable hash of its qualified name,
//!   overridden when the actor is stolen — see below), so all of its
//!   requests arrive at the per-actor mailbox in queue order;
//! * a shard's claim ([`DispatchPool::try_claim`]) is held from pop through
//!   admission, so admission for a given actor is serial — two reactors can
//!   never interleave pops of one shard;
//! * the per-actor lock / reentrancy / tail-call retention rules of
//!   `run_invocation` are untouched — they serialize execution per actor no
//!   matter which reactor runs it.
//!
//! Work stealing: static actor→shard hashing leaves the worst shard with up
//! to ~2× the mean load. A reactor that finds every claimable shard empty
//! therefore steals work from the deepest shard queue
//! — and a push that leaves a queue [`STEAL_WAKEUP_DEPTH`] deep notifies the
//! pool's wait group (counted as a steal wakeup) so a parked reactor comes
//! back for the steal immediately rather than on its idle tick. Steals
//! always move whole *actors*: every queued request of the chosen actor
//! moves to the thief's queue in one atomic step (both shard locks held),
//! and a routing override sends the actor's future requests to the thief's
//! shard. An actor whose freshly popped request has not yet been admitted is
//! never stolen, so admission for one actor can never run on two reactors at
//! once. Because all of an actor's queued requests live in exactly one shard
//! queue at any time, and moves preserve their relative order, per-actor
//! FIFO admission — and with it mailbox order and the exactly-once retry
//! bookkeeping — is preserved.
//!
//! There is no blocking hand-off: nothing waits under a shard claim. A
//! handler that issues a nested call parks a continuation (see
//! [`crate::continuation`]), and an invocation — or a forward — that meets a
//! modelled latency or a stale placement parks as a stage on the mesh's
//! due-time heap (see [`crate::io`]); either way the drain gets the claim
//! back at once, so a shard is never stalled behind a suspended invocation
//! and no replacement thread is ever spawned.
//!
//! Recovery interaction: requests that have been polled off the queue but
//! not yet admitted to an actor mailbox are tracked in a pending set that
//! [`pending`](DispatchPool::pending) exposes to reconciliation, closing the
//! window in which a request would look neither "still queued" (its offset
//! was consumed) nor "locally pending" (not yet in a mailbox) and could be
//! re-homed a second time. Stolen requests stay in that set — stealing moves
//! them between shard queues, not out of the component.

use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_types::{ActorRef, RequestId, RequestMessage, WaitSignalGroup};

use crate::aging::AgingMap;

/// A shard queue must be at least this deep before an idle reactor will
/// steal from it: moving an actor for a single queued request would churn
/// the routing table for no balance win.
const MIN_STEAL_DEPTH: usize = 2;

/// A push that leaves its shard queue at least this deep notifies the wait
/// group again and counts a *steal wakeup*: a parked reactor wakes, finds an
/// empty claimable shard of its own, and loops through the steal path
/// immediately instead of waiting out its idle tick. Under very short
/// service times queues drain within a tick, so a tick-paced thief always
/// arrives too late; waking from `submit` closes that gap.
/// [`MIN_STEAL_DEPTH`] remains the floor the woken thief applies before
/// actually stealing.
const STEAL_WAKEUP_DEPTH: usize = 4;

/// The queue of one shard plus the admission guard.
#[derive(Default)]
struct ShardState {
    queue: VecDeque<RequestMessage>,
    /// Actors whose popped requests are currently being handled — from pop
    /// until the invocation (if any) completes. A thief never steals these
    /// actors: before admission that would reorder the actor's mailbox, and
    /// during execution the stolen requests would just land in the mailbox
    /// the busy reactor is already draining, moving the load counter without
    /// moving any work. A small *list*, not a single slot: the shard claim
    /// is released after admission while the invocation still runs, so
    /// several reactors can be executing (or parked on continuations) for
    /// one shard's actors at once, and each must guard — and later release —
    /// its own actor without clobbering the others'.
    busy_actors: Vec<ActorRef>,
}

struct Shard {
    state: Mutex<ShardState>,
    /// Queue depth mirror, so the steal scan and the reactor sweep read no
    /// locks.
    depth: AtomicUsize,
    /// Requests this shard has admitted (its processed load).
    processed: AtomicU64,
    /// True while some reactor holds the pop+admit claim on this shard. At
    /// most one claimant exists at a time.
    claimed: AtomicBool,
}

impl Shard {
    fn new() -> Self {
        Shard {
            state: Mutex::new(ShardState::default()),
            depth: AtomicUsize::new(0),
            processed: AtomicU64::new(0),
            claimed: AtomicBool::new(false),
        }
    }
}

/// The per-component shard set. Owned by `ComponentCore`; drained by the
/// mesh's reactor threads through `ComponentCore::pump`.
pub(crate) struct DispatchPool {
    shards: Vec<Shard>,
    /// Stolen actors' current shard assignments, overriding the static
    /// hash. Read under the target shard's state lock on submit; written
    /// only while both shard locks of a steal are held. Entries age out on
    /// the retention clock once their actor has been idle for one to two
    /// windows (see [`DispatchPool::age_routes`]), so long-lived components
    /// hosting transient actors don't grow an unbounded routing table.
    routes: Mutex<AgingMap<ActorRef, usize>>,
    /// Number of successful steals (whole actors moved).
    steals: AtomicU64,
    /// Number of deep pushes that re-notified the wait group to summon a
    /// thief (see [`STEAL_WAKEUP_DEPTH`]).
    steal_wakeups: AtomicU64,
    /// Requests polled off the queue but not yet admitted to an actor slot
    /// (mailbox / inflight / deferred). Consulted by reconciliation through
    /// `ComponentCore::locally_pending`.
    pending: Mutex<HashSet<RequestId>>,
    /// The wait group reactors park on: every push notifies it so a parked
    /// reactor sweeps the shard promptly. `None` in unit tests that drive
    /// the pool directly.
    wakeup: Option<Arc<WaitSignalGroup>>,
}

impl DispatchPool {
    /// Creates a pool with `workers` shards. Callers pass
    /// `MeshConfig::effective_dispatch_workers()`, the single authoritative
    /// clamp for the shard count, the retention interval steal-route
    /// overrides age out on, and the wait group pushes notify (the group the
    /// mesh's reactors park on).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub(crate) fn new(
        workers: usize,
        route_retention: Duration,
        wakeup: Option<Arc<WaitSignalGroup>>,
    ) -> Self {
        assert!(workers >= 1, "a dispatch pool needs at least one worker");
        DispatchPool {
            shards: (0..workers).map(|_| Shard::new()).collect(),
            routes: Mutex::new(AgingMap::new(route_retention)),
            steals: AtomicU64::new(0),
            steal_wakeups: AtomicU64::new(0),
            pending: Mutex::new(HashSet::new()),
            wakeup,
        }
    }

    /// Number of shards (= configured dispatch workers).
    pub(crate) fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The shard an actor's requests are currently routed to: a stable hash
    /// of its qualified name, unless the actor has been stolen. Reading an
    /// override refreshes its age, so routes in active use never expire.
    pub(crate) fn shard_of(&self, actor: &ActorRef) -> usize {
        if let Some(shard) = self.routes.lock().get_refresh(actor) {
            return shard;
        }
        self.home_shard(actor)
    }

    /// Number of live steal-route overrides.
    pub(crate) fn route_count(&self) -> usize {
        self.routes.lock().len()
    }

    /// Ages out steal-route overrides whose actor has been idle for one to
    /// two retention windows. Every candidate is re-checked under its shard's
    /// state lock — an override is dropped only while the actor has nothing
    /// queued and no invocation running, so dropping it can never split an
    /// actor's queued requests across two shards (the FIFO hazard aging must
    /// not introduce). Lock order is shard state → routes, the same order
    /// `submit`'s route re-check and `try_steal` use. Returns the number of
    /// overrides dropped.
    pub(crate) fn age_routes(&self, now: Duration) -> usize {
        let stale = {
            let mut routes = self.routes.lock();
            if !routes.advance_due(now) {
                return 0;
            }
            routes.stale_entries()
        };
        let mut dropped = 0;
        for (actor, shard) in stale {
            let state = self.shards[shard].state.lock();
            let active =
                state.busy_actors.contains(&actor) || state.queue.iter().any(|r| r.target == actor);
            // remove_if_stale re-verifies the stamp under the routes lock: a
            // submit that touched the route since the sweep vetoes the drop.
            if !active && self.routes.lock().remove_if_stale(&actor) {
                dropped += 1;
            }
            drop(state);
        }
        dropped
    }

    /// Drops one actor's steal-route override immediately — called when the
    /// actor is passivated, so the route table stays bounded by the resident
    /// set instead of waiting out the (longer) bookkeeping clock. Subject to
    /// the same active-veto as [`DispatchPool::age_routes`]: the override is
    /// kept while the actor has anything queued or running, so a rehydration
    /// racing the passivation can never split the actor's requests across
    /// two shards. Lock order shard state → routes, as everywhere.
    pub(crate) fn forget_route(&self, actor: &ActorRef) {
        let Some(shard) = self.routes.lock().peek(actor) else {
            return;
        };
        let state = self.shards[shard].state.lock();
        let active =
            state.busy_actors.contains(actor) || state.queue.iter().any(|r| r.target == *actor);
        if !active {
            self.routes.lock().remove(actor);
        }
        drop(state);
    }

    /// The static (hash) shard of an actor, ignoring steal overrides.
    fn home_shard(&self, actor: &ActorRef) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        actor.qualified_name().hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Requests each shard has admitted so far (the per-shard load the
    /// benchmarks report as max/mean imbalance).
    pub(crate) fn shard_loads(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.processed.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of successful actor steals so far.
    pub(crate) fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Human-readable snapshot of the shard queues, admission guards, steal
    /// routes and pending set — for debugging stuck requests. Uses
    /// `try_lock` throughout so a held (possibly wedged) lock is reported
    /// instead of deadlocking the reporter.
    pub(crate) fn debug_snapshot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let claimed = shard.claimed.load(Ordering::Relaxed);
            match shard.state.try_lock() {
                Some(state) => {
                    let ids: Vec<String> = state
                        .queue
                        .iter()
                        .map(|r| format!("{}→{}", r.id.as_u64(), r.target.qualified_name()))
                        .collect();
                    let busy: Vec<String> = state
                        .busy_actors
                        .iter()
                        .map(ActorRef::qualified_name)
                        .collect();
                    let _ = writeln!(
                        out,
                        "  shard {index}: claimed={claimed} busy_actors={busy:?} depth={} queue=[{}]",
                        shard.depth.load(Ordering::Relaxed),
                        ids.join(", "),
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  shard {index}: claimed={claimed} state=<LOCK HELD> depth={}",
                        shard.depth.load(Ordering::Relaxed),
                    );
                }
            }
        }
        match self.routes.try_lock() {
            Some(routes) => {
                let mut route_strs: Vec<String> = routes
                    .entries()
                    .into_iter()
                    .map(|(actor, shard)| format!("{}→{shard}", actor.qualified_name()))
                    .collect();
                route_strs.sort();
                let _ = writeln!(out, "  routes: [{}]", route_strs.join(", "));
            }
            None => {
                let _ = writeln!(out, "  routes: <LOCK HELD>");
            }
        }
        match self.pending.try_lock() {
            Some(pending) => {
                let mut ids: Vec<u64> = pending.iter().map(|id| id.as_u64()).collect();
                ids.sort_unstable();
                let _ = writeln!(out, "  pending admission: {ids:?}");
            }
            None => {
                let _ = writeln!(out, "  pending admission: <LOCK HELD>");
            }
        }
        out
    }

    /// Notifies the attached wait group (a push made work available).
    fn notify(&self) {
        if let Some(group) = &self.wakeup {
            group.notify();
        }
    }

    /// Routes `request` to its actor's shard queue and records it as
    /// pending-admission. Always succeeds (the pool lives as long as the
    /// component); the return value is kept for call-site symmetry.
    pub(crate) fn submit(&self, request: RequestMessage) -> bool {
        self.pending.lock().insert(request.id);
        self.push_routed(request);
        true
    }

    /// Routes a batch of requests to their actors' shard queues in one lock
    /// acquisition per shard touched: the consumer hands each poll batch off
    /// with one `pending` insert pass and one push pass per target shard,
    /// instead of one of each per record. Relative order is preserved within
    /// each actor (all of an actor's requests group onto one shard), so
    /// per-actor FIFO is untouched.
    pub(crate) fn submit_batch(&self, requests: Vec<RequestMessage>) {
        if requests.is_empty() {
            return;
        }
        {
            let mut pending = self.pending.lock();
            for request in &requests {
                pending.insert(request.id);
            }
        }
        // Group by routed shard, preserving relative order within each group.
        let mut buckets: Vec<(usize, Vec<RequestMessage>)> = Vec::new();
        for request in requests {
            let shard = self.shard_of(&request.target);
            match buckets.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, group)) => group.push(request),
                None => buckets.push((shard, vec![request])),
            }
        }
        for (shard, group) in buckets {
            // A steal can move an actor between grouping and locking; the
            // re-check under the shard lock is authoritative (steals hold
            // both shard locks while rerouting, so an actor with requests in
            // this queue cannot move while we hold its lock). Rerouted
            // stragglers fall back to the one-at-a-time path, still in order.
            let mut rerouted: Vec<RequestMessage> = Vec::new();
            let mut pushed = 0usize;
            let mut depth_after = 0usize;
            {
                let mut state = self.shards[shard].state.lock();
                for request in group {
                    if self.shard_of(&request.target) != shard {
                        rerouted.push(request);
                        continue;
                    }
                    state.queue.push_back(request);
                    pushed += 1;
                }
                if pushed > 0 {
                    // The depth mirror is mutated under the shard lock, like
                    // every pop and steal: bumping it after the release let a
                    // concurrent drainer pop the fresh requests first and
                    // underflow (wrap) the counter, which the steal scan then
                    // read as an enormous queue.
                    depth_after = self.shards[shard]
                        .depth
                        .fetch_add(pushed, Ordering::Relaxed)
                        + pushed;
                }
            }
            if pushed > 0 {
                self.notify();
                self.maybe_wake_thief(shard, depth_after);
            }
            for request in rerouted {
                self.push_routed(request);
            }
        }
    }

    /// Pushes one request onto its routed shard. A steal can move the actor
    /// between the route read and the queue push; re-check the route under
    /// the shard lock (steals update routes while holding both shard locks,
    /// so a stable read here means the push lands in the queue every other
    /// submit and steal agrees on).
    fn push_routed(&self, request: RequestMessage) {
        loop {
            let shard = self.shard_of(&request.target);
            let mut state = self.shards[shard].state.lock();
            if self.shard_of(&request.target) != shard {
                continue;
            }
            state.queue.push_back(request);
            let depth = self.shards[shard].depth.fetch_add(1, Ordering::Relaxed) + 1;
            drop(state);
            self.notify();
            self.maybe_wake_thief(shard, depth);
            return;
        }
    }

    /// Proactive steal signal: when a push leaves `shard`'s queue at least
    /// [`STEAL_WAKEUP_DEPTH`] deep while some other shard sits empty,
    /// re-notify the wait group (and count it). A parked reactor wakes,
    /// finds its claimable shards empty, and loops through the steal path
    /// immediately — instead of sleeping out the rest of its idle tick while
    /// this queue backs up. Best-effort: if every reactor is mid-invocation
    /// the signal is absorbed, and the idle tick remains the backstop.
    fn maybe_wake_thief(&self, loaded: usize, depth: usize) {
        if depth < STEAL_WAKEUP_DEPTH {
            return;
        }
        for (index, shard) in self.shards.iter().enumerate() {
            if index != loaded && shard.depth.load(Ordering::Relaxed) == 0 {
                self.notify();
                self.steal_wakeups.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Number of proactive steal wakeups issued so far.
    pub(crate) fn steal_wakeup_count(&self) -> u64 {
        self.steal_wakeups.load(Ordering::Relaxed)
    }

    /// Queue depth of `shard` (lock-free; the reactor sweep's cheap gate).
    pub(crate) fn depth(&self, shard: usize) -> usize {
        self.shards[shard].depth.load(Ordering::Relaxed)
    }

    /// Claims the pop+admit critical section of `shard`. Returns false if
    /// another reactor holds it. The claim must be held from pop through
    /// admission (that's what serializes admission per shard, and with it
    /// per-actor FIFO) and released before running the invocation, so a slow
    /// handler never stalls its shard.
    pub(crate) fn try_claim(&self, shard: usize) -> bool {
        self.shards[shard]
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the pop+admit claim of `shard`.
    pub(crate) fn release_claim(&self, shard: usize) {
        self.shards[shard].claimed.store(false, Ordering::Release);
    }

    /// Pops the next request of `shard`, marking its actor as
    /// admission-in-progress (cleared by [`DispatchPool::release_busy_actor`]
    /// once the invocation completes). Callers hold the shard claim.
    pub(crate) fn try_pop(&self, shard: usize) -> Option<RequestMessage> {
        let mut state = self.shards[shard].state.lock();
        let request = state.queue.pop_front()?;
        state.busy_actors.push(request.target.clone());
        self.shards[shard].depth.fetch_sub(1, Ordering::Relaxed);
        Some(request)
    }

    /// Counts the processed request. Called once per popped request, after
    /// `admit_request` has placed it in an actor slot (or dropped it as a
    /// duplicate). The busy-actor guard stays up until
    /// [`DispatchPool::release_busy_actor`].
    pub(crate) fn mark_admitted(&self, shard: usize) {
        self.shards[shard].processed.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases one busy-actor guard of `shard`: the popped request's
    /// invocation (and any mailbox continuations it drained) has completed,
    /// so `actor` is stealable again. Each reactor releases exactly the
    /// actor it popped — never another reactor's concurrent guard.
    pub(crate) fn release_busy_actor(&self, shard: usize, actor: &ActorRef) {
        let mut state = self.shards[shard].state.lock();
        if let Some(position) = state.busy_actors.iter().position(|a| a == actor) {
            state.busy_actors.swap_remove(position);
        }
    }

    /// Steals one whole actor from the deepest other shard into `thief`'s
    /// queue. Every queued request of the stolen actor moves in one atomic
    /// step and future requests are routed to the thief, so per-actor FIFO
    /// order is preserved. Returns true if an actor was moved.
    pub(crate) fn try_steal(&self, thief: usize) -> bool {
        // Lock-free scan for the deepest candidate shard.
        let victim = self
            .shards
            .iter()
            .enumerate()
            .filter(|(index, _)| *index != thief)
            .map(|(index, shard)| (index, shard.depth.load(Ordering::Relaxed)))
            .max_by_key(|(_, depth)| *depth)
            .filter(|(_, depth)| *depth >= MIN_STEAL_DEPTH)
            .map(|(index, _)| index);
        let Some(victim) = victim else { return false };

        // Take both shard locks in index order (concurrent thieves must not
        // deadlock), then move the actor.
        let (first, second) = if victim < thief {
            (victim, thief)
        } else {
            (thief, victim)
        };
        let mut first_state = self.shards[first].state.lock();
        let mut second_state = self.shards[second].state.lock();
        let (victim_state, thief_state) = if victim < thief {
            (&mut first_state, &mut second_state)
        } else {
            (&mut second_state, &mut first_state)
        };

        // Pick the actor with the most queued requests — moving it buys the
        // most balance — skipping any actor the victim's drainers are busy
        // with.
        let mut counts: Vec<(ActorRef, usize)> = Vec::new();
        for request in &victim_state.queue {
            if victim_state.busy_actors.contains(&request.target) {
                continue;
            }
            match counts
                .iter_mut()
                .find(|(actor, _)| *actor == request.target)
            {
                Some((_, count)) => *count += 1,
                None => counts.push((request.target.clone(), 1)),
            }
        }
        let Some((actor, moved)) = counts.into_iter().max_by_key(|(_, count)| *count) else {
            return false;
        };

        // Move the actor's requests, preserving their relative order, and
        // point its route at the thief before releasing the locks.
        let mut kept = VecDeque::with_capacity(victim_state.queue.len() - moved);
        for request in victim_state.queue.drain(..) {
            if request.target == actor {
                thief_state.queue.push_back(request);
            } else {
                kept.push_back(request);
            }
        }
        victim_state.queue = kept;
        self.routes.lock().insert(actor, thief);
        self.shards[victim]
            .depth
            .fetch_sub(moved, Ordering::Relaxed);
        self.shards[thief].depth.fetch_add(moved, Ordering::Relaxed);
        self.steals.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// True if `id` has been polled but not yet admitted to an actor slot.
    pub(crate) fn is_pending(&self, id: RequestId) -> bool {
        self.pending.lock().contains(&id)
    }

    /// Marks `id` as admitted (present in mailbox / inflight / deferred).
    pub(crate) fn admitted(&self, id: RequestId) {
        self.pending.lock().remove(&id);
    }

    /// Drops the pending set and steal routes (component killed: in-memory
    /// state is lost; the queue copies survive and drive the retry).
    pub(crate) fn clear_pending(&self) {
        self.pending.lock().clear();
        self.routes.lock().clear();
    }

    /// Test helper mirroring the reactor sweep for one shard: pop, else
    /// steal-and-pop, else poll until `timeout`. Production code drains
    /// shards through `ComponentCore::pump`, which parks on the wait group
    /// instead of polling.
    #[cfg(test)]
    pub(crate) fn next_request(&self, shard: usize, timeout: Duration) -> Option<RequestMessage> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(request) = self.try_pop(shard) {
                return Some(request);
            }
            if self.try_steal(shard) {
                if let Some(request) = self.try_pop(shard) {
                    return Some(request);
                }
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_types::CallKind;

    /// Route retention far beyond any test's runtime: aging only fires when
    /// a test drives it explicitly with synthetic instants.
    const RETENTION: Duration = Duration::from_secs(3600);

    fn request(id: u64, actor: &str) -> RequestMessage {
        RequestMessage {
            id: RequestId::from_raw(id),
            caller: None,
            target: ActorRef::new("T", actor),
            method: "m".into(),
            args: vec![],
            kind: CallKind::Call,
            lineage: vec![],
            pending_callee: None,
            caller_actor: None,
            reply_to: None,
            retry: None,
            single_copy: false,
        }
    }

    fn pool(workers: usize, retention: Duration) -> DispatchPool {
        DispatchPool::new(workers, retention, None)
    }

    #[test]
    fn actors_are_pinned_to_stable_shards() {
        let pool = pool(4, RETENTION);
        assert_eq!(pool.workers(), 4);
        for i in 0..32 {
            let actor = ActorRef::new("T", format!("a{i}"));
            let shard = pool.shard_of(&actor);
            assert!(shard < 4);
            assert_eq!(shard, pool.shard_of(&actor), "routing must be stable");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        pool(0, RETENTION);
    }

    #[test]
    fn submit_tracks_pending_until_admitted() {
        let pool = pool(2, RETENTION);
        let r = request(7, "a");
        let id = r.id;
        assert!(pool.submit(r));
        assert!(pool.is_pending(id));
        let shard = pool.shard_of(&ActorRef::new("T", "a"));
        let received = pool.next_request(shard, Duration::from_millis(5)).unwrap();
        assert_eq!(received.id, id);
        assert!(pool.is_pending(id), "still pending until admitted");
        pool.admitted(id);
        pool.mark_admitted(shard);
        pool.release_busy_actor(shard, &received.target);
        assert!(!pool.is_pending(id));
        assert_eq!(pool.shard_loads()[shard], 1);
    }

    #[test]
    fn next_request_times_out_on_an_empty_shard() {
        let pool = pool(1, RETENTION);
        assert!(pool.next_request(0, Duration::from_millis(2)).is_none());
    }

    #[test]
    fn concurrent_pushes_never_lose_or_duplicate_requests() {
        // Stress the push/pop/steal paths from two sides at once: every
        // submitted request must be drained exactly once, and the depth
        // mirrors must come back to zero.
        use std::sync::Arc;
        const MESSAGES: u64 = 2_000;
        let pool = Arc::new(DispatchPool::new(2, RETENTION, None));
        let shard = pool.shard_of(&ActorRef::new("T", "a"));
        let pusher_pool = pool.clone();
        let pusher = std::thread::spawn(move || {
            for id in 1..=MESSAGES {
                pusher_pool.submit(request(id, "a"));
                if id % 64 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut received = 0u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while received < MESSAGES {
            assert!(
                std::time::Instant::now() < deadline,
                "drainer wedged after {received}/{MESSAGES} messages"
            );
            // Alternate shards so steals (and their route churn) happen too.
            for s in [shard, 1 - shard] {
                if let Some(r) = pool.next_request(s, Duration::from_micros(50)) {
                    pool.admitted(r.id);
                    pool.mark_admitted(s);
                    pool.release_busy_actor(s, &r.target);
                    received += 1;
                }
            }
        }
        pusher.join().unwrap();
        assert_eq!(received, MESSAGES);
        assert_eq!(pool.depth(0) + pool.depth(1), 0);
    }

    #[test]
    fn idle_worker_steals_a_whole_actor_from_the_deepest_shard() {
        let pool = pool(2, RETENTION);
        let hot = ActorRef::new("T", "hot");
        let warm = ActorRef::new("T", "warm");
        let victim = pool.shard_of(&hot);
        let thief = 1 - victim;
        // Pin "warm" onto the same shard as "hot" via a route override, then
        // queue 3 hot + 2 warm requests there.
        pool.routes.lock().insert(warm.clone(), victim);
        let mut id = 0;
        for _ in 0..3 {
            id += 1;
            pool.submit(request(id, "hot"));
        }
        for _ in 0..2 {
            id += 1;
            let mut r = request(id, "warm");
            r.target = warm.clone();
            pool.submit(r);
        }
        assert_eq!(pool.depth(victim), 5);

        // The idle thief steals the biggest actor ("hot", 3 queued) and only
        // that actor; "warm" stays home.
        let stolen = pool.next_request(thief, Duration::from_millis(5)).unwrap();
        assert_eq!(stolen.target, hot);
        assert_eq!(pool.steal_count(), 1);
        assert_eq!(
            pool.shard_of(&hot),
            thief,
            "route override follows the steal"
        );
        assert_eq!(pool.shard_of(&warm), victim);
        assert_eq!(pool.depth(thief), 2);
        assert_eq!(pool.depth(victim), 2);

        // Stolen requests drain from the thief in FIFO order, and future
        // submits for the stolen actor land on the thief.
        pool.mark_admitted(thief);
        pool.release_busy_actor(thief, &stolen.target);
        let next = pool.next_request(thief, Duration::from_millis(5)).unwrap();
        assert!(stolen.id < next.id, "steal must preserve per-actor order");
        pool.submit(request(99, "hot"));
        assert_eq!(pool.depth(thief), 2);
    }

    #[test]
    fn stealing_skips_the_actor_its_drainer_is_busy_with() {
        let pool = pool(2, RETENTION);
        let hot = ActorRef::new("T", "hot");
        let victim = pool.shard_of(&hot);
        let thief = 1 - victim;
        for id in 1..=3 {
            pool.submit(request(id, "hot"));
        }
        // The victim's drainer pops one request: from that pop until the
        // invocation completes, the only queued actor is busy there, so
        // nothing is stolen.
        let popped = pool.try_pop(victim).unwrap();
        assert_eq!(popped.target, hot);
        assert!(!pool.try_steal(thief), "must not steal a busy actor");
        pool.mark_admitted(victim);
        assert!(
            !pool.try_steal(thief),
            "still busy while the invocation runs"
        );
        // Once the invocation completes, the remaining requests are fair game.
        pool.release_busy_actor(victim, &hot);
        assert!(pool.try_steal(thief));
        assert_eq!(pool.shard_of(&hot), thief);
    }

    #[test]
    fn shallow_queues_are_not_stolen_from() {
        let pool = pool(2, RETENTION);
        let hot = ActorRef::new("T", "hot");
        let victim = pool.shard_of(&hot);
        let thief = 1 - victim;
        pool.submit(request(1, "hot"));
        assert!(
            !pool.try_steal(thief),
            "one queued request is below the steal threshold"
        );
        assert_eq!(pool.steal_count(), 0);
        let _ = victim;
    }

    #[test]
    fn shard_claims_are_exclusive_until_released() {
        let pool = pool(2, RETENTION);
        assert!(pool.try_claim(0));
        assert!(!pool.try_claim(0), "second claim must fail");
        assert!(pool.try_claim(1), "claims are per shard");
        pool.release_claim(0);
        assert!(pool.try_claim(0), "released claims are reclaimable");
        pool.release_claim(0);
        pool.release_claim(1);
    }

    #[test]
    fn submit_batch_groups_by_shard_and_preserves_per_actor_order() {
        let pool = pool(4, RETENTION);
        // Interleave requests for several actors; the batch must land each
        // actor's requests on its shard in submission order.
        let mut batch = Vec::new();
        let mut id = 0;
        for round in 0..5 {
            for actor in ["a", "b", "c", "d", "e", "f"] {
                id += 1;
                batch.push(request(id, actor));
                let _ = round;
            }
        }
        let total = batch.len();
        pool.submit_batch(batch);
        let mut drained = 0;
        let mut last_per_actor: std::collections::HashMap<String, u64> =
            std::collections::HashMap::new();
        for shard in 0..4 {
            while let Some(r) = pool.next_request(shard, Duration::from_millis(1)) {
                assert_eq!(pool.shard_of(&r.target), shard, "misrouted batch entry");
                assert!(pool.is_pending(r.id), "batch entry not pending admission");
                let last = last_per_actor
                    .entry(r.target.actor_id().to_owned())
                    .or_insert(0);
                assert!(r.id.as_u64() > *last, "per-actor order broken in batch");
                *last = r.id.as_u64();
                pool.admitted(r.id);
                pool.mark_admitted(shard);
                pool.release_busy_actor(shard, &r.target);
                drained += 1;
            }
        }
        assert_eq!(drained, total, "batch lost or duplicated requests");
        // Empty batches are a no-op.
        pool.submit_batch(Vec::new());
    }

    #[test]
    fn submit_batch_honours_steal_route_overrides() {
        let pool = pool(2, RETENTION);
        let hot = ActorRef::new("T", "hot");
        let home = pool.shard_of(&hot);
        let exile = 1 - home;
        pool.routes.lock().insert(hot.clone(), exile);
        pool.submit_batch((1..=3).map(|id| request(id, "hot")).collect());
        assert_eq!(pool.depth(exile), 3);
        assert_eq!(pool.depth(home), 0);
    }

    #[test]
    fn idle_steal_routes_age_out_but_active_ones_survive() {
        let pool = pool(2, Duration::from_millis(1));
        let idle = ActorRef::new("T", "idle");
        let busy = ActorRef::new("T", "busy");
        pool.routes.lock().insert(idle.clone(), 0);
        pool.routes.lock().insert(busy.clone(), 0);
        assert_eq!(pool.route_count(), 2);
        // "busy" keeps queued requests in its routed shard; "idle" has none.
        let mut r = request(1, "busy");
        r.target = busy.clone();
        pool.submit(r);
        let t = kar_types::mono_now();
        assert_eq!(pool.age_routes(t + Duration::from_millis(2)), 0);
        // A refresh between the generations keeps a route young: touching
        // "idle" now postpones its expiry past the next rotation.
        let _ = pool.shard_of(&idle);
        assert_eq!(pool.age_routes(t + Duration::from_millis(4)), 0);
        // Two full idle generations later, only the idle route is dropped:
        // the busy actor's queued request vetoes its removal.
        let dropped = pool.age_routes(t + Duration::from_millis(8));
        assert_eq!(dropped, 1, "exactly the idle route should age out");
        assert_eq!(pool.route_count(), 1);
        assert_eq!(pool.shard_of(&busy), 0, "active override must survive");
        // Rotation is interval-gated: an immediate re-run is a no-op.
        assert_eq!(pool.age_routes(t + Duration::from_millis(8)), 0);
        // Once the busy actor drains, its route ages out after two further
        // idle generations (the shard_of assertion above refreshed it).
        let got = pool.next_request(0, Duration::from_millis(5)).unwrap();
        pool.admitted(got.id);
        pool.mark_admitted(0);
        pool.release_busy_actor(0, &got.target);
        assert_eq!(pool.age_routes(t + Duration::from_millis(12)), 0);
        assert_eq!(pool.age_routes(t + Duration::from_millis(16)), 1);
        assert_eq!(pool.route_count(), 0);
    }

    #[test]
    fn a_dropped_route_falls_back_to_the_home_shard_with_nothing_queued() {
        let pool = pool(2, Duration::from_millis(1));
        let actor = ActorRef::new("T", "wanderer");
        let home = pool.shard_of(&actor);
        pool.routes.lock().insert(actor.clone(), 1 - home);
        assert_eq!(pool.shard_of(&actor), 1 - home);
        let t = kar_types::mono_now();
        assert_eq!(pool.age_routes(t + Duration::from_millis(2)), 0);
        assert_eq!(pool.age_routes(t + Duration::from_millis(4)), 1);
        assert_eq!(pool.shard_of(&actor), home);
        // New traffic lands on the home shard; per-actor FIFO is trivially
        // safe because the override was only dropped while nothing was
        // queued anywhere for the actor.
        pool.submit(request(9, "wanderer"));
        assert_eq!(pool.depth(home), 1);
    }

    #[test]
    fn deep_pushes_notify_the_wait_group_for_a_parked_thief() {
        use std::sync::Arc;
        let group = Arc::new(WaitSignalGroup::new());
        let pool = Arc::new(DispatchPool::new(2, RETENTION, Some(group.clone())));
        let hot = ActorRef::new("T", "hot");
        let victim = pool.shard_of(&hot);
        let thief = 1 - victim;
        // Park a thief on the wait group with a timeout far longer than the
        // test budget: only a push's notify can return it early.
        let thief_pool = pool.clone();
        let thief_group = group.clone();
        let parked = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            loop {
                let seen = thief_group.current();
                if let Some(request) = thief_pool.try_pop(thief) {
                    return (request, t0.elapsed());
                }
                if thief_pool.try_steal(thief) {
                    if let Some(request) = thief_pool.try_pop(thief) {
                        return (request, t0.elapsed());
                    }
                }
                assert!(t0.elapsed() < Duration::from_secs(5), "thief never woke");
                thief_group.wait(seen, Duration::from_millis(900));
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        for id in 1..=(STEAL_WAKEUP_DEPTH as u64 + 1) {
            pool.submit(request(id, "hot"));
        }
        let (stolen, elapsed) = parked.join().unwrap();
        assert_eq!(stolen.target, hot);
        assert!(pool.steal_wakeup_count() >= 1, "no wakeup was counted");
        assert_eq!(pool.steal_count(), 1);
        // Without the notify the thief sleeps out its 900 ms park (plus the
        // 100 ms head start); with it, the steal lands well inside that.
        assert!(
            elapsed < Duration::from_millis(700),
            "thief waited out its park: {elapsed:?}"
        );
    }

    #[test]
    fn shallow_pushes_do_not_issue_steal_wakeups() {
        let pool = pool(2, RETENTION);
        for id in 1..STEAL_WAKEUP_DEPTH as u64 {
            pool.submit(request(id, "hot"));
        }
        assert_eq!(pool.steal_wakeup_count(), 0);
        // Crossing the watermark issues one (counted even with no parked
        // waiter — the signal is best-effort).
        pool.submit(request(99, "hot"));
        assert!(pool.steal_wakeup_count() >= 1);
        // A lone shard has no thief to wake.
        let no_steal = DispatchPool::new(1, RETENTION, None);
        for id in 1..=(STEAL_WAKEUP_DEPTH as u64 * 2) {
            no_steal.submit(request(id, "hot"));
        }
        assert_eq!(no_steal.steal_wakeup_count(), 0);
    }
}
