//! Failure detection, consensus and reconciliation (§4.3).
//!
//! The queue substrate detects failures (heartbeat session timeout) and
//! announces a new membership generation after a stabilization window (the
//! *detection* and *consensus* phases of Figure 7a). The recovery manager of
//! this module then runs **reconciliation**: it forcefully disconnects failed
//! components from the store, catalogs unexpired messages, discards requests
//! that already completed (matching response) or were superseded by a tail
//! call, invalidates placement decisions for actors hosted by failed
//! components, eagerly re-places actors with pending requests, re-homes their
//! pending requests (annotated with their pending callee to preserve
//! happen-before) and any responses stranded unconsumed in the failed queues
//! (re-appended to the caller's current placement — destroying them with the
//! queue flush would leave their callers waiting for completions that no
//! survivor can ever resend), flushes the failed queues, and finally re-homes the
//! failed components' **partition ranges** onto surviving components: each
//! partition is fenced (bumping its ownership epoch, so a slow consumer of
//! the old assignment cannot double-commit) and then adopted by a survivor
//! as a drain-only partition — records appended by racing senders after the
//! flush are therefore still consumed, and the adopter's admission-time
//! placement check forwards any it does not own.
//!
//! Interaction with dispatch: pausing a component stops its consumer lanes
//! from polling and its due retries from being admitted, so no *new* batch
//! reaches an actor mailbox while the leader catalogs queues; invocations
//! already executing — and the rest of a batch already polled — keep going
//! (the paper does not preempt running tasks). A lane advances its
//! partition's consumed offset past a request only once admission has
//! claimed it — running, mailboxed, deferred and parked requests all hold
//! the claim (see `ComponentCore::locally_pending`) — so a request a
//! survivor has polled counts as still queued or locally pending, and
//! cataloguing never re-homes a copy that a live component is still going
//! to process.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError};

use kar_queue::{Broker, GroupEvent, PartitionSet};
use kar_store::Store;
use kar_types::{ComponentId, Envelope, RequestId, RequestMessage, ResponseMessage};

use crate::component::ComponentCore;
use crate::config::MeshConfig;
use crate::faults::{retry_transient, TRANSIENT_ATTEMPTS};
use crate::membership::MembershipView;
use crate::placement::{
    component_from_value, component_to_value, host_field, hosts_key, live_announced, placement_key,
    RouteKey,
};

/// Timings and size of one recovery (one completed rebalance that removed at
/// least one component), mirroring the phases of Figure 7a / Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageRecord {
    /// The group generation announced by this recovery.
    pub generation: u64,
    /// The components removed by this recovery.
    pub failed_components: Vec<ComponentId>,
    /// Broker time at which the first of the failed components was killed
    /// (recorded by the fault injector; `None` for failures not injected
    /// through the mesh API).
    pub killed_at: Option<Duration>,
    /// Broker time at which the first failure was detected (end of the
    /// detection phase).
    pub detected_at: Duration,
    /// Broker time at which the new membership generation was announced (end
    /// of the consensus phase).
    pub consensus_at: Duration,
    /// Broker time at which reconciliation finished and normal processing
    /// resumed.
    pub reconciled_at: Duration,
    /// Number of pending requests re-homed onto surviving components.
    pub rehomed_requests: usize,
    /// The failed components' queue partitions re-homed onto survivors by
    /// this recovery (each fenced against its old consumer, then adopted as
    /// a drain-only partition). Empty when no survivor could adopt them.
    pub rehomed_partitions: Vec<usize>,
}

impl OutageRecord {
    /// Duration of the detection phase (kill → detection), if the kill time
    /// is known.
    pub fn detection(&self) -> Option<Duration> {
        self.killed_at
            .map(|killed| self.detected_at.saturating_sub(killed))
    }

    /// Duration of the consensus phase (detection → new generation).
    pub fn consensus(&self) -> Duration {
        self.consensus_at.saturating_sub(self.detected_at)
    }

    /// Duration of the reconciliation phase (new generation → resume).
    pub fn reconciliation(&self) -> Duration {
        self.reconciled_at.saturating_sub(self.consensus_at)
    }

    /// Total outage (kill → resume), if the kill time is known.
    pub fn total(&self) -> Option<Duration> {
        self.killed_at
            .map(|killed| self.reconciled_at.saturating_sub(killed))
    }
}

/// The log of every recovery performed by a mesh.
///
/// Waiters park on a condvar notified by every push (the `poll_wait` idiom
/// of the queue substrate), so [`RecoveryLog::wait_for`] consumes no CPU
/// while recovery is in flight. (std primitives, not parking_lot: a
/// `Condvar` must pair with a `std::sync::Mutex`.)
#[derive(Debug, Default)]
pub struct RecoveryLog {
    records: std::sync::Mutex<Vec<OutageRecord>>,
    grew: std::sync::Condvar,
}

impl RecoveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RecoveryLog::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<OutageRecord>> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn push(&self, record: OutageRecord) {
        self.lock().push(record);
        self.grew.notify_all();
    }

    /// Number of recoveries performed so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if no recovery has been performed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every recovery record.
    pub fn snapshot(&self) -> Vec<OutageRecord> {
        self.lock().clone()
    }

    /// The most recent recovery record, if any.
    pub fn last(&self) -> Option<OutageRecord> {
        self.lock().last().cloned()
    }

    /// Blocks until the log holds at least `count` records or `timeout`
    /// elapses, parking on the push signal instead of polling. Returns true
    /// if the target was reached.
    pub fn wait_for(&self, count: usize, timeout: Duration) -> bool {
        if kar_types::sim::active() {
            // Simulation: the caller is the only thread; drive the scheduler
            // until the recoveries land or the *virtual* deadline passes.
            let deadline = kar_types::mono_now() + timeout;
            loop {
                if self.lock().len() >= count {
                    return true;
                }
                if kar_types::mono_now() >= deadline {
                    return false;
                }
                kar_types::sim::step();
            }
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut records = self.lock();
        while records.len() < count {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, result) = self
                .grew
                .wait_timeout(records, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            records = next;
            if result.timed_out() && records.len() < count {
                return false;
            }
        }
        true
    }
}

/// Everything the recovery manager needs, shared with the mesh.
pub(crate) struct RecoveryContext {
    pub(crate) config: MeshConfig,
    pub(crate) topic: String,
    pub(crate) group: String,
    pub(crate) broker: Broker<Envelope>,
    pub(crate) store: Store,
    /// The mesh's membership: recovery publishes the group's live set at
    /// consensus and the re-homed partition ranges at step 8.
    pub(crate) membership: Arc<MembershipView>,
    pub(crate) log: Arc<RecoveryLog>,
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// Runs the recovery manager loop until shutdown. Spawned by the mesh on a
/// dedicated thread; it plays the role of the elected reconciliation leader
/// among the surviving components (§4.3).
pub(crate) fn run_recovery_manager(ctx: RecoveryContext, events: Receiver<GroupEvent>) {
    let mut manager = RecoveryManager::new(ctx);
    loop {
        if manager.ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let event = match events.recv_timeout(Duration::from_millis(20)) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        manager.handle(event);
    }
}

/// The reconciliation leader: the context it acts through, plus its own
/// bookkeeping across group events.
pub(crate) struct RecoveryManager {
    ctx: RecoveryContext,
    /// Broker time of each failure detected and not yet reconciled.
    detections: HashMap<ComponentId, Duration>,
    /// Re-homed requests whose actor type had no live host, retried when a
    /// component joins.
    orphans: Vec<RequestMessage>,
}

impl RecoveryManager {
    pub(crate) fn new(ctx: RecoveryContext) -> Self {
        RecoveryManager {
            ctx,
            detections: HashMap::new(),
            orphans: Vec::new(),
        }
    }

    /// Handles one membership event from the broker's group coordinator.
    /// Shared by the threaded manager loop above and the
    /// deterministic-simulation lane, which drains the same channel via
    /// `try_recv` from the scheduler.
    pub(crate) fn handle(&mut self, event: GroupEvent) {
        let ctx = &self.ctx;
        match event {
            GroupEvent::MemberJoined { .. } | GroupEvent::MemberLeft { .. } => {}
            GroupEvent::FailureDetected { component, at } => {
                self.detections.entry(component).or_insert(at);
            }
            GroupEvent::RebalanceCompleted {
                generation,
                live,
                removed,
                at,
            } => {
                // Consensus: the group's new live set, in one generation. A
                // member the mesh has not published yet joins with its own
                // publish.
                ctx.membership.publish(|members| {
                    for c in &removed {
                        members.live.remove(c);
                    }
                    let joined: Vec<ComponentId> = live
                        .iter()
                        .filter(|c| members.components.contains_key(c))
                        .copied()
                        .collect();
                    members.live.extend(joined);
                });
                if removed.is_empty() {
                    retry_orphans(ctx, &mut self.orphans);
                    return;
                }
                // Pause message processing on the survivors while the leader
                // reconciles ("all components temporarily stop sending and
                // receiving messages"). This halts their consumer lanes and
                // retry pumps; in-flight invocations drain on their own.
                let survivors: Vec<Arc<ComponentCore>> = ctx.membership.read(|members| {
                    live.iter()
                        .filter_map(|c| members.components.get(c).cloned())
                        .collect()
                });
                for component in &survivors {
                    component.pause();
                }
                let (rehomed, rehomed_partitions) =
                    reconcile(ctx, &mut self.orphans, &removed, &live);
                for component in &survivors {
                    component.resume();
                }
                let reconciled_at = ctx.broker.now();
                let killed_at = ctx.membership.read(|members| {
                    removed
                        .iter()
                        .filter_map(|c| members.fenced.get(c).copied())
                        .min()
                });
                let detected_at = removed
                    .iter()
                    .filter_map(|c| self.detections.remove(c))
                    .min()
                    .unwrap_or(at);
                ctx.log.push(OutageRecord {
                    generation,
                    failed_components: removed,
                    killed_at,
                    detected_at,
                    consensus_at: at,
                    reconciled_at,
                    rehomed_requests: rehomed,
                    rehomed_partitions,
                });
            }
        }
    }
}

/// Re-homes orphaned requests (whose actor type had no live host) once new
/// components join (§4.3: "KAR queues requests to unavailable types
/// separately, revisiting this queue when new components are added").
fn retry_orphans(ctx: &RecoveryContext, orphans: &mut Vec<RequestMessage>) {
    let pending: Vec<RequestMessage> = std::mem::take(orphans);
    if pending.is_empty() {
        return;
    }
    let live: Vec<ComponentId> = ctx
        .membership
        .read(|members| members.live.iter().copied().collect());
    let mut rewrites = PlacementRewriter::default();
    let mut batches = RehomeBatches::default();
    for request in pending {
        if let Some((partition, request)) =
            rehome_decision(ctx, orphans, request, &live, &mut rewrites)
        {
            batches.push(partition, request);
        }
    }
    // Placements must be durable before the records that rely on them.
    rewrites.flush_writes(ctx);
    batches.flush(ctx);
}

/// Placement rewrites buffered by one reconciliation round.
///
/// Decisions are recorded locally first (read-your-writes: a later request
/// for the same actor sees the earlier decision before it is durable) and
/// made durable by [`PlacementRewriter::flush_writes`] through **one** admin
/// [`Pipeline`](kar_store::Pipeline) — one store-lock acquisition per shard
/// touched instead of one per rewritten key. Live-host lookups are cached
/// per actor type, since the prefix scan walks every store shard and the
/// live set is frozen for the duration of the round.
#[derive(Default)]
struct PlacementRewriter {
    /// Every decision made this round (flushed or not), consulted before the
    /// store so the round reads its own writes.
    decided: HashMap<String, ComponentId>,
    /// Decisions not yet flushed to the store.
    queued: Vec<(String, ComponentId)>,
    /// Placement keys of failed components, deleted ahead of the queued
    /// writes (fenced) in the same flush.
    invalidations: Vec<String>,
    /// Host announcements of failed components — (`hosts/<type>`, field) —
    /// withdrawn alongside the invalidations.
    withdrawn_hosts: Vec<(String, String)>,
    /// Live hosts per actor type, resolved once per round.
    hosts: HashMap<String, Vec<ComponentId>>,
}

impl PlacementRewriter {
    /// The placement recorded for `key`: this round's own decision if any,
    /// else the store's.
    fn placement(&self, ctx: &RecoveryContext, key: &str) -> Option<ComponentId> {
        if let Some(component) = self.decided.get(key) {
            return Some(*component);
        }
        ctx.store
            .admin_get(key)
            .as_ref()
            .and_then(component_from_value)
    }

    /// Records (and queues) a placement decision.
    fn record(&mut self, key: String, component: ComponentId) {
        self.decided.insert(key.clone(), component);
        self.queued.push((key, component));
    }

    /// Queues a dead placement for deletion in the next flush, ahead of
    /// every queued write.
    fn queue_invalidation(&mut self, key: String) {
        self.invalidations.push(key);
    }

    /// Queues the withdrawal of `component`'s announcement of `actor_type`
    /// for the next flush, beside the invalidations.
    fn withdraw_host(&mut self, actor_type: &str, component: ComponentId) {
        self.withdrawn_hosts
            .push((hosts_key(actor_type), host_field(component)));
    }

    /// The live components hosting `actor_type`, resolved once per round.
    fn hosts(
        &mut self,
        ctx: &RecoveryContext,
        actor_type: &str,
        live: &[ComponentId],
    ) -> Vec<ComponentId> {
        self.hosts
            .entry(actor_type.to_owned())
            .or_insert_with(|| live_hosts(ctx, actor_type, live))
            .clone()
    }

    /// Flushes the queued invalidations and placement writes as ONE admin
    /// pipeline: the stale-key deletes apply first, then a cross-key fence,
    /// then the writes. The fence matters: a re-homed actor's `set_nx` must
    /// never be reordered ahead of the delete of the same actor's dead
    /// placement — nor, for *different* keys on *different* shards, ahead of
    /// any delete it was submitted after — or the delete would wipe the
    /// fresh placement and strand the re-homed records. One round trip and
    /// one lock pass per shard per segment, instead of the two flushes this
    /// used to take.
    ///
    /// Written with `set_nx`, not `set`: every queued decision was made for
    /// a key that had no (live) placement, but a live caller can race the
    /// paced re-home loop and win the placement CAS for the same actor in
    /// the meantime. An unconditional set here would clobber that winner and
    /// let the same request id execute under two different placements. With
    /// `set_nx` the racer's placement stands; the re-homed record appended
    /// to the leader's choice is then *forwarded* to the true owner by the
    /// admission-time placement guard — the rebalance-safe path that already
    /// handles records landing at non-owners.
    fn flush_writes(&mut self, ctx: &RecoveryContext) {
        if self.queued.is_empty()
            && self.invalidations.is_empty()
            && self.withdrawn_hosts.is_empty()
        {
            return;
        }
        let invalidations: Vec<String> = self.invalidations.drain(..).collect();
        let withdrawn_hosts: Vec<(String, String)> = self.withdrawn_hosts.drain(..).collect();
        let queued: Vec<(String, ComponentId)> = self.queued.drain(..).collect();
        // Replayed through injected gray failures on the admin path: the
        // batch is deletes plus `set_nx`, so a replay after an ack-lost
        // flush re-deletes (idempotent) and leaves the applied placements
        // standing. Admin pipelines are unfenced, so any error left after
        // the bounded replay is an injected storm; proceeding without the
        // rewrite is safe — admission-time placement guards forward records
        // that land at non-owners.
        let _ = retry_transient(TRANSIENT_ATTEMPTS, || {
            let mut pipe = ctx.store.admin_pipeline();
            for key in &invalidations {
                pipe.del(key);
            }
            for (key, field) in &withdrawn_hosts {
                pipe.hdel(key, field);
            }
            pipe.fence();
            for (key, component) in &queued {
                pipe.set_nx(key, component_to_value(*component));
            }
            pipe.flush()
        });
    }
}

/// Re-homed requests buffered per destination partition, so the actual
/// appends go through [`kar_queue::Broker::admin_append_batch`]: one
/// partition-lock acquisition and one consumer wake-up per partition,
/// instead of per record. Relative order of the decisions is preserved
/// within each partition (which is the only order that matters: one actor's
/// requests always target one partition).
#[derive(Default)]
struct RehomeBatches {
    batches: HashMap<usize, Vec<Envelope>>,
    count: usize,
}

impl RehomeBatches {
    fn push(&mut self, partition: usize, request: RequestMessage) {
        self.batches
            .entry(partition)
            .or_default()
            .push(Envelope::Request(request));
        self.count += 1;
    }

    fn push_response(&mut self, partition: usize, response: ResponseMessage) {
        self.batches
            .entry(partition)
            .or_default()
            .push(Envelope::Response(response));
        self.count += 1;
    }

    fn flush(self, ctx: &RecoveryContext) -> usize {
        let mut batches: Vec<(usize, Vec<Envelope>)> = self.batches.into_iter().collect();
        batches.sort_by_key(|(partition, _)| *partition);
        for (partition, envelopes) in batches {
            // Replayed through injected gray failures: an ack-lost replay
            // appends duplicate copies, which admission-time request-id
            // dedup absorbs.
            let _ = retry_transient(TRANSIENT_ATTEMPTS, || {
                ctx.broker
                    .admin_append_batch(&ctx.topic, partition, envelopes.clone())
            });
        }
        self.count
    }
}

/// The reconciliation algorithm of §4.3. Returns the number of re-homed
/// requests and the partitions re-homed onto survivors.
fn reconcile(
    ctx: &RecoveryContext,
    orphans: &mut Vec<RequestMessage>,
    removed: &[ComponentId],
    live: &[ComponentId],
) -> (usize, Vec<usize>) {
    // 1. Forcefully disconnect failed components from the store (the broker
    //    already fenced them when their failure was detected).
    for component in removed {
        ctx.store.fence(*component);
    }
    // Fixed leader overhead (election, cataloguing setup).
    sleep_scaled(ctx, ctx.config.reconciliation_base);

    // 2. Catalog unexpired messages across every partition of every
    //    component's set (home and adopted). A request id counts as "pending
    //    at a live component" only if that component has not consumed (or is
    //    still holding) the copy: a copy it already processed was either
    //    completed (a response exists) or superseded by a tail call whose
    //    latest hop lives elsewhere — possibly in a failed queue that must
    //    be re-homed. The catalog holds `Arc`-shared envelopes straight out
    //    of the partition logs (zero-copy): only the requests actually
    //    re-homed are ever materialized.
    let members = ctx.membership.snapshot();
    let (topology, components) = (&members.topology, &members.components);
    let mut responses: HashSet<RequestId> = HashSet::new();
    let mut live_requests: HashSet<RequestId> = HashSet::new();
    let mut all_requests: Vec<Arc<Envelope>> = Vec::new();
    let mut dead_queues: Vec<(ComponentId, Vec<Arc<Envelope>>)> = Vec::new();
    let mut dead_responses: Vec<ResponseMessage> = Vec::new();
    // Iterate the topology in component order: reconciliation decisions
    // (re-home targets, adoption spread) must not depend on HashMap
    // iteration order or deterministic-simulation replays diverge.
    let mut topology_sorted: Vec<(&ComponentId, &PartitionSet)> = topology.iter().collect();
    topology_sorted.sort_by_key(|(component, _)| **component);
    for (component, set) in topology_sorted {
        let mut requests_here: Vec<Arc<Envelope>> = Vec::new();
        let live_core = if live.contains(component) {
            components.get(component)
        } else {
            None
        };
        for partition in set.all() {
            let records = ctx.broker.read_partition(&ctx.topic, partition);
            // Read after the records: one consumed since counts as queued.
            let consumed = live_core.map(|core| core.lanes.consumed_offset(partition));
            for record in records {
                match record.payload.as_ref() {
                    Envelope::Response(response) => {
                        responses.insert(response.id);
                        if removed.contains(component) {
                            dead_responses.push(response.clone());
                        }
                    }
                    Envelope::Request(request) => {
                        if let (Some(core), Some(consumed)) = (live_core, consumed) {
                            let still_queued = record.offset >= consumed;
                            if still_queued || core.locally_pending(request.id) {
                                live_requests.insert(request.id);
                            }
                        }
                        requests_here.push(record.payload.clone());
                        all_requests.push(record.payload);
                    }
                }
            }
        }
        if removed.contains(component) {
            dead_queues.push((*component, requests_here));
        }
    }

    // 3. Pending requests of failed components: keep the last occurrence of
    //    each id (a tail call supersedes the request it completed), drop
    //    requests with a matching response or already present in a live
    //    queue (already re-homed by a previous, interrupted reconciliation).
    //    Surviving requests are materialized here, once.
    let mut pending: Vec<RequestMessage> = Vec::new();
    for (_, requests) in &dead_queues {
        let mut last_index: HashMap<RequestId, usize> = HashMap::new();
        for (index, envelope) in requests.iter().enumerate() {
            last_index.insert(envelope.id(), index);
        }
        for (index, envelope) in requests.iter().enumerate() {
            if last_index[&envelope.id()] != index {
                continue;
            }
            if responses.contains(&envelope.id()) || live_requests.contains(&envelope.id()) {
                continue;
            }
            if let Some(request) = envelope.as_request() {
                pending.push(request.clone());
            }
        }
    }

    // 3b. A scheduled retry copy is re-appended to the *callee's own*
    //    partition, which may belong to a different (also dead) component
    //    than the copy that failed. When copies of one id span dead queues,
    //    keep only the highest attempt count: the schedule resumes where it
    //    left off instead of resetting to an earlier attempt. Copies with
    //    equal counts (e.g. tail-call hops, never schedule copies) keep the
    //    existing per-queue last-occurrence semantics untouched.
    let mut best_attempt: HashMap<RequestId, u32> = HashMap::new();
    for request in &pending {
        let attempt = request.retry.as_ref().map_or(0, |retry| retry.attempt);
        let entry = best_attempt.entry(request.id).or_insert(attempt);
        *entry = (*entry).max(attempt);
    }
    let pending: Vec<RequestMessage> = pending
        .into_iter()
        .filter(|request| {
            request.retry.as_ref().map_or(0, |retry| retry.attempt) == best_attempt[&request.id]
        })
        .collect();
    let pending = reorder_tail_calls_first(pending);

    // 4. Catalogue the placements of failed components for invalidation (one
    //    admin read flush) and their host announcements for withdrawal, then
    //    queue the deletes on the rewriter. The deletes themselves ride the SAME flush
    //    as step 5's placement writes (fenced ahead of them), so the whole
    //    placement repair is one interleaved batch instead of two. Safe to
    //    defer: every placement read below (re-home decisions, response
    //    routing, host lookups) filters against the frozen live set, never
    //    trusting a stale record; and records a live racer appends to a
    //    still-advertised dead queue meanwhile are caught by the second
    //    sweep in step 6.
    let dead: HashSet<ComponentId> = removed.iter().copied().collect();
    let mut rewrites = PlacementRewriter::default();
    let placement_keys = ctx.store.admin_keys_with_prefix("placement/");
    // A read-only batch: replay freely; if the admin path stays down past
    // the bounded retries, skip the invalidation sweep this round (step 6's
    // second sweep and the admission-time guards cover stale records).
    let values = retry_transient(TRANSIENT_ATTEMPTS, || {
        let mut reads = ctx.store.admin_pipeline();
        for key in &placement_keys {
            reads.get(key);
        }
        reads.flush()
    })
    .unwrap_or_default();
    for (key, result) in placement_keys.iter().zip(values) {
        if let Some(value) = result.into_value() {
            if component_from_value(&value).is_some_and(|c| dead.contains(&c)) {
                rewrites.queue_invalidation(key.clone());
            }
        }
    }
    // A dead component's announcements: one `hosts/<type>` field per type
    // it hosted, no scan — the mesh keeps the core of every component it
    // ever added. Sorted, so a replay queues the same batch.
    let mut removed_sorted = removed.to_vec();
    removed_sorted.sort();
    for component in removed_sorted {
        let Some(core) = components.get(&component) else {
            continue;
        };
        let mut types: Vec<&String> = core.hosted.keys().collect();
        types.sort();
        for actor_type in types {
            rewrites.withdraw_host(actor_type, component);
        }
    }

    // 5. Re-home pending requests, annotating each with its pending callee so
    //    the retry happens after the callee settles (happen-before). The
    //    placement decisions are made one by one (and paced like the paper's
    //    leader) with read-your-writes against a local rewrite buffer; the
    //    invalidations and placement writes flush through one fenced admin
    //    pipeline and the queue appends through per-partition admin batches —
    //    placements always durable before the records that rely on them
    //    become consumable.
    let mut rehomed_ids: HashSet<RequestId> = HashSet::new();
    let mut batches = RehomeBatches::default();
    for mut request in pending {
        let pending_callee = all_requests
            .iter()
            .filter_map(|envelope| envelope.as_request())
            .find(|r| r.caller == Some(request.id) && !responses.contains(&r.id))
            .map(|r| r.id);
        request.pending_callee = pending_callee;
        rehomed_ids.insert(request.id);
        if let Some((partition, request)) =
            rehome_decision(ctx, orphans, request, live, &mut rewrites)
        {
            batches.push(partition, request);
        }
        sleep_scaled(ctx, ctx.config.reconciliation_per_message);
    }
    rewrites.flush_writes(ctx);
    let mut rehomed = batches.flush(ctx);

    // 6. Second sweep: requests appended to the failed queues *while* the
    //    leader was cataloguing (senders may race placement invalidation)
    //    would otherwise be flushed and lost; re-home them too.
    let mut batches = RehomeBatches::default();
    for component in removed {
        let Some(set) = topology.get(component) else {
            continue;
        };
        for partition in set.all() {
            for record in ctx.broker.read_partition(&ctx.topic, partition) {
                if let Some(request) = record.payload.as_request() {
                    if responses.contains(&request.id)
                        || live_requests.contains(&request.id)
                        || rehomed_ids.contains(&request.id)
                    {
                        continue;
                    }
                    rehomed_ids.insert(request.id);
                    if let Some((partition, request)) =
                        rehome_decision(ctx, orphans, request.clone(), live, &mut rewrites)
                    {
                        batches.push(partition, request);
                    }
                }
            }
        }
    }
    rewrites.flush_writes(ctx);
    rehomed += batches.flush(ctx);

    // 6½. Responses stranded in the failed queues. The flush below would
    //    destroy them — yet the catalog above counted their ids as
    //    *answered*, so the callers they complete are re-homed **without** a
    //    pending-callee annotation (or, worse, a caller re-homed by a later
    //    recovery could be deferred on such an id and wait forever for a
    //    response no survivor holds — the callee already completed and will
    //    never send it again). Re-append each one to the caller's current
    //    placement, exactly like the request sweeps above; a copy that was
    //    in fact already consumed before the failure is absorbed by the
    //    receiver's seen-response dedupe.
    let mut batches = RehomeBatches::default();
    let mut rehomed_responses: HashSet<RequestId> = HashSet::new();
    // Test-only regression hook: dropping this step re-opens the
    // stranded-response liveness bug, giving the simulation explorer a
    // known-bad tree to prove its oracle against.
    let dead_responses = if ctx.config.debug_skip_stranded_rehoming {
        Vec::new()
    } else {
        dead_responses
    };
    for response in dead_responses.into_iter().rev() {
        if !rehomed_responses.insert(response.id) {
            continue;
        }
        if let Some(partition) = response_rehome_partition(ctx, &response, live, &mut rewrites) {
            batches.push_response(partition, response);
        }
    }
    batches.flush(ctx);

    // 7. Flush the failed queues for later reuse.
    for component in removed {
        if let Some(set) = topology.get(component) {
            for partition in set.all() {
                ctx.broker.truncate_partition(&ctx.topic, partition);
            }
        }
    }

    // 8. Re-home the failed components' partition *ranges* onto survivors.
    //    Each partition is first fenced — bumping its ownership epoch so a
    //    slow consumer opened under the dead assignment fails its next poll
    //    instead of double-committing — and then adopted (round-robin) by a
    //    surviving component that hosts actor types. Adopted partitions are
    //    drained, not hash-routed to: records appended by racing senders
    //    after the flush are consumed by the adopter, whose admission-time
    //    placement check executes or forwards them. Routing stability for
    //    live actors is untouched because home sets never change.
    let rehomed_partitions = rehome_partition_ranges(ctx, live, components, topology);

    (rehomed, rehomed_partitions)
}

/// Step 8 of reconciliation: distributes the dead components' partitions
/// over surviving hosting components, fencing each partition against its old
/// consumer before the adopter opens its own. Returns the re-homed
/// partitions (empty when no survivor hosts anything — the dead topology
/// entries are then kept, and because this function sweeps *every* topology
/// entry whose component is no longer in the shared live set — not just this
/// rebalance's `removed` — the next recovery that does have an adopter picks
/// the leftover ranges up).
fn rehome_partition_ranges(
    ctx: &RecoveryContext,
    live: &[ComponentId],
    components: &BTreeMap<ComponentId, Arc<ComponentCore>>,
    topology: &HashMap<ComponentId, PartitionSet>,
) -> Vec<usize> {
    let adopters: Vec<&Arc<ComponentCore>> = live
        .iter()
        .filter_map(|component| components.get(component))
        .filter(|core| core.hosts_any())
        .collect();
    if adopters.is_empty() {
        return Vec::new();
    }
    // One publish for the whole re-homing: the dead entries leave the
    // topology and the adopters' sets grow in the same generation. The
    // broker's assignment table and group view are updated inside it (as
    // retirement does), so a retirement racing this adoption can never
    // overwrite the broker tables with a set missing the fresh range.
    ctx.membership.publish(|members| {
        // Every topology entry whose component is dead: the components
        // removed by this rebalance, plus any entry left over from an
        // earlier recovery that had no adopter. The *published* live set is
        // the authority here (not this rebalance's `live` list): it already
        // includes components added after this rebalance window started, so
        // a freshly joined component can never be mistaken for dead and have
        // its partitions stolen.
        let mut stale: Vec<ComponentId> = topology
            .keys()
            .filter(|component| !members.live.contains(component))
            .copied()
            .collect();
        stale.sort();
        let mut orphaned: Vec<usize> = Vec::new();
        for component in stale {
            if let Some(set) = topology.get(&component) {
                orphaned.extend(set.all());
            }
            members.topology.remove(&component);
            ctx.broker.unassign_partitions(&ctx.topic, component);
        }
        // Weighted adopter choice: pick the survivor currently carrying the
        // fewest adopted partitions (current topology counts, plus what this
        // round has assigned so far; ties break by component id, so the
        // spread is deterministic). Chained failures therefore spread their
        // ranges instead of piling onto whichever survivor a round-robin
        // started at — an adopter that already drains two dead ranges stops
        // being the first pick for a third.
        let mut load: HashMap<ComponentId, usize> = adopters
            .iter()
            .map(|core| {
                let adopted = members
                    .topology
                    .get(&core.id())
                    .map_or(0, |set| set.adopted().len());
                (core.id(), adopted)
            })
            .collect();
        let mut adoption: BTreeMap<ComponentId, Vec<usize>> = BTreeMap::new();
        for partition in &orphaned {
            // Cut off the dead assignment's consumers first: the adopter's
            // consumer (opened below) captures the post-fence epoch.
            let _ = ctx.broker.fence_partition(&ctx.topic, *partition);
            let adopter = adopters
                .iter()
                .min_by_key(|core| (load[&core.id()], core.id()))
                .expect("adopters is non-empty");
            *load.entry(adopter.id()).or_default() += 1;
            adoption.entry(adopter.id()).or_default().push(*partition);
        }
        for (component, partitions) in adoption {
            // Charge the adoption to the adopter's set even if it is being
            // killed concurrently (its core silently refuses to adopt): its
            // own recovery then re-homes the range instead of leaking it.
            let Some(set) = members.topology.get_mut(&component) else {
                continue;
            };
            set.adopt(partitions.iter().copied());
            let merged = set.clone();
            let _ = ctx
                .broker
                .assign_partitions(&ctx.topic, component, merged.clone());
            // Keep the consumer group's view of the member in agreement
            // with the assignment table.
            ctx.broker
                .update_member_partitions(&ctx.group, component, merged);
            if let Some(core) = components.get(&component) {
                core.lanes.adopt(core, partitions);
            }
        }
        orphaned.sort_unstable();
        orphaned
    })
}

/// Chooses a replacement component for one pending request and records the
/// actor's placement in the round's rewrite buffer (flushed as one admin
/// pipeline by the caller). Returns the destination partition and the
/// request to append there (the caller batches the actual appends per
/// partition), or `None` (parking the request in the orphan list) when no
/// live component hosts the actor type.
fn rehome_decision(
    ctx: &RecoveryContext,
    orphans: &mut Vec<RequestMessage>,
    mut request: RequestMessage,
    live: &[ComponentId],
    rewrites: &mut PlacementRewriter,
) -> Option<(usize, RequestMessage)> {
    // Every re-homed (or orphan-parked) request is a copy of a record that
    // exists elsewhere, at least until the failed queue is flushed.
    request.single_copy = false;
    let key = placement_key(&request.target);
    // If the actor is already placed on a live component (for example because
    // a previous interrupted reconciliation — or an earlier decision of this
    // round — re-placed it), respect that placement instead of moving it
    // again.
    let existing = rewrites.placement(ctx, &key).filter(|c| live.contains(c));
    let target_component = match existing {
        Some(component) => component,
        None => {
            let hosts = rewrites.hosts(ctx, request.target.actor_type(), live);
            if hosts.is_empty() {
                orphans.push(request);
                return None;
            }
            let chosen = hosts[spread(&request.target.qualified_name(), hosts.len())];
            rewrites.record(key, chosen);
            chosen
        }
    };
    // Route onto the target's home set by actor key, exactly like a live
    // sender would.
    let partition = ctx
        .membership
        .read(|members| members.partition_for(target_component, RouteKey::Actor(&request.target)));
    let Some(partition) = partition else {
        orphans.push(request);
        return None;
    };
    Some((partition, request))
}

/// Destination partition for a response re-homed out of a failed queue: the
/// caller actor's current placement (including decisions made earlier in
/// this same round — the caller's own pending request is typically re-homed
/// moments before its stranded response), routed by the same response key a
/// live sender would use; a response to an external client goes back to the
/// client's own queue. `None` (caller unplaced or also dead) means nobody
/// can be waiting on the response, so the copy is safe to drop with the
/// queue flush.
fn response_rehome_partition(
    ctx: &RecoveryContext,
    response: &ResponseMessage,
    live: &[ComponentId],
    rewrites: &mut PlacementRewriter,
) -> Option<usize> {
    if let Some(caller_actor) = &response.caller_actor {
        let key = placement_key(caller_actor);
        let owner = rewrites.placement(ctx, &key).filter(|c| live.contains(c))?;
        return ctx
            .membership
            .read(|members| members.partition_for(owner, RouteKey::Actor(caller_actor)));
    }
    let reply_to = response.reply_to.filter(|c| live.contains(c))?;
    ctx.membership
        .read(|members| members.partition_for(reply_to, RouteKey::Request(response.id)))
}

/// The live components announcing support for `actor_type`, sorted.
fn live_hosts(ctx: &RecoveryContext, actor_type: &str, live: &[ComponentId]) -> Vec<ComponentId> {
    let hosts = ctx.store.admin_hgetall(&hosts_key(actor_type));
    live_announced(&hosts, |c| live.contains(&c))
}

/// Moves tail-call continuations ahead of other requests targeting the same
/// actor, so a chain interrupted mid-tail-call resumes before other queued
/// invocations of that actor (the lock-retention rule of §4.1), while
/// preserving the relative order of everything else.
fn reorder_tail_calls_first(pending: Vec<RequestMessage>) -> Vec<RequestMessage> {
    let mut actor_order: Vec<String> = Vec::new();
    let mut buckets: HashMap<String, (Vec<RequestMessage>, Vec<RequestMessage>)> = HashMap::new();
    for request in pending {
        let actor = request.target.qualified_name();
        if !buckets.contains_key(&actor) {
            actor_order.push(actor.clone());
        }
        let bucket = buckets.entry(actor).or_default();
        if request.kind == kar_types::CallKind::TailCall {
            bucket.0.push(request);
        } else {
            bucket.1.push(request);
        }
    }
    let mut out = Vec::new();
    for actor in actor_order {
        let (tails, others) = buckets.remove(&actor).unwrap_or_default();
        out.extend(tails);
        out.extend(others);
    }
    out
}

fn sleep_scaled(ctx: &RecoveryContext, paper_duration: Duration) {
    let compressed = ctx.config.time_scale.compress(paper_duration);
    if !compressed.is_zero() {
        kar_types::pace_sleep(compressed);
    }
}

fn spread(key: &str, len: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use kar_types::{ActorRef, CallKind};

    fn test_ctx() -> RecoveryContext {
        let config = MeshConfig::for_tests();
        let broker: Broker<Envelope> = Broker::new(config.broker_config());
        RecoveryContext {
            config,
            topic: "kar".to_owned(),
            group: "kar".to_owned(),
            broker,
            store: Store::new(),
            membership: Arc::default(),
            log: Arc::new(RecoveryLog::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn placement_rewrites_do_not_clobber_a_concurrent_cas_winner() {
        // The leader buffers a decision during the paced re-home loop; a
        // live caller wins the placement CAS for the same actor before the
        // flush. The flush must keep the racer's placement (the re-homed
        // record is forwarded by the admission-time guard), not overwrite
        // it and split the actor across two owners.
        let ctx = test_ctx();
        let key = "placement/Order/contended".to_owned();
        let mut rewrites = PlacementRewriter::default();
        rewrites.record(key.clone(), ComponentId::from_raw(2));
        // Read-your-writes: within the round, the buffered decision wins.
        assert_eq!(
            rewrites.placement(&ctx, &key),
            Some(ComponentId::from_raw(2))
        );
        // A resolver's CAS lands before the flush.
        ctx.store
            .admin_set(&key, component_to_value(ComponentId::from_raw(1)));
        rewrites.flush_writes(&ctx);
        assert_eq!(
            ctx.store
                .admin_get(&key)
                .as_ref()
                .and_then(component_from_value),
            Some(ComponentId::from_raw(1)),
            "flush must not clobber the CAS winner"
        );
        // With no racer, the buffered decision becomes durable.
        let key2 = "placement/Order/uncontended".to_owned();
        let mut rewrites = PlacementRewriter::default();
        rewrites.record(key2.clone(), ComponentId::from_raw(3));
        rewrites.flush_writes(&ctx);
        assert_eq!(
            ctx.store
                .admin_get(&key2)
                .as_ref()
                .and_then(component_from_value),
            Some(ComponentId::from_raw(3))
        );
    }

    fn request(id: u64, target: &str, kind: CallKind) -> RequestMessage {
        RequestMessage {
            id: RequestId::from_raw(id),
            caller: None,
            target: ActorRef::new(target, "x"),
            method: "m".into(),
            args: vec![],
            kind,
            lineage: vec![],
            pending_callee: None,
            caller_actor: None,
            reply_to: None,
            retry: None,
            single_copy: false,
        }
    }

    #[test]
    fn outage_record_phase_arithmetic() {
        let record = OutageRecord {
            generation: 3,
            failed_components: vec![ComponentId::from_raw(1)],
            killed_at: Some(Duration::from_secs(100)),
            detected_at: Duration::from_secs(109),
            consensus_at: Duration::from_secs(111),
            reconciled_at: Duration::from_secs(122),
            rehomed_requests: 4,
            rehomed_partitions: vec![0, 1],
        };
        assert_eq!(record.detection(), Some(Duration::from_secs(9)));
        assert_eq!(record.consensus(), Duration::from_secs(2));
        assert_eq!(record.reconciliation(), Duration::from_secs(11));
        assert_eq!(record.total(), Some(Duration::from_secs(22)));

        let unknown_kill = OutageRecord {
            killed_at: None,
            ..record
        };
        assert_eq!(unknown_kill.detection(), None);
        assert_eq!(unknown_kill.total(), None);
    }

    #[test]
    fn recovery_log_snapshot_and_last() {
        let log = RecoveryLog::new();
        assert!(log.is_empty());
        log.push(OutageRecord {
            generation: 1,
            failed_components: vec![],
            killed_at: None,
            detected_at: Duration::ZERO,
            consensus_at: Duration::ZERO,
            reconciled_at: Duration::ZERO,
            rehomed_requests: 0,
            rehomed_partitions: vec![],
        });
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot().len(), 1);
        assert_eq!(log.last().unwrap().generation, 1);
    }

    #[test]
    fn tail_calls_are_moved_ahead_of_other_requests_per_actor() {
        let pending = vec![
            request(1, "Order", CallKind::Call),
            request(2, "Order", CallKind::TailCall),
            request(3, "Voyage", CallKind::Call),
            request(4, "Order", CallKind::Call),
        ];
        let out = reorder_tail_calls_first(pending);
        let ids: Vec<u64> = out.iter().map(|r| r.id.as_u64()).collect();
        // Order's tail call (2) comes before Order's other requests (1, 4);
        // the Voyage request keeps its own position class.
        assert_eq!(ids, vec![2, 1, 4, 3]);
    }

    #[test]
    fn spread_is_stable_and_in_range() {
        for len in 1..5 {
            let a = spread("Order/o-1", len);
            assert!(a < len);
            assert_eq!(a, spread("Order/o-1", len));
        }
    }
}
