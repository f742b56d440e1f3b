//! The broker: topics, partitions, producers/consumers, fencing and the
//! group coordinator.
//!
//! # Lock granularity
//!
//! The message plane intentionally has **no broker-wide lock on the
//! send/poll hot path**, mirroring the per-partition logs of the paper's
//! Kafka deployment (§4.1, §6):
//!
//! * the topic index is split into [`TOPIC_INDEX_SHARDS`] shards, each a
//!   `RwLock<HashMap>` that hot paths only ever *read*-lock (topic creation
//!   and growth take the coarse write lock, which is allowed to be slow);
//! * each partition is an [`Arc<Partition>`] carrying its own log mutex and
//!   its own append signal, so a `send`/`poll_wait` pair touches exactly one
//!   partition-level lock, and appends to distinct partitions proceed fully
//!   in parallel;
//! * fencing epochs are sharded by component id, so the per-append epoch
//!   check never funnels every producer through one mutex;
//! * [`Producer::send_batch`] and [`Broker::admin_append_batch`] append N
//!   records under a single lock acquisition and pay a single durable-ack
//!   latency, which is how reconciliation re-homing and high-rate producers
//!   amortize lock traffic;
//! * [`Producer::send_round`] is the one batch append path: a produce round
//!   carrying one batch per partition touched pays a single durable ack for
//!   all of them (`send_batch` is the one-partition round). A round holds
//!   the log locks of every partition it touches, always acquired in
//!   ascending partition index — the only place two partition locks are
//!   ever held together, so rounds cannot deadlock each other.
//!
//! # Modelled latency is a completion
//!
//! The broker never sleeps and owns no timer: it is passive. An append is
//! **applied when it is submitted** and returns a [`Completion`] naming the
//! instant its durable acknowledgement fires — `max(now, partition
//! busy-until) + BrokerConfig::append_latency`, so a partition acknowledges
//! strictly in append order (as a real replicated log does), back-to-back
//! appends one latency apart, while distinct partitions overlap. A
//! multi-partition round is one acknowledgement: it fires one latency after
//! the *latest* busy-until among the partitions it touches and keeps all of
//! them busy until then. A record becomes **readable** at its
//! acknowledgement plus `BrokerConfig::deliver_latency`; visibility is
//! evaluated lazily whenever a consumer reads, and [`Consumer::ready`] /
//! [`Consumer::next_visible_at`] let a sweeper learn when to come back
//! without polling. Fault gates and fencing are consulted at submit, before
//! anything is appended; an injected latency spike delays the submit, an
//! injected ack loss is learnt at the acknowledgement instant like any other
//! outcome. The blocking calls ([`Producer::send`], [`Producer::send_batch`],
//! [`Producer::send_round`], [`Consumer::poll_wait`]) are the same code
//! followed by a wait for that instant — what an edge thread wants; a
//! reactor parks on the instant instead and overlaps unrelated work.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use parking_lot::{Mutex, RwLock};

use kar_types::{
    Completion, ComponentId, Epoch, FaultDecision, FaultGate, FaultPlane, FaultSite, KarError,
    KarResult, WaitSignal, WaitSignalGroup,
};

use crate::config::BrokerConfig;
use crate::group::{Group, GroupEvent, GroupView, MemberInfo, MemberState};
use crate::log::PartitionLog;
use crate::partition_set::PartitionSet;
use crate::record::Record;

/// Number of shards of the topic index. Hot paths read-lock exactly one
/// shard; topic creation/growth write-locks one shard.
const TOPIC_INDEX_SHARDS: usize = 16;

/// Number of shards of the fencing-epoch table.
const EPOCH_SHARDS: usize = 16;

/// What a produce round's acknowledgement carries: the `(partition, offset
/// range)` of every group, in the order given.
pub type RoundRanges = Vec<(usize, Range<u64>)>;

/// [`Partition::next_visible`] when no record is waiting to become visible.
const NOTHING_PENDING: u64 = u64::MAX;

fn shard_of<T: Hash + ?Sized>(key: &T, shards: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % shards
}

/// A Kafka-like broker holding every topic, partition and consumer group of
/// an application.
///
/// Cloning a `Broker` returns another handle to the same underlying state.
/// By default the broker never fails: the paper's fault model assumes the
/// message queue survives the (non catastrophic) failures under study
/// (§3.3). With [`BrokerConfig::faults`] set, fenced and admin appends are
/// additionally subject to the plan's gray failures — transient errors,
/// latency spikes, partition brownouts, and ack-lost appends where the
/// record **is** durably appended (and consumers woken) but the producer is
/// told the append failed.
#[derive(Debug)]
pub struct Broker<M> {
    inner: Arc<BrokerInner<M>>,
}

impl<M> Clone for Broker<M> {
    fn clone(&self) -> Self {
        Broker {
            inner: self.inner.clone(),
        }
    }
}

/// One partition: its append-only log behind its own mutex, and its own
/// append signal. Folding the signal into the partition (instead of a
/// broker-wide signal map) means a `send`/`poll_wait` pair touches exactly
/// one partition-level lock.
#[derive(Debug)]
struct Partition<M> {
    log: Mutex<PartitionLog<M>>,
    signal: WaitSignal,
    /// Mirror of the log's *visible* end offset, updated under the log lock
    /// whenever it moves. Lets [`Consumer::ready`] answer "is there anything
    /// to read?" with one atomic load — no log lock — so a reactor can
    /// cheaply sweep hundreds of partitions per wakeup.
    end: AtomicU64,
    /// Mirror of the instant (broker clock, nanoseconds) the oldest
    /// not-yet-visible record becomes readable; [`NOTHING_PENDING`] when
    /// every record is. With no modelled latency it never holds anything
    /// else, and no reader ever looks at the clock.
    next_visible: AtomicU64,
    /// Mirror of the log's start offset (the low watermark), updated under
    /// the log lock whenever expiry, a trim or a truncation drops records.
    /// Lets [`Broker::log_start`] answer with one atomic load.
    start: AtomicU64,
    /// Ownership fencing epoch of this partition. Bumped by
    /// [`Broker::fence_partition`] when the partition is reassigned to a new
    /// consumer (recovery re-homing a failed component's partition range), so
    /// a slow consumer opened under the previous assignment fails its next
    /// poll instead of double-committing records behind the new owner's back.
    owner_epoch: AtomicU64,
    /// Shared wait groups watching this partition: a consumer thread that
    /// owns several partitions joins one [`WaitSignalGroup`] through each of
    /// its consumers, and every append (or fence) notifies the group — so a
    /// multi-partition consumer wakes immediately on any member's append
    /// instead of rotating a park across its members. Usually empty or a
    /// single entry; appends read-lock it.
    watchers: RwLock<Vec<Arc<WaitSignalGroup>>>,
}

impl<M> Default for Partition<M> {
    fn default() -> Self {
        Partition {
            log: Mutex::new(PartitionLog::default()),
            signal: WaitSignal::new(),
            end: AtomicU64::new(0),
            next_visible: AtomicU64::new(NOTHING_PENDING),
            start: AtomicU64::new(0),
            owner_epoch: AtomicU64::new(0),
            watchers: RwLock::new(Vec::new()),
        }
    }
}

impl<M> Partition<M> {
    /// Runs `mutate` under the log lock and publishes the log's watermarks
    /// to their lock-free mirrors before releasing it. Whatever `mutate`
    /// returns — in particular records it dropped from the log — leaves the
    /// lock with the caller, so dropped records are freed outside it.
    fn with_log<R>(&self, mutate: impl FnOnce(&mut PartitionLog<M>) -> R) -> R {
        let mut log = self.log.lock();
        let result = mutate(&mut log);
        self.publish(&log);
        result
    }

    /// Publishes `log`'s watermarks to their lock-free mirrors. Called with
    /// the log lock held, after every mutation.
    fn publish(&self, log: &PartitionLog<M>) {
        self.end.store(log.visible_end(), Ordering::Release);
        self.next_visible.store(
            log.next_visible_at()
                .map_or(NOTHING_PENDING, |at| at.as_nanos() as u64),
            Ordering::Release,
        );
        self.start.store(log.start_offset(), Ordering::Release);
    }

    /// Signals an event on this partition: wakes consumers parked on the
    /// partition's own append signal and notifies every attached wait group.
    fn notify(&self) {
        self.signal.bump();
        for group in self.watchers.read().iter() {
            group.notify();
        }
    }
}

/// One topic: a growable list of partitions. Reads clone the `Arc` and drop
/// the lock immediately; only `ensure_partitions` takes the write lock.
#[derive(Debug)]
struct Topic<M> {
    partitions: RwLock<Vec<Arc<Partition<M>>>>,
}

impl<M> Topic<M> {
    fn with_partitions(count: usize) -> Self {
        Topic {
            partitions: RwLock::new((0..count).map(|_| Arc::new(Partition::default())).collect()),
        }
    }

    fn partition(&self, index: usize) -> Option<Arc<Partition<M>>> {
        self.partitions.read().get(index).cloned()
    }

    fn len(&self) -> usize {
        self.partitions.read().len()
    }
}

#[derive(Debug)]
struct BrokerInner<M> {
    config: BrokerConfig,
    origin: Duration,
    /// Sharded topic index: a topic name hashes to one shard, and hot paths
    /// only read-lock that shard to clone the topic's `Arc`.
    topic_shards: Vec<RwLock<HashMap<String, Arc<Topic<M>>>>>,
    /// Fencing epochs, sharded by component id so the per-append epoch check
    /// does not serialize unrelated producers.
    epoch_shards: Vec<RwLock<HashMap<ComponentId, Epoch>>>,
    /// Partition-assignment table, per topic: which [`PartitionSet`] each
    /// component consumes. Written on component creation and on recovery
    /// re-homing; read by administrative tooling and the group coordinator —
    /// never on the send/poll hot path.
    assignments: RwLock<HashMap<String, HashMap<ComponentId, PartitionSet>>>,
    groups: Mutex<HashMap<String, Group>>,
    shutdown: AtomicBool,
    /// Broker time of the previous [`Broker::tick`]: a tick that finds it
    /// more than two coordinator intervals old knows the process was not
    /// running in between, and must not read silence as failure.
    last_tick: Mutex<Option<Duration>>,
}

impl<M: Clone + Send + Sync + 'static> Default for Broker<M> {
    fn default() -> Self {
        Broker::new(BrokerConfig::default())
    }
}

impl<M: Clone + Send + Sync + 'static> Broker<M> {
    /// Creates a broker with the given configuration.
    pub fn new(config: BrokerConfig) -> Self {
        Broker {
            inner: Arc::new(BrokerInner {
                config,
                origin: kar_types::mono_now(),
                topic_shards: (0..TOPIC_INDEX_SHARDS)
                    .map(|_| RwLock::new(HashMap::new()))
                    .collect(),
                epoch_shards: (0..EPOCH_SHARDS)
                    .map(|_| RwLock::new(HashMap::new()))
                    .collect(),
                assignments: RwLock::new(HashMap::new()),
                groups: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                last_tick: Mutex::new(None),
            }),
        }
    }

    /// The broker configuration.
    pub fn config(&self) -> &BrokerConfig {
        &self.inner.config
    }

    /// Broker-clock time: elapsed since the broker was created. Reads the
    /// shared monotonic timeline, so a [`kar_types::VirtualClock`] override
    /// (deterministic simulation) drives session timeouts, rebalance
    /// stabilization and retention in virtual time.
    pub fn now(&self) -> Duration {
        kar_types::mono_now().saturating_sub(self.inner.origin)
    }

    // ------------------------------------------------------------------
    // Topic administration
    // ------------------------------------------------------------------

    fn topic_shard(&self, name: &str) -> &RwLock<HashMap<String, Arc<Topic<M>>>> {
        &self.inner.topic_shards[shard_of(name, TOPIC_INDEX_SHARDS)]
    }

    /// The topic's handle, if it exists (read-locks one index shard).
    fn lookup_topic(&self, name: &str) -> Option<Arc<Topic<M>>> {
        self.topic_shard(name).read().get(name).cloned()
    }

    /// The partition's handle (read-locks one index shard and the topic's
    /// partition list; both are dropped before the caller touches the log).
    fn lookup_partition(&self, topic: &str, partition: usize) -> KarResult<Arc<Partition<M>>> {
        let t = self
            .lookup_topic(topic)
            .ok_or_else(|| KarError::Queue(format!("unknown topic {topic}")))?;
        t.partition(partition)
            .ok_or_else(|| KarError::Queue(format!("topic {topic} has no partition {partition}")))
    }

    /// Creates a topic with `partitions` partitions.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Queue` if the topic already exists or
    /// `partitions` is zero.
    pub fn create_topic(&self, name: &str, partitions: usize) -> KarResult<()> {
        if partitions == 0 {
            return Err(KarError::Queue(format!(
                "topic {name} needs at least one partition"
            )));
        }
        let mut shard = self.topic_shard(name).write();
        if shard.contains_key(name) {
            return Err(KarError::Queue(format!("topic {name} already exists")));
        }
        shard.insert(
            name.to_owned(),
            Arc::new(Topic::with_partitions(partitions)),
        );
        Ok(())
    }

    /// Ensures `topic` exists and has at least `at_least` partitions,
    /// creating it or growing it as needed. Returns the partition count.
    pub fn ensure_partitions(&self, topic: &str, at_least: usize) -> KarResult<usize> {
        if at_least == 0 {
            return Err(KarError::Queue(
                "cannot size a topic to zero partitions".to_owned(),
            ));
        }
        let t = {
            let mut shard = self.topic_shard(topic).write();
            shard
                .entry(topic.to_owned())
                .or_insert_with(|| Arc::new(Topic::with_partitions(0)))
                .clone()
        };
        let mut partitions = t.partitions.write();
        while partitions.len() < at_least {
            partitions.push(Arc::new(Partition::default()));
        }
        Ok(partitions.len())
    }

    /// Number of partitions of `topic` (zero if it does not exist).
    pub fn partition_count(&self, topic: &str) -> usize {
        self.lookup_topic(topic).map_or(0, |t| t.len())
    }

    /// True if `topic` exists.
    pub fn topic_exists(&self, topic: &str) -> bool {
        self.topic_shard(topic).read().contains_key(topic)
    }

    // ------------------------------------------------------------------
    // Partition assignment
    // ------------------------------------------------------------------

    /// Records that `component` consumes `set` in `topic`, growing the topic
    /// so every member of the set exists.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Queue` if the set has no home partitions.
    pub fn assign_partitions(
        &self,
        topic: &str,
        component: ComponentId,
        set: PartitionSet,
    ) -> KarResult<()> {
        let highest = set.all().into_iter().max().ok_or_else(|| {
            KarError::Queue(format!(
                "cannot assign an empty partition set to {component}"
            ))
        })?;
        self.ensure_partitions(topic, highest + 1)?;
        self.inner
            .assignments
            .write()
            .entry(topic.to_owned())
            .or_default()
            .insert(component, set);
        Ok(())
    }

    /// The partition set assigned to `component` in `topic`, if any.
    pub fn assignment(&self, topic: &str, component: ComponentId) -> Option<PartitionSet> {
        self.inner
            .assignments
            .read()
            .get(topic)
            .and_then(|table| table.get(&component))
            .cloned()
    }

    /// The whole assignment table of `topic` (empty if none).
    pub fn topic_assignments(&self, topic: &str) -> HashMap<ComponentId, PartitionSet> {
        self.inner
            .assignments
            .read()
            .get(topic)
            .cloned()
            .unwrap_or_default()
    }

    /// Removes `component`'s assignment in `topic`, returning the set it held
    /// (recovery reassigns those partitions to survivors).
    pub fn unassign_partitions(&self, topic: &str, component: ComponentId) -> Option<PartitionSet> {
        self.inner
            .assignments
            .write()
            .get_mut(topic)
            .and_then(|table| table.remove(&component))
    }

    /// Bumps the ownership epoch of `topic[partition]`, fencing every
    /// consumer opened under the previous assignment: their next poll fails
    /// with `KarError::Fenced` instead of double-committing records after the
    /// partition was re-homed. Parked consumers are woken so they observe the
    /// fence promptly. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Queue` if the partition does not exist.
    pub fn fence_partition(&self, topic: &str, partition: usize) -> KarResult<Epoch> {
        let part = self.lookup_partition(topic, partition)?;
        let raw = part.owner_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        part.notify();
        Ok(Epoch::from_raw(raw))
    }

    /// The current ownership epoch of `topic[partition]` (zero if the
    /// partition does not exist).
    pub fn partition_epoch(&self, topic: &str, partition: usize) -> Epoch {
        self.lookup_partition(topic, partition)
            .map(|part| Epoch::from_raw(part.owner_epoch.load(Ordering::Acquire)))
            .unwrap_or(Epoch::ZERO)
    }

    // ------------------------------------------------------------------
    // Fencing
    // ------------------------------------------------------------------

    fn epoch_shard(&self, component: ComponentId) -> &RwLock<HashMap<ComponentId, Epoch>> {
        &self.inner.epoch_shards[shard_of(&component, EPOCH_SHARDS)]
    }

    /// Forcefully disconnects `component` from the broker: every producer or
    /// consumer it opened before this call fails from now on. Returns the new
    /// epoch the component must reconnect with.
    pub fn fence(&self, component: ComponentId) -> Epoch {
        let mut epochs = self.epoch_shard(component).write();
        let entry = epochs.entry(component).or_insert(Epoch::ZERO);
        *entry = entry.next();
        *entry
    }

    /// The epoch currently allowed for `component`.
    pub fn current_epoch(&self, component: ComponentId) -> Epoch {
        self.epoch_shard(component)
            .read()
            .get(&component)
            .copied()
            .unwrap_or(Epoch::ZERO)
    }

    fn check_epoch(&self, component: ComponentId, epoch: Epoch) -> KarResult<()> {
        let allowed = self.current_epoch(component);
        if epoch < allowed {
            Err(KarError::Fenced {
                component,
                detail: format!("queue client at {epoch} but component fenced to {allowed}"),
            })
        } else {
            Ok(())
        }
    }

    /// Consults the fault injector (if any) for one append at `site` on
    /// partition `lane`, before anything is appended. An ack-lost decision
    /// means: append the record(s) fully — wake consumers and all — then
    /// report failure anyway; a latency decision holds the submit back by
    /// that long (it reaches the partition later, so it is acknowledged
    /// later). With no injector this is one `Option` check.
    fn fault_gate(&self, site: FaultSite, lane: usize) -> KarResult<FaultGate> {
        let Some(injector) = &self.inner.config.faults else {
            return Ok(FaultGate::default());
        };
        FaultGate::of(injector.decide(site, FaultPlane::Broker, lane as u64))
            .ok_or_else(|| KarError::Queue(format!("injected transient fault at {}", site.name())))
    }

    /// The completion of an append submitted at `now` and acknowledged at
    /// `acked` (both broker clock): due then — or with the submit, when no
    /// latency applied — and carrying `value`, unless the gate lost the ack.
    fn completion<T>(
        &self,
        now: Duration,
        acked: Duration,
        gate: FaultGate,
        site: FaultSite,
        value: T,
    ) -> Completion<T> {
        Completion {
            due: (acked > now).then(|| self.inner.origin + acked),
            result: if gate.ack_lost {
                Err(Self::ack_lost_error(site))
            } else {
                Ok(value)
            },
        }
    }

    /// The error reported for an ack-lost append at `site`: the record(s)
    /// *are* in the log, but the producer cannot know that.
    fn ack_lost_error(site: FaultSite) -> KarError {
        KarError::Queue(format!(
            "injected ack loss at {} (record appended)",
            site.name()
        ))
    }

    // ------------------------------------------------------------------
    // Producers and consumers
    // ------------------------------------------------------------------

    /// Opens a producer on behalf of `component`, bound to the component's
    /// current fencing epoch.
    pub fn producer(&self, component: ComponentId) -> Producer<M> {
        Producer {
            broker: self.clone(),
            component,
            epoch: self.current_epoch(component),
        }
    }

    /// Opens a manually-assigned consumer reading `topic[partition]` from the
    /// current end of the partition onwards, on behalf of `component`.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Queue` if the partition does not exist.
    pub fn consumer(
        &self,
        component: ComponentId,
        topic: &str,
        partition: usize,
    ) -> KarResult<Consumer<M>> {
        self.consumer_from(component, topic, partition, 0)
    }

    /// Opens a consumer starting at `offset`.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Queue` if the partition does not exist.
    pub fn consumer_from(
        &self,
        component: ComponentId,
        topic: &str,
        partition: usize,
        offset: u64,
    ) -> KarResult<Consumer<M>> {
        let partition_ref = self.lookup_partition(topic, partition)?;
        let partition_epoch = Epoch::from_raw(partition_ref.owner_epoch.load(Ordering::Acquire));
        Ok(Consumer {
            broker: self.clone(),
            component,
            epoch: self.current_epoch(component),
            partition_ref,
            partition,
            partition_epoch,
            position: Mutex::new(offset),
            position_hint: AtomicU64::new(offset),
            stalled_until: AtomicU64::new(0),
        })
    }

    /// Appends one produce round (the body of [`Producer::submit_round`]):
    /// the broker's one fenced append. A round of one group is a batch
    /// ([`Broker::append_batch`]).
    fn append_round(
        &self,
        component: ComponentId,
        epoch: Epoch,
        topic: &str,
        mut groups: Vec<(usize, Vec<M>)>,
    ) -> KarResult<Completion<RoundRanges>> {
        if groups.len() == 1 {
            let (partition, payloads) = groups.pop().expect("one group");
            return Ok(self
                .append_batch(component, epoch, topic, partition, payloads)?
                .map(|range| vec![(partition, range)]));
        }
        self.check_epoch(component, epoch)?;
        let parts = groups
            .iter()
            .map(|(partition, _)| self.lookup_partition(topic, *partition))
            .collect::<KarResult<Vec<_>>>()?;
        // Lock order: ascending partition index, whatever order the groups
        // came in. A partition named twice would be locked twice.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_unstable_by_key(|&group| groups[group].0);
        if let Some(pair) = order
            .windows(2)
            .find(|pair| groups[pair[0]].0 == groups[pair[1]].0)
        {
            return Err(KarError::Queue(format!(
                "partition {} appears twice in one produce round",
                groups[pair[0]].0
            )));
        }
        // Every gate is consulted before anything is appended: a transient
        // fault on one partition fails the round with no record anywhere.
        let mut gate = FaultGate::default();
        for &group in &order {
            if !groups[group].1.is_empty() {
                let decided = self.fault_gate(FaultSite::BrokerAppend, groups[group].0)?;
                gate.ack_lost |= decided.ack_lost;
                gate.delay += decided.delay;
            }
        }
        let now = self.now();
        let mut logs: Vec<_> = order.iter().map(|&group| parts[group].log.lock()).collect();
        // One durable acknowledgement for the whole round: it queues behind
        // the busiest partition it touches, and every touched partition
        // stays busy until it fires — each of them still acknowledges its
        // appends in sequence.
        let mut acked = now;
        if groups.iter().any(|(_, payloads)| !payloads.is_empty()) {
            let submitted = logs
                .iter()
                .zip(&order)
                .filter(|(_, &group)| !groups[group].1.is_empty())
                .map(|(log, _)| log.busy_until())
                .fold(now + gate.delay, Duration::max);
            acked = submitted + self.inner.config.append_latency;
        }
        let mut ranges = vec![(0, 0..0); groups.len()];
        // Expired records are freed after the partition locks are released.
        let mut expired = Vec::new();
        for (log, &group) in logs.iter_mut().zip(&order) {
            let (partition, payloads) = (groups[group].0, std::mem::take(&mut groups[group].1));
            let (range, dropped) = self.append_locked(&parts[group], log, now, acked, payloads);
            expired.push(dropped);
            ranges[group] = (partition, range);
        }
        drop(logs);
        drop(expired);
        for (part, (_, range)) in parts.iter().zip(&ranges) {
            if !range.is_empty() {
                part.notify();
            }
        }
        Ok(self.completion(now, acked, gate, FaultSite::BrokerAppend, ranges))
    }

    /// Appends one partition's batch (the body of [`Producer::submit_batch`]
    /// and of every one-group round): the round's checks, gate and single
    /// acknowledgement, with no per-round scratch — the shape of every
    /// response run, retry copy and one-partition request run.
    fn append_batch(
        &self,
        component: ComponentId,
        epoch: Epoch,
        topic: &str,
        partition: usize,
        payloads: Vec<M>,
    ) -> KarResult<Completion<Range<u64>>> {
        self.check_epoch(component, epoch)?;
        let part = self.lookup_partition(topic, partition)?;
        let gate = if payloads.is_empty() {
            FaultGate::default()
        } else {
            self.fault_gate(FaultSite::BrokerAppend, partition)?
        };
        let now = self.now();
        let mut log = part.log.lock();
        let acked = if payloads.is_empty() {
            now
        } else {
            log.busy_until().max(now + gate.delay) + self.inner.config.append_latency
        };
        let (range, expired) = self.append_locked(&part, &mut log, now, acked, payloads);
        drop(log);
        drop(expired);
        if !range.is_empty() {
            part.notify();
        }
        Ok(self.completion(now, acked, gate, FaultSite::BrokerAppend, range))
    }

    /// Appends `payloads` to `part`, whose log lock the caller holds as
    /// `log`, under a round's acknowledgement at `acked`, runs retention and
    /// publishes the watermarks. Returns the offsets assigned and the
    /// records retention dropped, for the caller to free once the lock is
    /// released. An empty batch appends nothing and pays no ack.
    fn append_locked(
        &self,
        part: &Partition<M>,
        log: &mut PartitionLog<M>,
        now: Duration,
        acked: Duration,
        payloads: Vec<M>,
    ) -> (Range<u64>, Vec<Record<Arc<M>>>) {
        let first = log.end_offset();
        if payloads.is_empty() {
            return (first..first, Vec::new());
        }
        log.acknowledge(acked, Duration::ZERO);
        for payload in payloads {
            log.append(now, acked + self.inner.config.deliver_latency, payload);
        }
        let expired = self.expire(log, now);
        part.publish(log);
        (first..log.end_offset(), expired)
    }

    /// Reads up to `max` *visible* records of `partition` from `from_offset`
    /// on. Visibility is brought up to date here, lazily, and only when some
    /// record is still waiting for its instant — with no latency modelled a
    /// fetch never looks at the clock.
    fn fetch(
        &self,
        component: ComponentId,
        epoch: Epoch,
        partition: &Partition<M>,
        from_offset: u64,
        max: usize,
    ) -> KarResult<Vec<Record<Arc<M>>>> {
        self.check_epoch(component, epoch)?;
        let mut log = partition.log.lock();
        if log.next_visible_at().is_some() {
            log.advance_visible(self.now());
            partition.publish(&log);
        }
        Ok(log.read_from(from_offset, max))
    }

    // ------------------------------------------------------------------
    // Administrative access (reconciliation)
    // ------------------------------------------------------------------

    /// Reads every live (unexpired) record of a partition, bypassing fencing.
    /// Used by the reconciliation leader to catalog the unexpired messages of
    /// failed components (§4.3). Payloads are shared with the log
    /// (zero-copy), so cataloguing a deep backlog copies no message bodies.
    pub fn read_partition(&self, topic: &str, partition: usize) -> Vec<Record<Arc<M>>> {
        self.lookup_partition(topic, partition)
            .map(|part| part.log.lock().read_all())
            .unwrap_or_default()
    }

    /// Number of live records in a partition.
    pub fn partition_len(&self, topic: &str, partition: usize) -> usize {
        self.lookup_partition(topic, partition)
            .map_or(0, |part| part.log.lock().len())
    }

    /// The partition's low watermark: the offset of its oldest live record
    /// (its end offset when empty; zero if the partition does not exist) —
    /// Kafka's `beginningOffsets`. Every record below it has been dropped by
    /// retention, [`Producer::trim_before`] or truncation, and since offsets
    /// start at zero and are never reused it is also the number of records
    /// dropped so far. One atomic load; never touches the log lock.
    pub fn log_start(&self, topic: &str, partition: usize) -> u64 {
        self.lookup_partition(topic, partition)
            .map_or(0, |part| part.start.load(Ordering::Acquire))
    }

    /// Offset that will be assigned to the next record appended to the
    /// partition.
    pub fn end_offset(&self, topic: &str, partition: usize) -> u64 {
        self.lookup_partition(topic, partition)
            .map_or(0, |part| part.log.lock().end_offset())
    }

    /// One past the last record of the partition a consumer can read right
    /// now (zero if the partition does not exist): records appended but not
    /// yet past their delivery latency lie between this and
    /// [`Broker::end_offset`].
    pub fn visible_end(&self, topic: &str, partition: usize) -> u64 {
        self.lookup_partition(topic, partition).map_or(0, |part| {
            part.with_log(|log| {
                log.advance_visible(self.now());
                log.visible_end()
            })
        })
    }

    /// Broker time at which the partition's last durable acknowledgement
    /// fires (zero if it never acknowledged anything): an append submitted
    /// before then is acknowledged one append latency after it.
    pub fn busy_until(&self, topic: &str, partition: usize) -> Duration {
        self.lookup_partition(topic, partition)
            .map_or(Duration::ZERO, |part| part.log.lock().busy_until())
    }

    /// Appends a record on behalf of the runtime itself (reconciliation),
    /// bypassing component fencing. Administrative appends model no durable
    /// ack and no delivery latency: the record is readable at once (behind
    /// any record still waiting for its instant).
    pub fn admin_append(&self, topic: &str, partition: usize, payload: M) -> KarResult<u64> {
        self.admin_append_batch(topic, partition, vec![payload])
            .map(|range| range.start)
    }

    /// Appends a batch of records on behalf of the runtime itself
    /// (reconciliation re-homing), bypassing component fencing: one lock
    /// acquisition and one consumer wake-up for the whole batch. Returns the
    /// contiguous offset range assigned to the batch.
    pub fn admin_append_batch(
        &self,
        topic: &str,
        partition: usize,
        payloads: Vec<M>,
    ) -> KarResult<Range<u64>> {
        let part = self.lookup_partition(topic, partition)?;
        if payloads.is_empty() {
            let end = part.log.lock().end_offset();
            return Ok(end..end);
        }
        let gate = self.fault_gate(FaultSite::BrokerAdminAppend, partition)?;
        let now = self.now();
        let arrived = now + gate.delay;
        let range = part.with_log(|log| {
            let first = log.end_offset();
            for payload in payloads {
                log.append(now, arrived, payload);
            }
            first..log.end_offset()
        });
        part.notify();
        self.completion(now, arrived, gate, FaultSite::BrokerAdminAppend, range)
            .wait()
    }

    /// Discards every live record of a partition (flushing the queue of a
    /// failed component after its requests have been re-homed). Returns the
    /// number of dropped records.
    pub fn truncate_partition(&self, topic: &str, partition: usize) -> usize {
        self.lookup_partition(topic, partition)
            .map_or(0, |part| part.with_log(PartitionLog::truncate).len())
    }

    /// Drops every record of `topic[partition]` below `offset` on behalf of
    /// `component` (the body of [`Producer::trim_before`]).
    fn trim(
        &self,
        component: ComponentId,
        epoch: Epoch,
        topic: &str,
        partition: usize,
        offset: u64,
    ) -> KarResult<usize> {
        self.check_epoch(component, epoch)?;
        let part = self.lookup_partition(topic, partition)?;
        // The trimmed records are freed after the partition lock is
        // released: a deep trim must not stall the partition's appenders.
        let dropped = part.with_log(|log| log.trim_before(offset));
        Ok(dropped.len())
    }

    /// Runs this broker's retention over `log`, returning the expired
    /// records.
    fn expire(&self, log: &mut PartitionLog<M>, now: Duration) -> Vec<Record<Arc<M>>> {
        log.expire(
            now,
            self.inner.config.retention,
            self.inner.config.max_partition_records,
        )
    }

    /// Runs retention on every partition of every topic, returning the total
    /// number of expired records.
    pub fn expire_now(&self) -> usize {
        let now = self.now();
        let mut dropped = 0;
        for shard in &self.inner.topic_shards {
            let topics: Vec<Arc<Topic<M>>> = shard.read().values().cloned().collect();
            for topic in topics {
                let partitions: Vec<Arc<Partition<M>>> =
                    topic.partitions.read().iter().cloned().collect();
                for part in partitions {
                    dropped += part.with_log(|log| self.expire(log, now)).len();
                }
            }
        }
        dropped
    }

    // ------------------------------------------------------------------
    // Consumer groups
    // ------------------------------------------------------------------

    /// Joins `component` to `group`, consuming `partitions`. Triggers a
    /// rebalance after the stabilization window.
    pub fn join_group(&self, group: &str, component: ComponentId, partitions: PartitionSet) {
        let now = self.now();
        let mut groups = self.inner.groups.lock();
        let g = groups.entry(group.to_owned()).or_default();
        g.members.insert(
            component,
            MemberInfo {
                component,
                partitions,
                state: MemberState::Live,
                last_heartbeat: now,
            },
        );
        g.rebalance_deadline = Some(now + self.inner.config.rebalance_stabilization);
        g.emit(GroupEvent::MemberJoined { component, at: now });
    }

    /// Refreshes the partition set recorded for `component` in `group`
    /// (recovery re-homed partition ranges onto it), so the group view stays
    /// in agreement with the broker's assignment table. No-op for unknown
    /// groups or members; membership and generation are untouched.
    pub fn update_member_partitions(
        &self,
        group: &str,
        component: ComponentId,
        partitions: PartitionSet,
    ) {
        let mut groups = self.inner.groups.lock();
        if let Some(member) = groups
            .get_mut(group)
            .and_then(|g| g.members.get_mut(&component))
        {
            member.partitions = partitions;
        }
    }

    /// Gracefully removes `component` from `group`.
    pub fn leave_group(&self, group: &str, component: ComponentId) {
        let now = self.now();
        let mut groups = self.inner.groups.lock();
        if let Some(g) = groups.get_mut(group) {
            if g.members.remove(&component).is_some() {
                g.rebalance_deadline = Some(now + self.inner.config.rebalance_stabilization);
                g.emit(GroupEvent::MemberLeft { component, at: now });
            }
        }
    }

    /// Records a heartbeat from `component`.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component is not a live member of
    /// the group (it has been declared failed or never joined).
    pub fn heartbeat(&self, group: &str, component: ComponentId) -> KarResult<()> {
        let now = self.now();
        let mut groups = self.inner.groups.lock();
        let g = groups
            .get_mut(group)
            .ok_or_else(|| KarError::Queue(format!("unknown group {group}")))?;
        match g.members.get_mut(&component) {
            Some(m) if m.state == MemberState::Live => {
                m.last_heartbeat = now;
                Ok(())
            }
            _ => Err(KarError::Fenced {
                component,
                detail: format!("not a live member of group {group}"),
            }),
        }
    }

    /// Subscribes to the event stream of `group`.
    pub fn subscribe(&self, group: &str) -> Receiver<GroupEvent> {
        let (tx, rx) = unbounded();
        let mut groups = self.inner.groups.lock();
        groups
            .entry(group.to_owned())
            .or_default()
            .subscribers
            .push(tx);
        rx
    }

    /// A snapshot of `group` (empty view if the group does not exist).
    pub fn group_view(&self, group: &str) -> GroupView {
        self.inner
            .groups
            .lock()
            .get(group)
            .map(Group::view)
            .unwrap_or(GroupView {
                generation: 0,
                members: Vec::new(),
            })
    }

    /// Advances failure detection, rebalancing and retention for every
    /// group and partition, based on the broker clock. Called periodically
    /// by the background coordinator (see [`Broker::spawn_coordinator`]) or
    /// manually by tests.
    ///
    /// Running retention here (not just lazily on append) matters for
    /// correctness elsewhere: the runtime ages its retry bookkeeping on the
    /// retention clock, which is only sound if an *idle* partition also
    /// drops records past retention — otherwise reconciliation could
    /// re-home a record older than every memory of its completion.
    ///
    /// Members whose heartbeat is older than the session timeout on **two
    /// consecutive ticks, with no heartbeat in between**, are declared
    /// failed, **fenced** (forcefully disconnected, §4.2), and a rebalance is
    /// scheduled after the stabilization window: the first stale observation
    /// only makes a member a *suspect*, so one late heartbeat — a timer
    /// thread the host did not schedule for a while — costs nobody its
    /// membership, and a dead member is detected at most one coordinator
    /// interval later than before. A tick that finds its own predecessor
    /// more than two coordinator intervals old was itself not running (the
    /// whole process was descheduled, heartbeat threads included): it may
    /// name suspects but confirms nothing. Once the stabilization window
    /// elapses with no further change the generation is bumped and a
    /// [`GroupEvent::RebalanceCompleted`] is emitted.
    pub fn tick(&self) {
        let now = self.now();
        let stalled = self
            .inner
            .last_tick
            .lock()
            .replace(now)
            .is_some_and(|last| {
                now.saturating_sub(last) > 2 * self.inner.config.coordinator_interval
            });
        let mut to_fence: Vec<ComponentId> = Vec::new();
        {
            let mut groups = self.inner.groups.lock();
            for g in groups.values_mut() {
                let failed = g.detect_failures(now, self.inner.config.session_timeout, !stalled);
                if !failed.is_empty() {
                    g.rebalance_deadline = Some(now + self.inner.config.rebalance_stabilization);
                    for component in failed {
                        to_fence.push(component);
                        g.emit(GroupEvent::FailureDetected { component, at: now });
                    }
                }
                if let Some(deadline) = g.rebalance_deadline {
                    if now >= deadline {
                        let event = g.complete_rebalance(now);
                        g.emit(event);
                    }
                }
            }
        }
        for component in to_fence {
            self.fence(component);
        }
        self.expire_now();
    }

    /// Spawns a background coordinator thread that calls [`Broker::tick`]
    /// every `coordinator_interval` until the broker is shut down or every
    /// other handle to it is dropped.
    pub fn spawn_coordinator(&self) {
        let weak: Weak<BrokerInner<M>> = Arc::downgrade(&self.inner);
        let interval = self.inner.config.coordinator_interval;
        std::thread::Builder::new()
            .name("kar-queue-coordinator".to_owned())
            .spawn(move || loop {
                let Some(inner) = weak.upgrade() else { break };
                if inner.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let broker = Broker { inner };
                broker.tick();
                drop(broker);
                std::thread::sleep(interval);
            })
            .expect("failed to spawn coordinator thread");
    }

    /// Stops background coordinator threads.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
    }
}

/// A fenced producer bound to a component and an epoch.
#[derive(Debug)]
pub struct Producer<M> {
    broker: Broker<M>,
    component: ComponentId,
    epoch: Epoch,
}

impl<M: Clone + Send + Sync + 'static> Producer<M> {
    /// Appends `payload` to `topic[partition]` — a one-record
    /// [`Producer::send_round`] — and waits for the append to be
    /// acknowledged (durable). Returns the record offset.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the owning component has been
    /// forcefully disconnected, or `KarError::Queue` if the partition does
    /// not exist.
    pub fn send(&self, topic: &str, partition: usize, payload: M) -> KarResult<u64> {
        self.send_batch(topic, partition, vec![payload])
            .map(|range| range.start)
    }

    /// Appends `payloads` to `topic[partition]` as one batch — the
    /// one-partition [`Producer::send_round`]: a single epoch check, a
    /// single partition-lock acquisition and a single durable-ack latency
    /// for the whole batch. Records receive contiguous, strictly increasing
    /// offsets in payload order; the assigned range is returned.
    ///
    /// # Errors
    ///
    /// Same as [`Producer::send`]. An empty batch appends nothing and
    /// returns the empty range at the current end offset.
    pub fn send_batch(
        &self,
        topic: &str,
        partition: usize,
        payloads: Vec<M>,
    ) -> KarResult<Range<u64>> {
        self.submit_batch(topic, partition, payloads)?.wait()
    }

    /// Appends one **produce round**: one batch per partition touched,
    /// acknowledged together — the in-memory shape of a single Kafka
    /// `ProduceRequest` carrying several partition batches. The epoch is
    /// checked once; the fault gate of every partition touched is evaluated
    /// *before* anything is appended; the partitions' log locks are taken in
    /// ascending partition index (so two rounds over overlapping partitions
    /// never deadlock, whatever order their groups are listed in); the
    /// durable-ack latency is paid **once** for the whole round; every group
    /// is appended with contiguous offsets in payload order; and each
    /// touched partition's consumers are notified. Returns — once the
    /// acknowledgement has fired — the `(partition, offset range)` of every
    /// group, in the order given. An empty group appends nothing and reports
    /// the empty range at its partition's end offset; a round of only empty
    /// groups pays no ack.
    ///
    /// # Errors
    ///
    /// All-or-nothing: a fenced producer (`KarError::Fenced`), an unknown
    /// partition, a partition listed twice, or an injected transient fault
    /// on *any* touched partition (`KarError::Queue`) appends nothing to
    /// *any* of them. The one exception is the injected ack loss, which by
    /// definition appends the whole round and then reports failure.
    pub fn send_round(
        &self,
        topic: &str,
        groups: Vec<(usize, Vec<M>)>,
    ) -> KarResult<Vec<(usize, Range<u64>)>> {
        self.submit_round(topic, groups)?.wait()
    }

    /// [`Producer::send_round`] without the wait — the one append path every
    /// send goes through. The round is **applied when this returns**
    /// (its records have their offsets and their consumers are notified; they
    /// become readable one delivery latency after the acknowledgement), and
    /// the returned [`Completion`] says when the round's single durable
    /// acknowledgement fires: one append latency after the latest busy-until
    /// among the partitions touched, all of which stay busy until then.
    /// Nothing that depends on the round being durable may run before that
    /// instant.
    ///
    /// # Errors
    ///
    /// A fenced producer, an unknown or repeated partition, or an injected
    /// transient fault fails the submit at once with nothing appended. An
    /// injected ack loss is not an error here: the round is appended, and
    /// the completion's acknowledgement carries the failure.
    pub fn submit_round(
        &self,
        topic: &str,
        groups: Vec<(usize, Vec<M>)>,
    ) -> KarResult<Completion<RoundRanges>> {
        self.broker
            .append_round(self.component, self.epoch, topic, groups)
    }

    /// [`Producer::submit_round`] of one group: `payloads` appended to
    /// `topic[partition]` as one batch, with the round's checks, fault gate
    /// and single acknowledgement — and none of the scratch a round over
    /// several partitions needs to order its locks. Returns the completion
    /// of the batch's offset range.
    ///
    /// # Errors
    ///
    /// As [`Producer::submit_round`].
    pub fn submit_batch(
        &self,
        topic: &str,
        partition: usize,
        payloads: Vec<M>,
    ) -> KarResult<Completion<Range<u64>>> {
        self.broker
            .append_batch(self.component, self.epoch, topic, partition, payloads)
    }

    /// Drops every record of `topic[partition]` below `offset` — the
    /// in-memory equivalent of Kafka's `deleteRecords`: still "expire the
    /// oldest in bulk", with the cut chosen by the partition's owner (who
    /// knows which records nothing can need again) instead of by age.
    /// Offsets past the end clamp to the end; at or below the log start it
    /// is a no-op. Returns the number of records dropped.
    ///
    /// # Errors
    ///
    /// Fenced like an append: fails with `KarError::Fenced` if the owning
    /// component has been forcefully disconnected — a component declared
    /// failed must not delete records reconciliation is about to catalogue —
    /// or `KarError::Queue` if the partition does not exist.
    pub fn trim_before(&self, topic: &str, partition: usize, offset: u64) -> KarResult<usize> {
        self.broker
            .trim(self.component, self.epoch, topic, partition, offset)
    }

    /// The component this producer belongs to.
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// Whether the broker this producer talks to has a fault plan armed.
    /// Callers that keep replay copies of batches for transient-failure
    /// recovery use this to skip the copy entirely on an un-faulted broker
    /// (where transient append errors cannot occur in-process).
    pub fn faults_armed(&self) -> bool {
        self.broker.inner.config.faults.is_some()
    }
}

/// A fenced, manually-assigned consumer of a single partition.
///
/// The consumer caches its partition handle at construction, so polling
/// never touches the topic index again: one partition-level lock per poll.
/// It is fenced two ways: by its component's epoch (the component was
/// forcefully disconnected) and by the partition's ownership epoch (the
/// partition was reassigned to another component after this consumer
/// opened — see [`Broker::fence_partition`]).
#[derive(Debug)]
pub struct Consumer<M> {
    broker: Broker<M>,
    component: ComponentId,
    epoch: Epoch,
    partition_ref: Arc<Partition<M>>,
    partition: usize,
    partition_epoch: Epoch,
    position: Mutex<u64>,
    /// Lock-free mirror of `position`, refreshed whenever the position moves
    /// under its lock. Only read by [`Consumer::ready`]; a slightly stale
    /// value costs at most one spurious (or missed-until-next-notify) sweep.
    position_hint: AtomicU64,
    /// Broker time (nanoseconds, zero = none) until which an injected
    /// latency spike holds this consumer's next poll back: the poll that
    /// drew the spike returns nothing, and the records are read by the
    /// first poll at or after this instant.
    stalled_until: AtomicU64,
}

impl<M: Clone + Send + Sync + 'static> Consumer<M> {
    /// Fails if the partition's ownership epoch moved past the one this
    /// consumer was opened under (the partition was re-homed): the consumer
    /// must not commit records behind the new owner's back.
    fn check_partition_epoch(&self) -> KarResult<()> {
        let current = Epoch::from_raw(self.partition_ref.owner_epoch.load(Ordering::Acquire));
        if self.partition_epoch < current {
            return Err(KarError::Fenced {
                component: self.component,
                detail: format!(
                    "consumer of partition {} opened at {} but partition fenced to {current}",
                    self.partition, self.partition_epoch
                ),
            });
        }
        Ok(())
    }

    /// Fetches up to `max` *readable* records past the consumer's current
    /// position and advances the position past the returned records. Never
    /// waits: a record whose delivery latency has not elapsed is simply not
    /// returned yet (see [`Consumer::next_visible_at`]).
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the owning component has been
    /// forcefully disconnected or the partition has been reassigned.
    pub fn poll(&self, max: usize) -> KarResult<Vec<Record<Arc<M>>>> {
        self.check_partition_epoch()?;
        // Consumer-side gray failures: a poll is a read, so `Transient`
        // fails before fetching (nothing moves), `AckLost` becomes
        // *redelivery* — records are returned but the position stays put,
        // so the next poll reads them again (Kafka's at-least-once regime;
        // the runtime's dedup layer must absorb the duplicates) — and a
        // latency spike holds the read back: this poll returns nothing, the
        // first poll once the spike has passed reads (without drawing again:
        // it is the same, delayed, read).
        let mut redeliver = false;
        if let Some(injector) = &self.broker.inner.config.faults {
            let stalled = self.stalled_until.load(Ordering::Acquire);
            if stalled != 0 {
                if (self.broker.now().as_nanos() as u64) < stalled {
                    return Ok(Vec::new());
                }
                self.stalled_until.store(0, Ordering::Release);
            } else {
                match injector.decide(
                    FaultSite::ConsumerPoll,
                    FaultPlane::Broker,
                    self.partition as u64,
                ) {
                    None => {}
                    Some(FaultDecision::Transient) => {
                        return Err(KarError::Queue(
                            "injected transient fault at consumer_poll".to_owned(),
                        ));
                    }
                    Some(FaultDecision::AckLost) => redeliver = true,
                    Some(FaultDecision::Latency(extra)) => {
                        let until = self.broker.now() + extra;
                        self.stalled_until
                            .store(until.as_nanos() as u64, Ordering::Release);
                        return Ok(Vec::new());
                    }
                }
            }
        }
        let mut position = self.position.lock();
        // Snapshot the visible end *before* fetching: an append racing the
        // fetch is never skipped, while an empty fetch proves every offset
        // below the snapshot is gone (expired or truncated) and the position
        // can jump past the gap — otherwise `ready()` would report a
        // readable backlog forever and sweepers would busy-spin on it.
        let end = self.partition_ref.end.load(Ordering::Acquire);
        let records = self.broker.fetch(
            self.component,
            self.epoch,
            &self.partition_ref,
            *position,
            max,
        )?;
        if redeliver {
            // Position untouched: the same records come back next poll.
            return Ok(records);
        }
        if let Some(last) = records.last() {
            *position = last.offset + 1;
        } else if max > 0 && end > *position {
            *position = end;
        }
        self.position_hint.store(*position, Ordering::Release);
        Ok(records)
    }

    /// True if a poll could return something right now: the partition's
    /// visible end has moved past this consumer's position — or is due to,
    /// the delivery latency of its oldest waiting record having elapsed — or
    /// the partition was fenced (so the next poll reports
    /// [`KarError::Fenced`] and the owner can drop the consumer). Atomic
    /// loads only, plus one clock read while a record is waiting to become
    /// visible — no locks — so sweeping a large set of consumers is cheap.
    pub fn ready(&self) -> bool {
        let part = &self.partition_ref;
        if Epoch::from_raw(part.owner_epoch.load(Ordering::Acquire)) > self.partition_epoch {
            return true;
        }
        let stalled = self.stalled_until.load(Ordering::Acquire);
        let pending = part.next_visible.load(Ordering::Acquire);
        let now = if stalled != 0 || pending != NOTHING_PENDING {
            self.broker.now().as_nanos() as u64
        } else {
            0
        };
        now >= stalled
            && (part.end.load(Ordering::Acquire) > self.position_hint.load(Ordering::Acquire)
                || now >= pending)
    }

    /// When a consumer that is not [`ready`](Consumer::ready) will next have
    /// something to read without a further append — on the shared
    /// [`kar_types::mono_now`] timeline, so a sweeper can sleep until then:
    /// the instant the oldest not-yet-visible record of the partition
    /// becomes readable (or an injected poll latency spike ends). `None`
    /// when nothing is waiting: only a new append — which notifies the
    /// partition's signal and wait groups — can make the consumer ready.
    pub fn next_visible_at(&self) -> Option<Duration> {
        let part = &self.partition_ref;
        let behind = part.end.load(Ordering::Acquire) > self.position_hint.load(Ordering::Acquire);
        let pending = part.next_visible.load(Ordering::Acquire);
        // What a later poll would return: records already visible (held back
        // only by a stall), or the oldest waiting one once it is.
        let readable_at = match (behind, pending) {
            (true, _) => 0,
            (false, NOTHING_PENDING) => return None,
            (false, pending) => pending,
        };
        let at = readable_at.max(self.stalled_until.load(Ordering::Acquire));
        (at != 0).then(|| self.broker.inner.origin + Duration::from_nanos(at))
    }

    /// Like [`Consumer::poll`], but parks on the partition's append signal
    /// for up to `timeout` when no record is immediately readable — waking
    /// for an append, or on the instant a waiting record's delivery latency
    /// elapses ([`WaitSignal::wait_until`]) — instead of returning an empty
    /// batch at once. Returns an empty batch only after the timeout elapses
    /// with nothing to read.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the owning component has been
    /// forcefully disconnected.
    pub fn poll_wait(&self, max: usize, timeout: Duration) -> KarResult<Vec<Record<Arc<M>>>> {
        if kar_types::sim::active() {
            // Single-threaded simulation: nobody else can append — step the
            // scheduler (becoming the rest of the mesh) until a record
            // lands or the virtual deadline passes.
            let deadline = kar_types::mono_now() + timeout;
            loop {
                let records = self.poll(max)?;
                if !records.is_empty() || kar_types::mono_now() >= deadline {
                    return Ok(records);
                }
                kar_types::sim::step();
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            // Snapshot the append signal before polling: an append landing
            // between the poll and the wait then wakes us immediately.
            let seen = self.partition_ref.signal.current();
            let records = self.poll(max)?;
            if !records.is_empty() {
                return Ok(records);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(records);
            }
            let park = deadline - now;
            if let Some(visible_at) = self.next_visible_at() {
                if kar_types::virtual_time_active() {
                    // A bare virtual clock with no scheduler behind it: the
                    // wait for the record's instant *is* the passage of time.
                    kar_types::pace_until(visible_at);
                    continue;
                }
                // The record's visibility is a modelled instant: wake on it.
                if visible_at < kar_types::mono_now() + park {
                    self.partition_ref.signal.wait_until(seen, visible_at);
                    continue;
                }
            }
            self.partition_ref.signal.wait(seen, park);
        }
    }

    /// Attaches this consumer's partition to a shared [`WaitSignalGroup`]:
    /// every subsequent append (or fence) of the partition notifies the
    /// group, and the group's membership count grows by one. A consumer
    /// thread owning several partitions attaches them all to one group and
    /// parks on it between sweeps, waking immediately on any member's
    /// append. Attaching the same group twice is a no-op.
    pub fn join_wait_group(&self, group: &Arc<WaitSignalGroup>) {
        let mut watchers = self.partition_ref.watchers.write();
        if !watchers.iter().any(|g| Arc::ptr_eq(g, group)) {
            watchers.push(Arc::clone(group));
            group.join();
        }
    }

    /// Detaches this consumer's partition from `group` (no-op if it was not
    /// attached): appends stop notifying the group and the membership count
    /// shrinks. Called when a consumer is dropped — fenced during re-homing,
    /// or retired after its adopted partition drained — so dead groups are
    /// never notified and retirement provably leaves the wait group.
    pub fn leave_wait_group(&self, group: &Arc<WaitSignalGroup>) {
        let mut watchers = self.partition_ref.watchers.write();
        if let Some(index) = watchers.iter().position(|g| Arc::ptr_eq(g, group)) {
            watchers.remove(index);
            drop(watchers);
            group.leave();
        }
    }

    /// The next offset this consumer will read.
    pub fn position(&self) -> u64 {
        *self.position.lock()
    }

    /// Moves the consumer to `offset`.
    pub fn seek(&self, offset: u64) {
        *self.position.lock() = offset;
        self.position_hint.store(offset, Ordering::Release);
    }

    /// The partition this consumer reads.
    pub fn partition(&self) -> usize {
        self.partition
    }

    /// The component this consumer belongs to.
    pub fn component(&self) -> ComponentId {
        self.component
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u64) -> ComponentId {
        ComponentId::from_raw(id)
    }

    #[test]
    fn create_topic_and_produce_consume() {
        let broker: Broker<String> = Broker::new(BrokerConfig::default());
        broker.create_topic("app", 2).unwrap();
        assert!(broker.topic_exists("app"));
        assert_eq!(broker.partition_count("app"), 2);
        assert!(broker.create_topic("app", 2).is_err());
        assert!(broker.create_topic("bad", 0).is_err());

        let producer = broker.producer(c(1));
        assert_eq!(producer.send("app", 0, "a".into()).unwrap(), 0);
        assert_eq!(producer.send("app", 0, "b".into()).unwrap(), 1);
        assert_eq!(producer.send("app", 1, "c".into()).unwrap(), 0);
        assert_eq!(producer.component(), c(1));

        let consumer = broker.consumer(c(2), "app", 0).unwrap();
        let records = consumer.poll(10).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(*records[0].payload, "a");
        assert_eq!(consumer.position(), 2);
        assert!(consumer.poll(10).unwrap().is_empty());
        assert_eq!(consumer.partition(), 0);
        assert_eq!(consumer.component(), c(2));
        consumer.seek(0);
        assert_eq!(consumer.poll(1).unwrap().len(), 1);
    }

    #[test]
    fn unknown_topics_and_partitions_are_rejected() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        let producer = broker.producer(c(1));
        assert!(producer.send("missing", 0, 1).is_err());
        assert!(broker.consumer(c(1), "missing", 0).is_err());
        broker.create_topic("t", 1).unwrap();
        assert!(producer.send("t", 5, 1).is_err());
        assert!(broker.consumer(c(1), "t", 5).is_err());
        assert_eq!(broker.partition_count("missing"), 0);
        assert_eq!(broker.end_offset("missing", 0), 0);
        assert_eq!(broker.partition_len("missing", 0), 0);
        assert!(broker.admin_append("missing", 0, 1).is_err());
        assert!(broker.admin_append_batch("missing", 0, vec![1]).is_err());
        assert!(producer.send_batch("missing", 0, vec![1]).is_err());
    }

    #[test]
    fn ensure_partitions_grows_topics() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        assert_eq!(broker.ensure_partitions("t", 3).unwrap(), 3);
        assert_eq!(broker.ensure_partitions("t", 2).unwrap(), 3);
        assert_eq!(broker.ensure_partitions("t", 5).unwrap(), 5);
        assert!(broker.ensure_partitions("t", 0).is_err());
    }

    #[test]
    fn fencing_blocks_stale_producers_and_consumers() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        let consumer = broker.consumer(c(1), "t", 0).unwrap();
        producer.send("t", 0, 1).unwrap();
        let epoch = broker.fence(c(1));
        assert_eq!(epoch, Epoch::from_raw(1));
        assert!(producer.send("t", 0, 2).unwrap_err().is_fenced());
        assert!(producer
            .send_batch("t", 0, vec![2, 3])
            .unwrap_err()
            .is_fenced());
        assert!(consumer.poll(1).unwrap_err().is_fenced());
        // Data written before the fence survives; a new client works.
        assert_eq!(broker.partition_len("t", 0), 1);
        let producer2 = broker.producer(c(1));
        producer2.send("t", 0, 3).unwrap();
        assert_eq!(broker.current_epoch(c(1)), Epoch::from_raw(1));
    }

    #[test]
    fn injected_faults_gate_appends_but_ack_lost_still_appends() {
        use kar_types::{FaultInjector, FaultPlan, FaultSpec};

        // Exactly one transient fault on fenced appends: the record is NOT
        // appended, and the next attempt goes through.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0).with_budget(1),
        );
        let config = BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        let err = producer.send("t", 0, 1).unwrap_err();
        assert!(matches!(err, KarError::Queue(_)), "got {err:?}");
        assert_eq!(broker.partition_len("t", 0), 0, "transient applies nothing");
        assert_eq!(producer.send("t", 0, 1).unwrap(), 0);

        // Exactly one lost ack on admin appends: the record IS in the log —
        // ground truth via read_partition — but the caller sees failure.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAdminAppend,
            FaultSpec::NONE.with_ack_lost(1.0).with_budget(1),
        );
        let injector = Arc::new(FaultInjector::new(plan));
        let config = BrokerConfig {
            faults: Some(injector.clone()),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 1).unwrap();
        let err = broker.admin_append("t", 0, 9).unwrap_err();
        assert!(matches!(err, KarError::Queue(_)), "got {err:?}");
        assert_eq!(
            broker.partition_len("t", 0),
            1,
            "ack-lost record is durable"
        );
        assert_eq!(*broker.read_partition("t", 0)[0].payload, 9);
        let site = injector.counters().site(FaultSite::BrokerAdminAppend);
        assert_eq!(site.ack_lost, 1);
        // Budget spent: further admin appends succeed normally.
        broker.admin_append_batch("t", 0, vec![10, 11]).unwrap();
        assert_eq!(broker.partition_len("t", 0), 3);
    }

    #[test]
    fn admin_reads_appends_and_truncation() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        producer.send("t", 0, 1).unwrap();
        producer.send("t", 0, 2).unwrap();
        broker.fence(c(1));
        // Reconciliation reads and rewrites messages regardless of fencing.
        let records = broker.read_partition("t", 0);
        assert_eq!(records.len(), 2);
        broker.admin_append("t", 0, 99).unwrap();
        assert_eq!(broker.partition_len("t", 0), 3);
        assert_eq!(broker.end_offset("t", 0), 3);
        assert_eq!(broker.truncate_partition("t", 0), 3);
        assert_eq!(broker.partition_len("t", 0), 0);
        assert_eq!(broker.end_offset("t", 0), 3);
        assert_eq!(broker.truncate_partition("missing", 0), 0);
    }

    #[test]
    fn send_batch_assigns_contiguous_offsets_in_payload_order() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        producer.send("t", 0, 100).unwrap();
        let range = producer.send_batch("t", 0, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(range, 1..5);
        // A batch from another producer lands after, still contiguous.
        let range2 = broker
            .producer(c(2))
            .send_batch("t", 0, vec![5, 6])
            .unwrap();
        assert_eq!(range2, 5..7);
        // Payload order is offset order.
        let consumer = broker.consumer(c(3), "t", 0).unwrap();
        let payloads: Vec<u32> = consumer
            .poll(10)
            .unwrap()
            .into_iter()
            .map(Record::into_payload)
            .collect();
        assert_eq!(payloads, vec![100, 1, 2, 3, 4, 5, 6]);
        // Empty batches append nothing and return the empty end range.
        let empty = producer.send_batch("t", 0, vec![]).unwrap();
        assert_eq!(empty, 7..7);
        assert_eq!(broker.partition_len("t", 0), 7);
    }

    #[test]
    fn admin_append_batch_bypasses_fencing_and_wakes_consumers() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let consumer = broker.consumer(c(2), "t", 0).unwrap();
        // Fence the producing component: its own producer fails, the admin
        // batch (reconciliation re-homing) does not.
        let producer = broker.producer(c(1));
        broker.fence(c(1));
        assert!(producer
            .send_batch("t", 0, vec![1])
            .unwrap_err()
            .is_fenced());
        let admin_broker = broker.clone();
        let admin = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            admin_broker
                .admin_append_batch("t", 0, vec![7, 8, 9])
                .unwrap()
        });
        // A parked consumer is woken once by the whole batch.
        let records = consumer.poll_wait(10, Duration::from_secs(5)).unwrap();
        let range = admin.join().unwrap();
        assert_eq!(range, 0..3);
        let payloads: Vec<u32> = records.into_iter().map(Record::into_payload).collect();
        assert!(!payloads.is_empty() && payloads.iter().all(|p| [7, 8, 9].contains(p)));
        // Empty admin batch is a no-op.
        assert_eq!(broker.admin_append_batch("t", 0, vec![]).unwrap(), 3..3);
        assert_eq!(broker.partition_len("t", 0), 3);
    }

    #[test]
    fn concurrent_appends_to_distinct_partitions_do_not_serialize() {
        // With per-partition acks, 4 threads x 25 appends at 1ms ack latency
        // overlap across partitions: well under the 100ms a serial broker
        // would need per thread. Generous bound for CI noise.
        let config = BrokerConfig {
            append_latency: Duration::from_millis(1),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 4).unwrap();
        let started = Instant::now();
        let threads: Vec<_> = (0..4)
            .map(|p| {
                let broker = broker.clone();
                std::thread::spawn(move || {
                    let producer = broker.producer(c(p as u64 + 1));
                    for i in 0..25 {
                        producer.send("t", p, i).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let elapsed = started.elapsed();
        for p in 0..4 {
            assert_eq!(broker.partition_len("t", p), 25);
        }
        assert!(
            elapsed < Duration::from_millis(250),
            "4x25 appends at 1ms ack took {elapsed:?}; partitions are serializing"
        );
    }

    #[test]
    fn retention_expires_oldest_records() {
        let config = BrokerConfig {
            max_partition_records: 3,
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        for i in 0..10 {
            producer.send("t", 0, i).unwrap();
        }
        // Size-based retention keeps the newest 3 records.
        assert_eq!(broker.partition_len("t", 0), 3);
        let payloads: Vec<u32> = broker
            .read_partition("t", 0)
            .into_iter()
            .map(Record::into_payload)
            .collect();
        assert_eq!(payloads, vec![7, 8, 9]);
        assert_eq!(broker.log_start("t", 0), 7);
        assert_eq!(broker.expire_now(), 0);
    }

    #[test]
    fn trim_before_is_fenced_like_an_append() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        producer.send_batch("t", 0, (0..10).collect()).unwrap();
        assert_eq!(producer.trim_before("t", 0, 4).unwrap(), 4);
        assert_eq!(broker.log_start("t", 0), 4);
        assert_eq!(broker.partition_len("t", 0), 6);
        // A consumer positioned inside the trimmed prefix resumes at the
        // first live record.
        let consumer = broker.consumer(c(2), "t", 0).unwrap();
        let polled: Vec<u64> = consumer.poll(2).unwrap().iter().map(|r| r.offset).collect();
        assert_eq!(polled, vec![4, 5]);
        // Once the component is declared failed, its stale producer can no
        // longer delete records reconciliation is about to catalogue.
        broker.fence(c(1));
        assert!(producer.trim_before("t", 0, 8).unwrap_err().is_fenced());
        assert_eq!(broker.log_start("t", 0), 4);
        assert_eq!(broker.partition_len("t", 0), 6);
        // A producer opened at the new epoch trims again.
        assert_eq!(broker.producer(c(1)).trim_before("t", 0, 8).unwrap(), 4);
        assert!(producer.trim_before("missing", 0, 1).is_err());
    }

    #[test]
    fn log_start_tracks_expiry_trim_and_truncation() {
        let config = BrokerConfig {
            retention: Duration::from_millis(10),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 2).unwrap();
        let producer = broker.producer(c(1));
        assert_eq!(broker.log_start("t", 0), 0);
        assert_eq!(broker.log_start("missing", 0), 0);
        producer.send_batch("t", 0, (0..6).collect()).unwrap();
        assert_eq!(broker.log_start("t", 0), 0);
        // Trim: the watermark is the cut; below the start is a no-op and
        // past the end clamps to the end.
        producer.trim_before("t", 0, 2).unwrap();
        assert_eq!(broker.log_start("t", 0), 2);
        assert_eq!(producer.trim_before("t", 0, 1).unwrap(), 0);
        assert_eq!(broker.log_start("t", 0), 2);
        // Time-based expiry (here: run by the coordinator tick on an idle
        // partition) drops the rest: an empty log starts at its end.
        std::thread::sleep(Duration::from_millis(20));
        broker.tick();
        assert_eq!(broker.log_start("t", 0), 6);
        assert_eq!(broker.partition_len("t", 0), 0);
        // Expiry riding an append publishes the watermark too.
        producer.send("t", 0, 6).unwrap();
        assert_eq!(broker.log_start("t", 0), 6);
        // Truncation jumps the watermark to the end; offsets keep growing.
        producer.send("t", 0, 7).unwrap();
        assert_eq!(broker.truncate_partition("t", 0), 2);
        assert_eq!(broker.log_start("t", 0), 8);
        assert_eq!(producer.trim_before("t", 0, 100).unwrap(), 0);
        assert_eq!(producer.send("t", 0, 8).unwrap(), 8);
        assert_eq!(broker.log_start("t", 0), 8);
        // Partitions are independent.
        assert_eq!(broker.log_start("t", 1), 0);
    }

    #[test]
    fn tick_expires_idle_partitions() {
        // Retention must not depend on new appends: the runtime's aged
        // retry bookkeeping assumes idle partitions also honour it.
        let config = BrokerConfig {
            retention: Duration::from_millis(10),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        for i in 0..3 {
            producer.send("t", 0, i).unwrap();
        }
        assert_eq!(broker.partition_len("t", 0), 3);
        std::thread::sleep(Duration::from_millis(25));
        broker.tick();
        assert_eq!(
            broker.partition_len("t", 0),
            0,
            "idle partition kept records past retention"
        );
        assert_eq!(broker.log_start("t", 0), 3);
    }

    #[test]
    fn ready_tracks_appends_polls_and_fences_without_locks() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let consumer = broker.consumer(c(1), "t", 0).unwrap();
        assert!(!consumer.ready(), "empty partition must not read as ready");
        let producer = broker.producer(c(2));
        producer.send("t", 0, 7).unwrap();
        assert!(consumer.ready(), "append must flip ready");
        assert_eq!(consumer.poll(10).unwrap().len(), 1);
        assert!(!consumer.ready(), "drained consumer must not stay ready");
        producer.send_batch("t", 0, vec![8, 9]).unwrap();
        assert!(consumer.ready(), "batch append must flip ready");
        consumer.poll(10).unwrap();
        // A fenced partition reads as ready so sweepers observe the fence
        // (the next poll fails) instead of parking on a dead consumer.
        broker.fence_partition("t", 0).unwrap();
        assert!(consumer.ready(), "fence must flip ready");
        assert!(consumer.poll(10).unwrap_err().is_fenced());
    }

    #[test]
    fn empty_poll_skips_past_expired_backlog() {
        // Records between the consumer position and the end offset can
        // vanish wholesale (retention, truncation). An empty poll must then
        // advance the position past the gap, or `ready()` would report a
        // phantom backlog forever.
        let config = BrokerConfig {
            retention: Duration::from_millis(5),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 1).unwrap();
        let consumer = broker.consumer(c(1), "t", 0).unwrap();
        let producer = broker.producer(c(2));
        for i in 0..3 {
            producer.send("t", 0, i).unwrap();
        }
        std::thread::sleep(Duration::from_millis(15));
        broker.tick(); // expires all three records
        assert!(consumer.ready(), "hint still points at the dead backlog");
        assert!(consumer.poll(10).unwrap().is_empty());
        assert_eq!(consumer.position(), 3, "position must skip the gap");
        assert!(!consumer.ready(), "phantom backlog must clear");
        // New appends land past the gap and are still delivered.
        producer.send("t", 0, 9).unwrap();
        assert!(consumer.ready());
        let records = consumer.poll(10).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(*records[0].payload, 9);
    }

    #[test]
    fn group_membership_failure_detection_and_rebalance() {
        // Ticked by hand every 10 ms below: a coordinator interval to match,
        // or every tick would look like a stalled process's.
        let broker: Broker<u32> = Broker::new(BrokerConfig {
            coordinator_interval: Duration::from_millis(20),
            ..BrokerConfig::fast()
        });
        let events = broker.subscribe("g");
        broker.join_group("g", c(1), PartitionSet::contiguous(0, 1));
        broker.join_group("g", c(2), PartitionSet::contiguous(1, 1));
        // Both joins visible.
        assert_eq!(broker.group_view("g").members.len(), 2);
        // Wait out the stabilization window, then tick to complete the join
        // rebalance.
        std::thread::sleep(Duration::from_millis(30));
        broker.tick();
        let view = broker.group_view("g");
        assert_eq!(view.generation, 1);
        assert_eq!(view.live_components(), vec![c(1), c(2)]);

        // Component 2 stops heartbeating; component 1 keeps heartbeating.
        for _ in 0..12 {
            broker.heartbeat("g", c(1)).unwrap();
            std::thread::sleep(Duration::from_millis(10));
            broker.tick();
        }
        let view = broker.group_view("g");
        assert_eq!(view.generation, 2);
        assert_eq!(view.live_components(), vec![c(1)]);
        // The failed member is fenced at the broker.
        assert_eq!(broker.current_epoch(c(2)), Epoch::from_raw(1));
        assert!(broker.heartbeat("g", c(2)).unwrap_err().is_fenced());

        // The event stream contains join, failure detection and rebalances in
        // a sensible order.
        let collected: Vec<GroupEvent> = events.try_iter().collect();
        assert!(collected.iter().any(
            |e| matches!(e, GroupEvent::MemberJoined { component, .. } if *component == c(1))
        ));
        let detect_at = collected.iter().find_map(|e| match e {
            GroupEvent::FailureDetected { component, at } if *component == c(2) => Some(*at),
            _ => None,
        });
        let rebalance_at = collected.iter().rev().find_map(|e| match e {
            GroupEvent::RebalanceCompleted { removed, at, .. } if removed.contains(&c(2)) => {
                Some(*at)
            }
            _ => None,
        });
        let detect_at = detect_at.expect("failure detected");
        let rebalance_at = rebalance_at.expect("rebalance completed");
        assert!(rebalance_at >= detect_at);
    }

    #[test]
    fn update_member_partitions_refreshes_the_group_view() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::fast());
        broker.join_group("g", c(1), PartitionSet::contiguous(0, 4));
        let mut grown = PartitionSet::contiguous(0, 4);
        grown.adopt([8, 9]);
        broker.update_member_partitions("g", c(1), grown.clone());
        assert_eq!(broker.group_view("g").partitions_of(c(1)), Some(grown));
        // Membership and generation are untouched; unknown targets no-op.
        assert_eq!(broker.group_view("g").generation, 0);
        broker.update_member_partitions("g", c(9), PartitionSet::contiguous(0, 1));
        broker.update_member_partitions("nope", c(1), PartitionSet::contiguous(0, 1));
        assert_eq!(broker.group_view("g").members.len(), 1);
    }

    #[test]
    fn heartbeat_on_unknown_group_or_member_fails() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::fast());
        assert!(broker.heartbeat("nope", c(1)).is_err());
        broker.join_group("g", c(1), PartitionSet::contiguous(0, 1));
        assert!(broker.heartbeat("g", c(2)).is_err());
        assert!(broker.heartbeat("g", c(1)).is_ok());
    }

    #[test]
    fn leave_group_triggers_rebalance_without_failure() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::fast());
        let events = broker.subscribe("g");
        broker.join_group("g", c(1), PartitionSet::contiguous(0, 1));
        broker.join_group("g", c(2), PartitionSet::contiguous(1, 1));
        std::thread::sleep(Duration::from_millis(30));
        broker.tick();
        broker.leave_group("g", c(2));
        broker.leave_group("g", c(99)); // unknown member: no-op
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(10));
            broker.heartbeat("g", c(1)).unwrap();
            broker.tick();
        }
        let view = broker.group_view("g");
        assert_eq!(view.live_components(), vec![c(1)]);
        let collected: Vec<GroupEvent> = events.try_iter().collect();
        assert!(collected
            .iter()
            .any(|e| matches!(e, GroupEvent::MemberLeft { component, .. } if *component == c(2))));
        assert!(!collected.iter().any(
            |e| matches!(e, GroupEvent::FailureDetected { component, .. } if *component == c(2))
        ));
        // A graceful leave is not fenced.
        assert_eq!(broker.current_epoch(c(2)), Epoch::ZERO);
    }

    #[test]
    fn background_coordinator_detects_failures() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::fast());
        broker.spawn_coordinator();
        let events = broker.subscribe("g");
        broker.join_group("g", c(1), PartitionSet::contiguous(0, 1));
        // Never heartbeat: the coordinator should detect the failure and
        // complete a rebalance on its own.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut saw_rebalance_removing_1 = false;
        while Instant::now() < deadline && !saw_rebalance_removing_1 {
            if let Ok(GroupEvent::RebalanceCompleted { removed, .. }) =
                events.recv_timeout(Duration::from_millis(100))
            {
                if removed.contains(&c(1)) {
                    saw_rebalance_removing_1 = true;
                }
            }
        }
        broker.shutdown();
        assert!(
            saw_rebalance_removing_1,
            "coordinator never removed the dead member"
        );
    }

    #[test]
    fn poll_wait_wakes_on_append_and_times_out_when_idle() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let consumer = broker.consumer(c(2), "t", 0).unwrap();

        // Idle partition: poll_wait returns empty after the timeout.
        let t0 = Instant::now();
        assert!(consumer
            .poll_wait(10, Duration::from_millis(20))
            .unwrap()
            .is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(20));

        // A concurrent append wakes the parked consumer well before the
        // timeout.
        let producer_broker = broker.clone();
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            producer_broker.producer(c(1)).send("t", 0, 7).unwrap();
        });
        let t0 = Instant::now();
        let records = consumer.poll_wait(10, Duration::from_secs(5)).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(*records[0].payload, 7);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "poll_wait slept past the append"
        );
        producer.join().unwrap();

        // Records already present are returned without waiting.
        consumer.seek(0);
        let t0 = Instant::now();
        assert_eq!(
            consumer
                .poll_wait(10, Duration::from_secs(5))
                .unwrap()
                .len(),
            1
        );
        assert!(t0.elapsed() < Duration::from_millis(100));

        // admin_append (used by reconciliation to re-home requests) also
        // wakes parked consumers.
        let admin_broker = broker.clone();
        let admin = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            admin_broker.admin_append("t", 0, 8).unwrap();
        });
        let records = consumer.poll_wait(10, Duration::from_secs(5)).unwrap();
        assert_eq!(*records[0].payload, 8);
        admin.join().unwrap();
    }

    #[test]
    fn wait_group_wakes_on_any_member_append() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 4).unwrap();
        let consumers: Vec<Consumer<u32>> = (0..4)
            .map(|p| broker.consumer(c(1), "t", p).unwrap())
            .collect();
        let group = Arc::new(WaitSignalGroup::new());
        for consumer in &consumers {
            consumer.join_wait_group(&group);
        }
        assert_eq!(group.member_count(), 4);
        // Re-joining is a no-op.
        consumers[0].join_wait_group(&group);
        assert_eq!(group.member_count(), 4);

        // An append to ANY member partition wakes a group waiter promptly —
        // including one the waiter last swept long ago.
        for target in [3usize, 1, 2, 0] {
            let seen = group.current();
            let producer_broker = broker.clone();
            let producer = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                producer_broker
                    .producer(c(2))
                    .send("t", target, target as u32)
                    .unwrap();
            });
            let t0 = Instant::now();
            group.wait(seen, Duration::from_secs(5));
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "group waiter slept through an append to member partition {target}"
            );
            producer.join().unwrap();
            let records = consumers[target].poll(10).unwrap();
            assert_eq!(records.len(), 1);
        }

        // Detached members stop notifying the group.
        consumers[0].leave_wait_group(&group);
        assert_eq!(group.member_count(), 3);
        let seen = group.current();
        broker.producer(c(2)).send("t", 0, 9).unwrap();
        let t0 = Instant::now();
        group.wait(seen, Duration::from_millis(30));
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "a detached partition still notified the group"
        );
        // Double-leave is a no-op.
        consumers[0].leave_wait_group(&group);
        assert_eq!(group.member_count(), 3);
    }

    #[test]
    fn wait_group_is_notified_by_admin_appends_and_fences() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 2).unwrap();
        let consumer = broker.consumer(c(1), "t", 1).unwrap();
        let group = Arc::new(WaitSignalGroup::new());
        consumer.join_wait_group(&group);

        // Reconciliation's admin batch wakes the group.
        let seen = group.current();
        broker.admin_append_batch("t", 1, vec![1, 2]).unwrap();
        let t0 = Instant::now();
        group.wait(seen, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_millis(100));

        // A partition fence wakes the group so the consumer observes its
        // fencing promptly instead of sleeping out its park.
        let seen = group.current();
        broker.fence_partition("t", 1).unwrap();
        let t0 = Instant::now();
        group.wait(seen, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert!(consumer.poll(1).unwrap_err().is_fenced());
    }

    #[test]
    fn poll_wait_propagates_fencing() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let consumer = broker.consumer(c(1), "t", 0).unwrap();
        broker.fence(c(1));
        assert!(consumer
            .poll_wait(1, Duration::from_millis(5))
            .unwrap_err()
            .is_fenced());
    }

    #[test]
    fn latency_injection_slows_send_and_poll() {
        let config = BrokerConfig {
            append_latency: Duration::from_millis(5),
            deliver_latency: Duration::from_millis(5),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        let consumer = broker.consumer(c(1), "t", 0).unwrap();
        let t0 = Instant::now();
        producer.send("t", 0, 1).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(4),
            "the ack was not waited for"
        );
        // Acknowledged is not yet readable: a poll never waits, and never
        // returns a record before its delivery latency has elapsed.
        assert!(consumer.poll(1).unwrap().is_empty());
        assert!(!consumer.ready());
        let records = consumer.poll_wait(1, Duration::from_secs(5)).unwrap();
        assert_eq!(records.len(), 1);
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn injected_latency_spikes_delay_the_due_time_instead_of_sleeping() {
        use kar_types::{FaultInjector, FaultPlan, FaultSpec};

        let clock = Arc::new(kar_types::VirtualClock::new());
        kar_types::install_virtual_clock(Arc::clone(&clock));
        let (ack, spike) = (Duration::from_millis(2), Duration::from_millis(7));
        let spec = FaultSpec::NONE.with_spike(1.0, spike).with_budget(1);
        let plan = FaultPlan::new(7)
            .with_site(FaultSite::BrokerAppend, spec)
            .with_site(FaultSite::ConsumerPoll, spec);
        let broker: Broker<u32> = Broker::new(BrokerConfig {
            append_latency: ack,
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(c(1));
        let consumer = broker.consumer(c(2), "t", 0).unwrap();
        // The spiked submit reaches the partition one spike late, so its ack
        // is due one spike late — and nobody slept for it.
        let t = clock.now();
        let spiked = producer.submit_round("t", vec![(0, vec![1])]).unwrap();
        assert_eq!(spiked.due, Some(t + spike + ack));
        assert_eq!(clock.now(), t);
        // Budget spent: the next append queues behind it, unspiked.
        let next = producer.submit_round("t", vec![(0, vec![2])]).unwrap();
        assert_eq!(next.due, Some(t + spike + ack * 2));
        // A spiked poll returns nothing and holds the consumer back for the
        // spike; the poll after it is the same read, arriving late.
        clock.advance(Duration::from_millis(20));
        let t = clock.now();
        assert!(consumer.ready());
        assert!(consumer.poll(10).unwrap().is_empty());
        assert!(!consumer.ready());
        assert_eq!(consumer.next_visible_at(), Some(t + spike));
        clock.advance(spike - Duration::from_nanos(1));
        assert!(consumer.poll(10).unwrap().is_empty());
        clock.advance(Duration::from_nanos(1));
        assert!(consumer.ready());
        assert_eq!(consumer.poll(10).unwrap().len(), 2);
        assert_eq!(consumer.next_visible_at(), None);
        kar_types::clear_virtual_clock();
    }

    /// A broker on this thread's virtual clock with one member that joined
    /// at time zero, ticked once to start the coordinator's own cadence.
    fn detector_rig() -> (Arc<kar_types::VirtualClock>, Broker<u32>) {
        let clock = Arc::new(kar_types::VirtualClock::new());
        kar_types::install_virtual_clock(Arc::clone(&clock));
        let broker: Broker<u32> = Broker::new(BrokerConfig {
            session_timeout: Duration::from_millis(50),
            coordinator_interval: Duration::from_millis(2),
            ..BrokerConfig::default()
        });
        broker.join_group("g", c(1), PartitionSet::contiguous(0, 1));
        broker.tick();
        (clock, broker)
    }

    #[test]
    fn a_stalled_coordinator_suspects_but_never_fences_a_member_that_heartbeats_next() {
        let (clock, broker) = detector_rig();
        // The whole process is descheduled for 100 ms — twice the session
        // timeout: coordinator and heartbeats alike. The tick that runs
        // first afterwards sees a stale member *and* its own 100 ms gap.
        clock.advance(Duration::from_millis(100));
        broker.tick();
        assert_eq!(broker.current_epoch(c(1)), Epoch::ZERO, "fenced on a stall");
        assert!(broker.group_view("g").is_live(c(1)));
        // The member's timer gets to run too; the next tick finds it fresh.
        broker.heartbeat("g", c(1)).unwrap();
        clock.advance(Duration::from_millis(2));
        broker.tick();
        assert!(broker.group_view("g").is_live(c(1)));
        // Even without that heartbeat, a second stall in a row confirms
        // nothing: only a tick on cadence may.
        clock.advance(Duration::from_millis(100));
        broker.tick();
        clock.advance(Duration::from_millis(100));
        broker.tick();
        assert_eq!(broker.current_epoch(c(1)), Epoch::ZERO);
        kar_types::clear_virtual_clock();
    }

    #[test]
    fn a_dead_member_is_fenced_one_tick_after_it_goes_stale() {
        let (clock, broker) = detector_rig();
        let events = broker.subscribe("g");
        // The coordinator ticks on cadence; the member never heartbeats.
        let mut fenced_at = None;
        let mut first_stale_tick = None;
        for _ in 0..40 {
            clock.advance(Duration::from_millis(2));
            broker.tick();
            let now = broker.now();
            if now > Duration::from_millis(50) && first_stale_tick.is_none() {
                first_stale_tick = Some(now);
            }
            if broker.current_epoch(c(1)) != Epoch::ZERO {
                fenced_at = Some(now);
                break;
            }
        }
        let (stale, fenced) = (first_stale_tick.unwrap(), fenced_at.expect("never fenced"));
        assert_eq!(
            fenced - stale,
            Duration::from_millis(2),
            "suspected at {stale:?}, so confirmed exactly one interval later"
        );
        assert!(events.try_iter().any(
            |e| matches!(e, GroupEvent::FailureDetected { component, at } if component == c(1) && at == fenced)
        ));
        assert!(broker.heartbeat("g", c(1)).unwrap_err().is_fenced());
        kar_types::clear_virtual_clock();
    }

    #[test]
    fn assignment_table_tracks_partition_sets_and_grows_topics() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        assert!(broker.assignment("t", c(1)).is_none());
        assert!(broker
            .assign_partitions("t", c(1), PartitionSet::default())
            .is_err());
        broker
            .assign_partitions("t", c(1), PartitionSet::contiguous(0, 4))
            .unwrap();
        broker
            .assign_partitions("t", c(2), PartitionSet::contiguous(4, 2))
            .unwrap();
        // The topic grew to cover the highest assigned partition.
        assert_eq!(broker.partition_count("t"), 6);
        assert_eq!(
            broker.assignment("t", c(1)),
            Some(PartitionSet::contiguous(0, 4))
        );
        let table = broker.topic_assignments("t");
        assert_eq!(table.len(), 2);
        assert_eq!(table[&c(2)], PartitionSet::contiguous(4, 2));
        // Reassignment: component 2's range moves into component 1's set as
        // adopted partitions.
        let freed = broker.unassign_partitions("t", c(2)).unwrap();
        let mut merged = broker.assignment("t", c(1)).unwrap();
        merged.adopt(freed.all());
        broker.assign_partitions("t", c(1), merged.clone()).unwrap();
        assert_eq!(broker.assignment("t", c(1)), Some(merged));
        assert!(broker.unassign_partitions("t", c(2)).is_none());
        assert!(broker.topic_assignments("missing").is_empty());
    }

    #[test]
    fn fence_partition_cuts_off_consumers_opened_under_the_old_assignment() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 2).unwrap();
        let producer = broker.producer(c(1));
        producer.send("t", 0, 1).unwrap();

        // A consumer opened before the fence: reads fine, then is cut off.
        let stale = broker.consumer(c(2), "t", 0).unwrap();
        assert_eq!(stale.poll(10).unwrap().len(), 1);
        assert_eq!(broker.partition_epoch("t", 0), Epoch::ZERO);
        let epoch = broker.fence_partition("t", 0).unwrap();
        assert_eq!(epoch, Epoch::from_raw(1));
        assert_eq!(broker.partition_epoch("t", 0), epoch);
        let err = stale.poll(10).unwrap_err();
        assert!(err.is_fenced(), "stale consumer not fenced: {err:?}");

        // The new owner's consumer (opened after the fence) works, and the
        // component-level epoch is untouched: producers keep producing, the
        // sibling partition's consumers keep consuming.
        let fresh = broker.consumer(c(3), "t", 0).unwrap();
        producer.send("t", 0, 2).unwrap();
        assert_eq!(fresh.poll(10).unwrap().len(), 2);
        assert_eq!(broker.current_epoch(c(2)), Epoch::ZERO);
        let sibling = broker.consumer(c(2), "t", 1).unwrap();
        producer.send("t", 1, 3).unwrap();
        assert_eq!(sibling.poll(10).unwrap().len(), 1);
        assert!(broker.fence_partition("missing", 0).is_err());
    }

    #[test]
    fn fence_partition_wakes_parked_consumers() {
        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let consumer = broker.consumer(c(1), "t", 0).unwrap();
        let fencer = broker.clone();
        let fence = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            fencer.fence_partition("t", 0).unwrap();
        });
        let t0 = Instant::now();
        let result = consumer.poll_wait(10, Duration::from_secs(5));
        assert!(result.unwrap_err().is_fenced());
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "parked consumer slept through the partition fence"
        );
        fence.join().unwrap();
    }

    /// Groups keyed `entries` by the home partition of `set` each key hashes
    /// to — the routing a sender applies ahead of a produce round — keeping
    /// the entry order inside each group.
    fn keyed_groups<T>(set: &PartitionSet, entries: Vec<(String, T)>) -> Vec<(usize, Vec<T>)> {
        let mut groups: Vec<(usize, Vec<T>)> = Vec::new();
        for (key, payload) in entries {
            let partition = set.partition_for_key(&key).expect("a home set");
            match groups.iter_mut().find(|(p, _)| *p == partition) {
                Some((_, group)) => group.push(payload),
                None => groups.push((partition, vec![payload])),
            }
        }
        groups
    }

    #[test]
    fn keyed_sends_route_by_key_over_the_home_set() {
        let broker: Broker<String> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 8).unwrap();
        let mut set = PartitionSet::contiguous(0, 4);
        set.adopt([6, 7]);
        let producer = broker.producer(c(1));
        let mut touched = std::collections::HashSet::new();
        for i in 0..64 {
            let key = format!("Ledger/a{i}");
            let partition = set.partition_for_key(&key).unwrap();
            assert!(set.home().contains(&partition), "routed off the home set");
            producer.send("t", partition, format!("m{i}")).unwrap();
            // Same key, same partition, every time.
            assert_eq!(set.partition_for_key(&key), Some(partition));
            touched.insert(partition);
        }
        assert_eq!(
            touched.len(),
            4,
            "keys should spread over all 4 home partitions"
        );
        // Adopted partitions never receive hashed traffic.
        assert_eq!(broker.partition_len("t", 6), 0);
        assert_eq!(broker.partition_len("t", 7), 0);
        assert_eq!(PartitionSet::default().partition_for_key("k"), None);
    }

    #[test]
    fn a_keyed_round_splits_across_partitions_with_contiguous_offsets() {
        let broker: Broker<String> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 4).unwrap();
        let set = PartitionSet::contiguous(0, 4);
        let producer = broker.producer(c(1));
        // Pre-existing records offset the logs so contiguity is non-trivial.
        for seed in ["seed-a", "seed-b"] {
            let partition = set.partition_for_key(seed).unwrap();
            producer.send("t", partition, "s".into()).unwrap();
        }

        let entries: Vec<(String, String)> = (0..32)
            .map(|i| (format!("k{}", i % 8), format!("v{i}")))
            .collect();
        let ranges = producer
            .send_round("t", keyed_groups(&set, entries.clone()))
            .unwrap();
        assert!(ranges.len() > 1, "8 keys over 4 partitions must split");
        let mut total = 0;
        for (partition, range) in &ranges {
            assert!(set.home().contains(partition));
            // The range is contiguous and its records are really there.
            assert!(range.end >= range.start);
            total += (range.end - range.start) as usize;
            assert_eq!(broker.end_offset("t", *partition), range.end);
        }
        assert_eq!(total, entries.len(), "batch records lost or duplicated");
        // Per-partition relative order matches the entry order: replay the
        // routing and compare payload sequences.
        for (partition, range) in &ranges {
            let expected: Vec<String> = entries
                .iter()
                .filter(|(key, _)| set.partition_for_key(key) == Some(*partition))
                .map(|(_, payload)| payload.clone())
                .collect();
            let got: Vec<String> = broker
                .read_partition("t", *partition)
                .into_iter()
                .filter(|r| r.offset >= range.start)
                .map(Record::into_payload)
                .collect();
            assert_eq!(got, expected, "partition {partition} order broken");
        }
        // Empty batch: no ranges, nothing appended.
        let empty: Vec<(String, String)> = Vec::new();
        assert!(producer
            .send_round("t", keyed_groups(&set, empty))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn send_round_appends_every_group_contiguously_for_one_ack() {
        // Under a virtual clock a modelled ack *advances* the clock, so the
        // number of acks a call paid is read off exactly.
        let clock = Arc::new(kar_types::VirtualClock::new());
        kar_types::install_virtual_clock(Arc::clone(&clock));
        let ack = Duration::from_millis(2);
        let config = BrokerConfig {
            append_latency: ack,
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 4).unwrap();
        let producer = broker.producer(c(1));
        let consumers: Vec<Consumer<u32>> = (0..4)
            .map(|p| broker.consumer(c(2), "t", p).unwrap())
            .collect();
        // Groups listed out of partition order, on logs of different lengths.
        producer.send("t", 2, 100).unwrap();
        let before = clock.now();
        let ranges = producer
            .send_round(
                "t",
                vec![
                    (3, vec![30, 31]),
                    (0, vec![1]),
                    (2, vec![20, 21, 22]),
                    (1, vec![]),
                ],
            )
            .unwrap();
        assert_eq!(clock.now() - before, ack, "three partitions, one ack");
        assert_eq!(ranges, vec![(3, 0..2), (0, 0..1), (2, 1..4), (1, 0..0)]);
        let payloads = |p: usize| -> Vec<u32> {
            broker
                .read_partition("t", p)
                .into_iter()
                .map(Record::into_payload)
                .collect()
        };
        assert_eq!(payloads(0), vec![1]);
        assert!(payloads(1).is_empty());
        assert_eq!(payloads(2), vec![100, 20, 21, 22]);
        assert_eq!(payloads(3), vec![30, 31]);
        // Every touched partition's consumers are notified; the empty
        // group's partition does not read as ready.
        for p in [0, 2, 3] {
            assert!(consumers[p].ready(), "partition {p} was not notified");
        }
        assert!(!consumers[1].ready());
        // send_batch is the one-partition round; the keyed batch is one
        // round however many partitions its keys hash to.
        let before = clock.now();
        assert_eq!(producer.send_batch("t", 1, vec![7, 8]).unwrap(), 0..2);
        assert_eq!(clock.now() - before, ack);
        let before = clock.now();
        let set = PartitionSet::contiguous(0, 4);
        let entries: Vec<(String, u32)> = (0..16).map(|i| (format!("k{i}"), i)).collect();
        let keyed = producer
            .send_round("t", keyed_groups(&set, entries))
            .unwrap();
        assert!(keyed.len() > 1, "16 keys over 4 partitions must split");
        assert_eq!(clock.now() - before, ack);
        // A round of only empty groups appends nothing and pays no ack.
        let (before, end) = (clock.now(), broker.end_offset("t", 2));
        assert_eq!(
            producer.send_round("t", vec![(2, vec![])]).unwrap(),
            vec![(2, end..end)]
        );
        assert!(producer.send_round("t", vec![]).unwrap().is_empty());
        assert_eq!(clock.now(), before);
        kar_types::clear_virtual_clock();
    }

    #[test]
    fn send_round_is_all_or_nothing() {
        use kar_types::{FaultInjector, FaultPlan, FaultSpec};

        let broker: Broker<u32> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 3).unwrap();
        let producer = broker.producer(c(1));
        let total =
            |broker: &Broker<u32>| -> usize { (0..3).map(|p| broker.partition_len("t", p)).sum() };
        // An unknown partition or a partition listed twice: nothing lands.
        assert!(producer
            .send_round("t", vec![(0, vec![1]), (7, vec![2])])
            .is_err());
        assert!(producer
            .send_round("t", vec![(1, vec![1]), (0, vec![2]), (1, vec![3])])
            .is_err());
        assert_eq!(total(&broker), 0);
        // A fenced producer appends nothing anywhere.
        broker.fence(c(1));
        let err = producer
            .send_round("t", vec![(0, vec![1]), (2, vec![2])])
            .unwrap_err();
        assert!(err.is_fenced(), "got {err:?}");
        assert_eq!(total(&broker), 0);

        // A transient gate on the round's *last* partition: the earlier
        // partitions' gates passed, and still nothing is appended anywhere.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::transient(1.0).with_budget(1),
        );
        let injector = Arc::new(FaultInjector::new(plan));
        let config = BrokerConfig {
            faults: Some(injector.clone()),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 3).unwrap();
        let producer = broker.producer(c(1));
        // Spend nothing yet: budget 1 fires on the first draw, so make the
        // first two partitions' draws happen on a round that fails there,
        // then check a later round goes through whole.
        let err = producer
            .send_round("t", vec![(2, vec![1]), (0, vec![2]), (1, vec![3])])
            .unwrap_err();
        assert!(matches!(err, KarError::Queue(_)), "got {err:?}");
        assert_eq!(total(&broker), 0, "a failed round left records behind");
        assert_eq!(
            injector.counters().site(FaultSite::BrokerAppend).transient,
            1
        );
        producer
            .send_round("t", vec![(2, vec![1]), (0, vec![2]), (1, vec![3])])
            .unwrap();
        assert_eq!(total(&broker), 3);

        // An ack-lost round is appended whole — every group — and reported
        // failed: the replay duplicates all of it, never a part.
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BrokerAppend,
            FaultSpec::NONE.with_ack_lost(1.0).with_budget(1),
        );
        let config = BrokerConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 3).unwrap();
        let producer = broker.producer(c(1));
        assert!(producer
            .send_round("t", vec![(0, vec![1, 2]), (2, vec![3])])
            .is_err());
        assert_eq!(broker.partition_len("t", 0), 2);
        assert_eq!(broker.partition_len("t", 2), 1);
    }

    #[test]
    fn rounds_over_overlapping_partitions_in_opposite_order_never_deadlock() {
        // Two producers, each listing the same two partitions in the
        // opposite order, hammering rounds at each other with an ack that
        // keeps both locks held long enough to interleave. Acquisition is by
        // ascending index whatever the listing order, so this finishes; a
        // listing-order implementation deadlocks within a few rounds.
        let config = BrokerConfig {
            append_latency: Duration::from_micros(200),
            ..BrokerConfig::default()
        };
        let broker: Broker<u32> = Broker::new(config);
        broker.create_topic("t", 2).unwrap();
        const ROUNDS: u32 = 200;
        const TAG: u32 = 10_000;
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for (id, order) in [(1u64, [0usize, 1]), (2, [1, 0])] {
            let broker = broker.clone();
            let barrier = Arc::clone(&barrier);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                let producer = broker.producer(c(id));
                barrier.wait();
                for round in 0..ROUNDS {
                    let value = id as u32 * TAG + round;
                    producer
                        .send_round(
                            "t",
                            vec![(order[0], vec![value]), (order[1], vec![value, value])],
                        )
                        .unwrap();
                }
                let _ = done.send(id);
            });
        }
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("two producers sending opposite-order rounds deadlocked");
        }
        // Producer 1's pairs land on partition 1, producer 2's on partition
        // 0 (tagged with the producer id): every pair group stayed adjacent.
        for (partition, pairs_of) in [(0usize, 2u32), (1, 1)] {
            let payloads: Vec<u32> = broker
                .read_partition("t", partition)
                .into_iter()
                .map(Record::into_payload)
                .collect();
            assert_eq!(payloads.len(), (ROUNDS * 3) as usize);
            let mut index = 0;
            while index < payloads.len() {
                if payloads[index] / TAG == pairs_of {
                    assert_eq!(
                        payloads.get(index + 1),
                        Some(&payloads[index]),
                        "partition {partition}: a group was split at {index}"
                    );
                    index += 2;
                } else {
                    index += 1;
                }
            }
        }
    }

    /// The obviously-correct broker the real one is checked against: per
    /// partition, the live payloads and the offset of the first of them.
    struct ModelBroker {
        live: Vec<Vec<u32>>,
        start: Vec<u64>,
    }

    impl ModelBroker {
        fn end(&self, partition: usize) -> u64 {
            self.start[partition] + self.live[partition].len() as u64
        }

        fn append(&mut self, partition: usize, payloads: &[u32]) -> Range<u64> {
            let first = self.end(partition);
            self.live[partition].extend_from_slice(payloads);
            first..self.end(partition)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random interleavings of single sends, batches, multi-partition
        /// rounds (groups listed in either order, some empty, some naming a
        /// partition twice), trims and fences agree with the naive model:
        /// same ranges, same logs, same watermarks — and a failed operation
        /// changes nothing anywhere.
        #[test]
        fn broker_matches_the_naive_model_under_rounds(
            ops in proptest::collection::vec((0u8..8, 0u64..64, 0usize..6), 1..80),
        ) {
            use proptest::prelude::*;
            const PARTITIONS: usize = 3;
            let broker: Broker<u32> = Broker::new(BrokerConfig::default());
            broker.create_topic("t", PARTITIONS).unwrap();
            let mut producer = broker.producer(c(1));
            let mut fenced = false;
            let mut model = ModelBroker {
                live: vec![Vec::new(); PARTITIONS],
                start: vec![0; PARTITIONS],
            };
            let mut next_payload = 0u32;
            let mut fresh = |count: usize| -> Vec<u32> {
                let payloads: Vec<u32> = (next_payload..next_payload + count as u32).collect();
                next_payload += count as u32;
                payloads
            };
            for (op, a, b) in ops {
                let partition = a as usize % PARTITIONS;
                match op {
                    0 => {
                        let payloads = fresh(1);
                        let sent = producer.send("t", partition, payloads[0]);
                        prop_assert_eq!(sent.is_err(), fenced);
                        if let Ok(offset) = sent {
                            prop_assert_eq!(offset..offset + 1, model.append(partition, &payloads));
                        }
                    }
                    1 => {
                        let payloads = fresh(b);
                        let sent = producer.send_batch("t", partition, payloads.clone());
                        prop_assert_eq!(sent.is_err(), fenced);
                        if let Ok(range) = sent {
                            prop_assert_eq!(range, model.append(partition, &payloads));
                        }
                    }
                    2..=4 => {
                        // The low three bits of `a` choose the partitions,
                        // the next bit the listing order, `b` the group sizes.
                        let mut groups: Vec<(usize, Vec<u32>)> = (0..PARTITIONS)
                            .filter(|p| a & (1 << p) != 0)
                            .map(|p| (p, fresh((b + p) % 3)))
                            .collect();
                        if a & 8 != 0 {
                            groups.reverse();
                        }
                        // Rarely: name the first partition a second time.
                        let duplicate = op == 4 && a & 16 != 0 && !groups.is_empty();
                        if duplicate {
                            groups.push((groups[0].0, fresh(1)));
                        }
                        let sent = producer.send_round("t", groups.clone());
                        prop_assert_eq!(sent.is_err(), fenced || duplicate);
                        if let Ok(ranges) = sent {
                            prop_assert_eq!(ranges.len(), groups.len());
                            for ((partition, payloads), (reported, range)) in groups.iter().zip(ranges) {
                                prop_assert_eq!(*partition, reported);
                                prop_assert_eq!(range, model.append(*partition, payloads));
                            }
                        }
                    }
                    5 => {
                        let trimmed = producer.trim_before("t", partition, a);
                        prop_assert_eq!(trimmed.is_err(), fenced);
                        if let Ok(count) = trimmed {
                            let cut = a.clamp(model.start[partition], model.end(partition));
                            let expected = (cut - model.start[partition]) as usize;
                            prop_assert_eq!(count, expected);
                            model.live[partition].drain(..expected);
                            model.start[partition] = cut;
                        }
                    }
                    6 => {
                        // Rare: otherwise nothing is ever appended.
                        if b == 0 {
                            broker.fence(c(1));
                            fenced = true;
                        }
                    }
                    _ => {
                        producer = broker.producer(c(1));
                        fenced = false;
                    }
                }
                for partition in 0..PARTITIONS {
                    let live: Vec<u32> = broker
                        .read_partition("t", partition)
                        .into_iter()
                        .map(Record::into_payload)
                        .collect();
                    prop_assert_eq!(&live, &model.live[partition]);
                    prop_assert_eq!(broker.log_start("t", partition), model.start[partition]);
                    prop_assert_eq!(broker.end_offset("t", partition), model.end(partition));
                }
            }
        }
    }

    #[test]
    fn broker_clone_shares_state_and_default_works() {
        let broker: Broker<u32> = Broker::default();
        let broker2 = broker.clone();
        broker.create_topic("t", 1).unwrap();
        assert!(broker2.topic_exists("t"));
        assert!(broker.config().session_timeout >= Duration::from_secs(1));
        assert!(broker.now() <= Duration::from_secs(60));
    }
}
