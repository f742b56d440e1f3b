//! A component's consumer lanes: the units of consumer — and dispatch —
//! concurrency that drain its partitions, one per home partition plus one
//! per range recovery re-homed onto it (§4.3) until that range retires. A
//! lane owns its drain state: the offset of the next record it admits from
//! each partition — what reconciliation asks of a queued copy — and when it
//! was adopted. Which partitions a component owns is its published topology
//! entry's to say; a dropped lane leaves nothing behind.
//!
//! Lock rule: a reactor claims a lane with `try_lock` (a lane swept on
//! another reactor is skipped) and runs what it admits while it holds the
//! lane, so one actor's records, which hash to one partition, run in record
//! order. A handler may run under a lane's lock, so nothing ever *waits* for
//! one: kill and retirement `try_lock` too, and offsets are atomics.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_queue::Consumer;
use kar_types::{mono_now, Envelope, SnapshotVec, WaitSignalGroup};

use crate::component::ComponentCore;

/// Retires adopted `partition`: fences it against straggling consumers and
/// publishes `core`'s set without it, handing the broker's tables the same
/// set inside the publish, as recovery's adoption does.
fn retire(core: &ComponentCore, partition: usize) {
    let _ = core.broker.fence_partition(&core.topic, partition);
    core.membership.publish(|members| {
        if let Some(set) = members.topology.get_mut(&core.id) {
            set.retire_adopted(partition);
            let merged = set.clone();
            let _ = core
                .broker
                .assign_partitions(&core.topic, core.id, merged.clone());
            core.broker
                .update_member_partitions(&core.group, core.id, merged);
        }
    });
}

/// One consumer lane.
struct ConsumerLane {
    /// The partitions the lane drains, each with the offset of the next
    /// record it admits from there.
    offsets: Box<[(usize, AtomicU64)]>,
    /// When recovery handed the lane its range: the retirement clock starts
    /// here. `None` for a home lane, which never retires.
    adopted_at: Option<Duration>,
    consumers: Mutex<Vec<Consumer<Envelope>>>,
}

impl ConsumerLane {
    /// A lane over `partitions`, every consumer in the mesh reactor wake
    /// group (an append to any of them wakes an idle reactor).
    fn open(core: &ComponentCore, partitions: &[usize], adopted_at: Option<Duration>) -> Arc<Self> {
        let consumers: Vec<Consumer<Envelope>> = partitions
            .iter()
            .filter_map(|partition| core.broker.consumer(core.id, &core.topic, *partition).ok())
            .collect();
        for consumer in &consumers {
            consumer.join_wait_group(&core.wakeup);
        }
        Arc::new(ConsumerLane {
            offsets: partitions.iter().map(|p| (*p, AtomicU64::new(0))).collect(),
            adopted_at,
            consumers: Mutex::new(consumers),
        })
    }

    fn offset(&self, partition: usize) -> Option<&AtomicU64> {
        self.offsets
            .iter()
            .find(|(p, _)| *p == partition)
            .map(|(_, offset)| offset)
    }

    /// Drops the lane's consumers from the reactor wake group — unless a
    /// reactor holds the lane: that reactor does it once it lets go.
    fn detach(&self, wakeup: &Arc<WaitSignalGroup>) {
        if let Some(mut consumers) = self.consumers.try_lock() {
            for consumer in consumers.drain(..) {
                consumer.leave_wait_group(wakeup);
            }
        }
    }
}

/// A component's consumer lanes and what they have retired.
#[derive(Default)]
pub(crate) struct Lanes {
    /// Walked as a shared snapshot (taking it is a reference-count bump, not
    /// a copy), replaced only when a lane is built or dropped.
    list: SnapshotVec<Arc<ConsumerLane>>,
    /// Adopted partitions retired so far, in retirement order.
    retired: Mutex<Vec<usize>>,
    /// Transient poll failures survived: the consumer stays subscribed; only
    /// a fencing error drops it.
    poll_faults: AtomicU64,
}

impl Lanes {
    /// Builds one lane per home partition of `core`.
    pub(crate) fn start(&self, core: &ComponentCore) {
        let home = core.home.home();
        let lanes = home.iter().map(|p| ConsumerLane::open(core, &[*p], None));
        self.list.update(|list| list.extend(lanes));
    }

    /// Adds one lane draining `partitions`, re-homed onto `core` by the
    /// reconciliation leader — unless `core` was killed meanwhile: its own
    /// recovery re-homes the range its topology entry was charged.
    pub(crate) fn adopt(&self, core: &ComponentCore, partitions: Vec<usize>) {
        if partitions.is_empty() || !core.is_alive() {
            return;
        }
        let lane = ConsumerLane::open(core, &partitions, Some(mono_now()));
        self.list.update(|list| list.push(lane));
        // The new lane's partitions may already hold salvaged records.
        core.wakeup.notify();
    }

    /// Polls every claimable lane once, admitting what it polls through
    /// `core` (see `ComponentCore::pump`). `Consumer::ready()` is lock-free:
    /// an idle sweep costs two atomic loads per partition.
    pub(crate) fn pump(&self, core: &Arc<ComponentCore>, wake_at: &mut Option<Duration>) -> bool {
        let lanes = self.list.load();
        let mut did = false;
        for lane in lanes.iter() {
            let Some(mut consumers) = lane.consumers.try_lock() else {
                continue;
            };
            let mut index = 0;
            while index < consumers.len() && core.is_alive() && !core.is_paused() {
                let consumer = &consumers[index];
                if !consumer.ready() {
                    if let Some(visible_at) = consumer.next_visible_at() {
                        *wake_at = Some(wake_at.map_or(visible_at, |at| at.min(visible_at)));
                    }
                    index += 1;
                    continue;
                }
                match consumer.poll(64) {
                    Ok(records) => {
                        if !records.is_empty() {
                            did = true;
                            let partition = consumer.partition();
                            let consumed = lane.offset(partition).expect("drained here");
                            core.route_records(partition, consumed, records);
                        }
                        index += 1;
                    }
                    // Fenced: the partition was re-homed (or the component
                    // is gone). The lane goes with its last consumer.
                    Err(error) if error.is_fenced() => {
                        consumers.remove(index).leave_wait_group(&core.wakeup);
                    }
                    Err(_) => {
                        // A transient failure (a gray fault at the
                        // consumer_poll site, or a store brownout surfacing
                        // through the broker) leaves the subscription valid:
                        // dropping it would orphan the partition until
                        // reconciliation noticed.
                        self.poll_faults.fetch_add(1, Ordering::Relaxed);
                        index += 1;
                    }
                }
            }
            let empty = consumers.is_empty();
            drop(consumers);
            if !core.is_alive() {
                // `kill` skips a lane some reactor holds — this one, when a
                // handler it ran killed its own component. Checked after
                // letting go: a kill that found the lane held happened
                // before this check, so one of the two detaches it.
                lane.detach(&core.wakeup);
                return did;
            }
            if empty {
                self.remove(lane);
            }
            if core.is_paused() {
                return did;
            }
        }
        did
    }

    /// Mesh-timer retirement sweep: retires the drained partitions of every
    /// adopted lane past its horizon, and drops a lane with its last
    /// consumer. A lane a reactor holds retires on a later tick.
    ///
    /// Safety of the horizon: adopted partitions are never hash-routed to,
    /// so the only records that could still land there were appends in
    /// flight at adoption time. Those expire after one retention window; the
    /// horizon is two, so an empty log at the horizon is empty forever.
    pub(crate) fn sweep_retirement(&self, core: &ComponentCore) {
        let delay = core.config.scaled_retirement_delay();
        let now = mono_now();
        let lanes = self.list.load();
        let due = |lane: &&Arc<ConsumerLane>| {
            lane.adopted_at
                .is_some_and(|adopted| now.saturating_sub(adopted) >= delay)
        };
        for lane in lanes.iter().filter(due) {
            let Some(mut consumers) = lane.consumers.try_lock() else {
                continue;
            };
            consumers.retain(|consumer| {
                let partition = consumer.partition();
                if core.broker.partition_len(&core.topic, partition) != 0 {
                    return true;
                }
                retire(core, partition);
                self.retired.lock().push(partition);
                consumer.leave_wait_group(&core.wakeup);
                false
            });
            let empty = consumers.is_empty();
            drop(consumers);
            if empty {
                self.remove(lane);
            }
        }
    }

    /// Detaches every lane from the reactor wake group (the component was
    /// killed). The lanes stay, emptied: a reconciliation that counted the
    /// component live still reads what it consumed.
    pub(crate) fn detach(&self, wakeup: &Arc<WaitSignalGroup>) {
        for lane in self.list.load().iter() {
            lane.detach(wakeup);
        }
    }

    fn remove(&self, lane: &Arc<ConsumerLane>) {
        self.list
            .update(|list| list.retain(|l| !Arc::ptr_eq(l, lane)));
    }

    /// Offset of the next record a lane admits from `partition` (zero when
    /// no lane drains it). Read without the lane lock: reconciliation never
    /// waits on a handler.
    pub(crate) fn consumed_offset(&self, partition: usize) -> u64 {
        self.list
            .load()
            .iter()
            .find_map(|lane| lane.offset(partition))
            .map_or(0, |offset| offset.load(Ordering::SeqCst))
    }

    /// Number of lanes: one per home partition, plus one per adopted range
    /// until its retirement.
    pub(crate) fn count(&self) -> usize {
        self.list.load().len()
    }

    /// The adopted partitions retired so far, in retirement order.
    pub(crate) fn retired(&self) -> Vec<usize> {
        self.retired.lock().clone()
    }

    /// Transient poll failures survived so far.
    pub(crate) fn poll_faults(&self) -> u64 {
        self.poll_faults.load(Ordering::Relaxed)
    }

    /// One `debug_snapshot` line: `core`'s published partition set, the
    /// lanes, the consumed offset of each partition in the set, each adopted
    /// one's time left to its retirement horizon, and the retirement log.
    pub(crate) fn debug(&self, core: &ComponentCore, out: &mut String) {
        let (set, delay) = (core.partition_set(), core.config.scaled_retirement_delay());
        let now = mono_now();
        let lanes = self.list.load();
        let (mut consumed, mut retire_in) = (Vec::new(), Vec::new());
        for lane in lanes.iter() {
            for (partition, offset) in lane.offsets.iter().filter(|(p, _)| set.contains(*p)) {
                consumed.push(format!("{partition}:{}", offset.load(Ordering::SeqCst)));
                if let Some(adopted) = lane.adopted_at {
                    let left = delay.saturating_sub(now.saturating_sub(adopted));
                    retire_in.push(format!("{partition}:{left:.1?}"));
                }
            }
        }
        let _ = writeln!(
            out,
            "  partitions={set} lanes={} consumed=[{}] retire_in=[{}] retired={:?}",
            lanes.len(),
            consumed.join(", "),
            retire_in.join(", "),
            self.retired.lock(),
        );
    }
}
