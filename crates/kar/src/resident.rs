//! The resident set: a component's table of active actors (§4.1) — each
//! one's instance, actor lock, mailbox and state image — and the
//! passivation bookkeeping that decides when a slot leaves it, under one
//! lock. A slot enters at its actor's activation ([`ResidentSet::admit`])
//! and leaves at its passivation, idle or evicted; the tombstone it leaves
//! leads, once aged out, to the release of its placement record. The
//! component does the I/O around these decisions: placement resolution,
//! state flushes and the release round's compare-and-deletes.
//!
//! Lock order: the resident lock → a slot's state image. Nothing else is
//! taken under the resident lock.

use std::collections::{HashSet, VecDeque};
use std::fmt::Write;
use std::sync::atomic::Ordering;
use std::time::Duration;

use parking_lot::Mutex;

use kar_store::PipelineResult;
use kar_types::{ActorRef, Backoff, Completion, RequestId, RequestMessage, SharedRequest};

use crate::actor::Actor;
use crate::aging::{tombstone, AgingMap, AgingSet, Names, Tombs};
use crate::component::{ComponentStats, Frame, PLACEMENT_RETRY};
use crate::config::MeshConfig;
use crate::state_cache::StateImage;

/// The backoff of a new-actor activation deferred at the hard resident
/// watermark: the retry orchestration's exponential shape, with jitter
/// derived from the request id, on a 25 ms base capped at 16× (wall clock,
/// like retry policies — not compressed by `MeshConfig::time_scale`).
const ACTIVATION_BACKOFF: Backoff = Backoff::Exponential {
    base: Duration::from_millis(25),
    multiplier: 2.0,
    max: Duration::from_millis(400),
    jitter: 0.2,
};

/// Placements one release round releases at most, unless its backlog is
/// four times larger: then a quarter of it, so the backlog drains whatever
/// the passivation rate. A rotation ages a whole generation of tombstones
/// out at once, and spreading it over heartbeats keeps each round's
/// buffers small.
const RELEASE_ROUND: usize = 1024;

/// A resident actor's whole in-memory footprint (§4.1): its instance, the
/// actor lock, its mailbox and its state image.
#[derive(Default)]
struct ActorSlot {
    instance: Option<Box<dyn Actor>>,
    /// The actor's state image. Every invocation admitted to the actor takes
    /// a handle to it; the image leaves memory only with the slot.
    state: StateImage,
    busy: bool,
    busy_chain: Vec<RequestId>,
    awaiting_tail: Option<RequestId>,
    mailbox: VecDeque<SharedRequest>,
    /// Placement-check locality: the placement-cache epoch in which this
    /// actor's ownership by this component was last verified. While the
    /// stamp matches the current epoch, admission skips placement resolution
    /// entirely (not even a cache hit); a recovery-driven `clear_cache`
    /// bumps the epoch and thereby invalidates every stamp in O(1).
    verified_epoch: Option<u64>,
    /// Set while admission has deferred this actor's activation: the id of
    /// the parked head request, waiting out its backoff as a `Stage::Admit`.
    /// Later requests mailbox behind it (so per-actor FIFO holds across the
    /// deferral), and no passivation drops a slot with a deferral pending.
    activation_parked: Option<RequestId>,
    /// Consecutive deferrals of the parked head: each one grows the shaped
    /// backoff further.
    activation_deferrals: u32,
}

impl ActorSlot {
    /// The actor lock is `request`'s: the slot is busy, and its chain is the
    /// request's call chain (its buffer reused, not reallocated).
    fn hold_for(&mut self, request: &RequestMessage) {
        self.busy = true;
        self.busy_chain.clear();
        self.busy_chain.extend_from_slice(&request.lineage);
        self.busy_chain.push(request.id);
    }

    /// No running invocation (`busy` also covers parked continuations and
    /// reentrant frames), no retained tail-call lock, nothing mailboxed and
    /// no deferred activation pending.
    fn quiescent(&self) -> bool {
        !self.busy
            && self.awaiting_tail.is_none()
            && self.mailbox.is_empty()
            && self.activation_parked.is_none()
    }

    /// The decide step of a passivation: the slot is quiescent and its state
    /// image may go — not with buffered writes or a handle still out.
    fn may_passivate(&self) -> bool {
        self.quiescent() && self.state.may_drop()
    }
}

/// The tombstones of passivated actors, and the placement releases they
/// lead to.
struct Tombstones {
    /// One per passivated actor, naming it: consumed — and counted as a
    /// rehydration — by the actor's next activation, otherwise aged out on
    /// the bookkeeping clock.
    aging: AgingSet<Tombs>,
    /// The actors of aged-out tombstones, their placements waiting for a
    /// release round.
    aged_out: Names,
    /// The actors of the release round in flight: an activation of one
    /// defers until the round settles.
    releasing: HashSet<ActorRef>,
    /// The actors of the round that settled last: an activation of one
    /// that resolved its placement before the round settled defers too.
    settled: HashSet<ActorRef>,
    /// The acknowledgement of the release round in flight.
    round: Option<Completion<Vec<PipelineResult>>>,
}

/// What the resident lock guards.
struct Resident {
    /// Every activated actor's slot, stamped on the passivation clock: an
    /// admission touches its actor, and so does the end of its activity.
    slots: AgingMap<ActorRef, ActorSlot>,
    tombstones: Tombstones,
    /// Release rounds settled so far. An admission reads it with its slot
    /// lookup, before it resolves the placement; a round bumps it as it
    /// settles.
    release_rounds: u64,
    /// Resident (activated, non-deferred) slots: what the watermarks
    /// compare against.
    count: usize,
}

impl Resident {
    /// Counts a new resident: a standing tombstone makes its activation a
    /// rehydration. Refuses — counting nothing — while the actor's placement
    /// release is in flight, or once a round that released it has settled
    /// since the admission read `settled` (two rounds or more: any actor):
    /// the record the admission resolved may be gone.
    fn count_activation(&mut self, actor: &ActorRef, settled: u64, stats: &ComponentStats) -> bool {
        let tombstones = &mut self.tombstones;
        let released_since = match self.release_rounds - settled {
            0 => false,
            1 => tombstones.settled.contains(actor),
            _ => true,
        };
        if released_since || tombstones.releasing.contains(actor) {
            return false;
        }
        self.count += 1;
        if tombstones.aging.remove(&tombstone(actor)) {
            stats.rehydrations.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Counts a passivation once its slot is gone: a tombstone naming the
    /// actor stays.
    fn count_passivation(&mut self, actor: &ActorRef, stats: &ComponentStats) {
        self.count -= 1;
        self.tombstones.aging.bury(actor);
        stats.passivations.fetch_add(1, Ordering::Relaxed);
    }

    /// How long the activation `request` asks for must wait before it is
    /// admitted again: at the `hard` watermark, its shaped backoff after
    /// `deferrals` earlier deferrals; while its placement's release has not
    /// settled for this admission, one placement retry — counted as an
    /// admission deferral. `None` — the actor counted as a new resident —
    /// once it may go ahead.
    fn activation_wait(
        &mut self,
        hard: Option<usize>,
        request: &RequestMessage,
        settled: u64,
        deferrals: u32,
        stats: &ComponentStats,
    ) -> Option<Duration> {
        let wait = if hard.is_some_and(|hard| self.count >= hard) {
            let attempt = deferrals.saturating_add(1);
            ACTIVATION_BACKOFF.delay_for(attempt, request.id.as_u64())
        } else if !self.count_activation(&request.target, settled, stats) {
            PLACEMENT_RETRY
        } else {
            return None;
        };
        stats.admission_deferrals.fetch_add(1, Ordering::Relaxed);
        Some(wait)
    }

    /// Admission is about to make the activation `request` asks for — of a
    /// new actor, or of a deferred activation's head back from the due-time
    /// heap — with the resident set at or above the `soft` watermark: first
    /// passivates the coldest quiescent, clean resident, inline. Candidates
    /// come least recently touched first, and one touched since the eviction
    /// queue's last refill is passed over ([`AgingMap::evict_coldest`]), so
    /// the hot head stays resident. No store I/O: an actor whose state has
    /// buffered writes is skipped, never flushed. Returns the evicted actor.
    fn evict_coldest(
        &mut self,
        soft: Option<usize>,
        request: &RequestMessage,
        stats: &ComponentStats,
    ) -> Option<ActorRef> {
        let soft = soft?;
        let activates = self
            .slots
            .get(&request.target)
            .is_none_or(|slot| slot.activation_parked == Some(request.id));
        if !activates || self.count < soft {
            return None;
        }
        let evicted = self.slots.evict_coldest(|_, slot| slot.may_passivate())?;
        self.count_passivation(&evicted, stats);
        Some(evicted)
    }
}

/// Where [`ResidentSet::admit`] put a request.
pub(crate) enum SlotAdmission {
    /// Runs now.
    Run(Frame),
    /// In the actor's mailbox, behind the busy actor or its deferred
    /// activation.
    Mailboxed,
    /// An activation deferred: `request` waits this long as a `Stage::Admit`
    /// and is admitted again.
    Deferred(SharedRequest, Duration),
}

/// A component's resident set (see the module docs).
pub(crate) struct ResidentSet {
    resident: Mutex<Resident>,
    soft: Option<usize>,
    hard: Option<usize>,
}

impl ResidentSet {
    /// An empty set under `config`'s watermarks: slots age on `idle` (the
    /// retention window), tombstones on `bookkeeping` (twice that).
    pub(crate) fn new(idle: Duration, bookkeeping: Duration, config: &MeshConfig) -> Self {
        ResidentSet {
            resident: Mutex::new(Resident {
                slots: AgingMap::new(idle),
                tombstones: Tombstones {
                    aging: AgingSet::new(bookkeeping),
                    aged_out: Names::default(),
                    releasing: HashSet::new(),
                    settled: HashSet::new(),
                    round: None,
                },
                release_rounds: 0,
                count: 0,
            }),
            soft: config.resident_soft_limit(),
            hard: config.resident_hard_limit(),
        }
    }

    /// What admission reads ahead of resolving `actor`'s placement: the
    /// epoch its ownership was last verified in if it is resident (not a
    /// deferred activation), and the release rounds settled so far.
    pub(crate) fn lookup(&self, actor: &ActorRef) -> (Option<Option<u64>>, u64) {
        let resident = self.resident.lock();
        let slot = resident.slots.get(actor);
        let slot = slot.filter(|slot| slot.activation_parked.is_none());
        (
            slot.map(|slot| slot.verified_epoch),
            resident.release_rounds,
        )
    }

    /// Admits `request`, its placement verified in epoch `stamp` after
    /// `settled` release rounds, to its actor's slot: the watermarks, a
    /// placement release, a deferred activation's head and the actor lock
    /// of §2.2. Hands back the resident an activation evicted, if any.
    pub(crate) fn admit(
        &self,
        request: SharedRequest,
        stamp: Option<u64>,
        settled: u64,
        stats: &ComponentStats,
    ) -> (SlotAdmission, Option<ActorRef>) {
        let mut resident = self.resident.lock();
        let evicted = resident.evict_coldest(self.soft, &request, stats);
        let admission = self.admit_to_slot(&mut resident, request, stamp, settled, stats);
        (admission, evicted)
    }

    fn admit_to_slot(
        &self,
        resident: &mut Resident,
        request: SharedRequest,
        stamp: Option<u64>,
        settled: u64,
        stats: &ComponentStats,
    ) -> SlotAdmission {
        let Some(slot) = resident.slots.get_mut(&request.target) else {
            // Hard watermark: a request that would *activate a new actor*
            // while the resident set is at the hard watermark — admission
            // found nothing it could evict — is deferred with shaped backoff:
            // shed, never dropped, and holding its claim so reconciliation
            // never re-homes a duplicate. Requests for already-resident
            // actors are never deferred (their memory is already paid for),
            // so the hot head keeps executing while the cold tail waits. An
            // activation that meets its actor's placement release in flight
            // defers the same way, and resolves afresh once it has settled.
            //
            // Otherwise a new resident: the actor re-enters through this
            // ordinary activation path, whether it was passivated, released
            // or never active. Its insert is its admission's touch.
            let mut slot = ActorSlot {
                verified_epoch: stamp,
                ..ActorSlot::default()
            };
            let target = request.target.clone();
            let admission = match resident.activation_wait(self.hard, &request, settled, 0, stats) {
                Some(wait) => {
                    slot.activation_parked = Some(request.id);
                    SlotAdmission::Deferred(request, wait)
                }
                None => {
                    slot.hold_for(&request);
                    SlotAdmission::Run(Frame::admitted(request, slot.state.clone(), false))
                }
            };
            resident.slots.insert(target, slot);
            return admission;
        };
        slot.verified_epoch = stamp;
        if let Some(head) = slot.activation_parked {
            if head != request.id {
                // A sibling of a deferred activation: mailbox behind the
                // parked head, preserving per-actor FIFO across the deferral
                // (the head is admitted again from the due-time heap; the
                // mailbox drains behind it in arrival order).
                slot.mailbox.push_back(request);
                return SlotAdmission::Mailboxed;
            }
            // The head of a deferred activation is back from the due-time
            // heap. If the pressure has drained and no release is in flight,
            // activate; otherwise re-shape (the backoff grows with each
            // deferral) and re-park — never drop.
            let deferrals = slot.activation_deferrals.saturating_add(1);
            let wait = resident.activation_wait(self.hard, &request, settled, deferrals, stats);
            let slot = resident
                .slots
                .get_mut(&request.target)
                .expect("found above");
            if let Some(wait) = wait {
                slot.activation_deferrals = deferrals;
                return SlotAdmission::Deferred(request, wait);
            }
            slot.activation_parked = None;
            slot.activation_deferrals = 0;
        }
        // The admission's touch on the passivation clock.
        let slot = resident
            .slots
            .get_refresh(&request.target)
            .expect("the slot was found above, under the same lock");
        if slot.awaiting_tail == Some(request.id) {
            // Continuation of a tail call to self: it owns the lock already.
            slot.awaiting_tail = None;
        } else if slot.busy {
            if !request
                .lineage
                .iter()
                .any(|id| slot.busy_chain.contains(id))
            {
                // Move the request into the mailbox — no payload clone.
                slot.mailbox.push_back(request);
                return SlotAdmission::Mailboxed;
            }
            // Reentrant nested call: bypass the mailbox (§2.2), sharing the
            // suspended ancestor's state image.
            return SlotAdmission::Run(Frame::admitted(request, slot.state.clone(), true));
        }
        slot.hold_for(&request);
        SlotAdmission::Run(Frame::admitted(request, slot.state.clone(), false))
    }

    /// The invocation holding `actor`'s lock is over: the next mailboxed
    /// request takes the lock and `image` — or, the mailbox dry, the lock is
    /// released and the image let go of under the resident lock, so a
    /// quiescent actor is passivatable at once. `None` also while a tail
    /// call retains the lock.
    pub(crate) fn next_in_mailbox(&self, actor: &ActorRef, image: StateImage) -> Option<Frame> {
        let mut resident = self.resident.lock();
        let slot = resident.slots.get_mut(actor)?;
        if slot.awaiting_tail.is_some() {
            return None;
        }
        if let Some(next) = slot.mailbox.pop_front() {
            slot.hold_for(&next);
            return Some(Frame::admitted(next, image, false));
        }
        slot.busy = false;
        slot.busy_chain.clear();
        // Restart the actor's idle clock from the end of its activity, not
        // from its last admission.
        resident.slots.get_refresh(actor);
        drop(image);
        None
    }

    /// `actor`'s lock is retained across its tail call to itself `id`,
    /// whose copy bypasses the mailbox when it arrives (§4.1).
    pub(crate) fn retain_for_tail(&self, actor: &ActorRef, id: RequestId) {
        if let Some(slot) = self.resident.lock().slots.get_mut(actor) {
            slot.awaiting_tail = Some(id);
        }
    }

    /// True if a retained actor lock awaits the tail call `id`.
    pub(crate) fn awaits_tail(&self, id: RequestId) -> bool {
        self.resident
            .lock()
            .slots
            .values()
            .any(|slot| slot.awaiting_tail == Some(id))
    }

    /// Swaps `instance` into `actor`'s slot if it is resident, handing back
    /// the cached instance it held: `None` checks the instance out.
    pub(crate) fn swap_instance(
        &self,
        actor: &ActorRef,
        instance: Option<Box<dyn Actor>>,
    ) -> Option<Box<dyn Actor>> {
        let mut resident = self.resident.lock();
        std::mem::replace(&mut resident.slots.get_mut(actor)?.instance, instance)
    }

    /// Advances the passivation clock, if due: then the actors idle for one
    /// to two retention windows, least recently touched first — suggestions
    /// only, each re-verified by [`Self::passivate`].
    pub(crate) fn stale_due(&self, now: Duration) -> Vec<ActorRef> {
        let mut resident = self.resident.lock();
        if !resident.slots.advance_due(now) {
            return Vec::new();
        }
        resident.slots.stale()
    }

    /// The state image of `actor` if it is quiescent: what a passivation
    /// flushes, outside the lock, before [`Self::passivate`].
    pub(crate) fn quiescent_image(&self, actor: &ActorRef) -> Option<StateImage> {
        let resident = self.resident.lock();
        let slot = resident.slots.get(actor).filter(|slot| slot.quiescent())?;
        Some(slot.state.clone())
    }

    /// Passivates `actor` if it may go: its slot — instance, mailbox, state
    /// image, idle stamps — is dropped and a tombstone recorded. An
    /// admission since the flush flips `busy` (or queues mail) under this
    /// same lock, and a state write since leaves the image dirty: either way
    /// the slot survives untouched, and this returns false.
    pub(crate) fn passivate(&self, actor: &ActorRef, stats: &ComponentStats) -> bool {
        let mut resident = self.resident.lock();
        let slot = resident.slots.get(actor);
        if !slot.is_some_and(ActorSlot::may_passivate) {
            return false;
        }
        let slot = resident.slots.remove(actor).expect("checked above");
        if slot.state.is_loaded() {
            stats.state_evictions.fetch_add(1, Ordering::Relaxed);
        }
        resident.count_passivation(actor, stats);
        true
    }

    /// Rotates the tombstones on the bookkeeping clock: the actors of those
    /// that age out join the release backlog.
    pub(crate) fn rotate_tombstones(&self, now: Duration) {
        let mut resident = self.resident.lock();
        let tombstones = &mut resident.tombstones;
        tombstones
            .aging
            .maybe_rotate_into(now, &mut tombstones.aged_out);
    }

    /// Starts the next release round, unless one is in flight: up to
    /// [`RELEASE_ROUND`] actors of the backlog, marked as releasing — those
    /// with no local pending work, no slot (which covers a parked
    /// activation) and none of the `waiting` of a deferred retry, and no
    /// tombstone standing again (a passivation since restarted the clock).
    pub(crate) fn begin_release(&self, waiting: &HashSet<ActorRef>) -> Vec<ActorRef> {
        let mut resident = self.resident.lock();
        let Resident {
            slots, tombstones, ..
        } = &mut *resident;
        if tombstones.round.is_some() {
            return Vec::new();
        }
        let take = RELEASE_ROUND.max(tombstones.aged_out.len() / 4);
        let candidates = std::iter::from_fn(|| tombstones.aged_out.pop()).take(take);
        let released: Vec<ActorRef> = candidates
            .filter(|actor| slots.get(actor).is_none() && !waiting.contains(actor))
            .filter(|actor| !tombstones.aging.contains(&tombstone(actor)))
            .collect();
        tombstones.releasing.extend(released.iter().cloned());
        released
    }

    /// The release round of [`Self::begin_release`]'s actors is submitted,
    /// and settles once `round` is acknowledged — at once if that is due.
    pub(crate) fn release_submitted(
        &self,
        round: Completion<Vec<PipelineResult>>,
        now: Duration,
        stats: &ComponentStats,
    ) {
        self.resident.lock().tombstones.round = Some(round);
        self.settle_release(now, stats);
    }

    /// Settles the release round in flight if its acknowledgement is due at
    /// `now`, counting the placements it released: its actors may activate
    /// again, and an activation of one that resolved its placement before
    /// now defers to resolve afresh. True if a new round has work then: none
    /// is in flight and the backlog is not empty.
    pub(crate) fn settle_release(&self, now: Duration, stats: &ComponentStats) -> bool {
        let mut resident = self.resident.lock();
        let tombstones = &mut resident.tombstones;
        let due = |round: &mut Completion<_>| round.due.is_none_or(|due| due <= now);
        let Some(acknowledged) = tombstones.round.take_if(due) else {
            return tombstones.round.is_none() && tombstones.aged_out.len() != 0;
        };
        std::mem::swap(&mut tombstones.releasing, &mut tombstones.settled);
        tombstones.releasing.clear();
        resident.release_rounds += 1;
        if let Ok(results) = acknowledged.result {
            let released = results.iter().filter(|r| r.flag() == Some(true)).count();
            stats
                .placements_released
                .fetch_add(released as u64, Ordering::Relaxed);
        }
        resident.tombstones.aged_out.len() != 0
    }

    /// Recovery is over: images no invocation holds and with no buffered
    /// writes are unloaded in place (see `ComponentCore::resume`).
    pub(crate) fn unload_idle_images(&self) {
        for slot in self.resident.lock().slots.values() {
            slot.state.unload_if_idle();
        }
    }

    /// Forgets everything (owner killed): the slots go with their state
    /// images, unflushed writes lost (no completion was sent for them), and
    /// the tombstones with the release round in flight — recovery owns every
    /// record naming a dead component.
    pub(crate) fn clear(&self) {
        let mut resident = self.resident.lock();
        resident.slots.clear();
        let tombstones = &mut resident.tombstones;
        tombstones.aging.clear();
        tombstones.aged_out.clear();
        tombstones.releasing.clear();
        tombstones.settled.clear();
        tombstones.round = None;
        resident.count = 0;
    }

    /// Number of resident (activated, non-deferred) actors.
    pub(crate) fn count(&self) -> usize {
        self.resident.lock().count
    }

    /// The resident actors themselves: every slot but a deferred
    /// activation's.
    pub(crate) fn actors(&self) -> Vec<ActorRef> {
        self.resident
            .lock()
            .slots
            .iter()
            .filter(|(_, slot)| slot.activation_parked.is_none())
            .map(|(actor, _)| actor.clone())
            .collect()
    }

    /// Requests waiting in the mailboxes of resident actors.
    pub(crate) fn mailboxed(&self) -> usize {
        let resident = self.resident.lock();
        resident.slots.values().map(|slot| slot.mailbox.len()).sum()
    }

    /// Resident actors whose state image is loaded.
    pub(crate) fn loaded_images(&self) -> usize {
        self.resident
            .lock()
            .slots
            .values()
            .filter(|slot| slot.state.is_loaded())
            .count()
    }

    /// One line per actor that is busy, retains its lock for a tail call or
    /// has mail, for `ComponentCore::debug_snapshot` — unless the lock is
    /// held, which it says instead.
    pub(crate) fn debug_actors(&self, out: &mut String) {
        let Some(resident) = self.resident.try_lock() else {
            let _ = writeln!(out, "  actors: <LOCK HELD>");
            return;
        };
        for (actor, slot) in resident.slots.iter() {
            if !slot.busy && slot.awaiting_tail.is_none() && slot.mailbox.is_empty() {
                continue;
            }
            let mailbox: Vec<u64> = slot.mailbox.iter().map(|r| r.id.as_u64()).collect();
            let _ = writeln!(
                out,
                "  actor {}: busy={} awaiting_tail={:?} mailbox={mailbox:?}",
                actor.qualified_name(),
                slot.busy,
                slot.awaiting_tail.map(|id| id.as_u64()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use kar_queue::Broker;
    use kar_types::Value;

    use super::*;
    use crate::component::{deliver, lone_core, Admission};
    use crate::placement::{component_to_value, placement_key};

    #[test]
    fn an_admission_eviction_never_drops_a_busy_mailboxed_tail_awaiting_parked_or_dirty_actor() {
        let core = lone_core(
            MeshConfig::for_tests().with_resident_watermarks(1, 0),
            Broker::default(),
        );
        let set = &core.resident;
        let actor = |name: &str| ActorRef::new("Ledger", name);
        let request = |name: &str, id: u64| {
            RequestMessage::root(RequestId::from_raw(id), actor(name), "m", Vec::new())
        };
        // Coldest first: six residents an eviction must pass over, then the
        // most recently touched one, which is the only one it may take.
        let residents = [
            (
                "busy",
                ActorSlot {
                    busy: true,
                    ..ActorSlot::default()
                },
            ),
            (
                "mailboxed",
                ActorSlot {
                    mailbox: VecDeque::from([request("mailboxed", 1).into()]),
                    ..ActorSlot::default()
                },
            ),
            (
                "tail",
                ActorSlot {
                    awaiting_tail: Some(RequestId::from_raw(2)),
                    ..ActorSlot::default()
                },
            ),
            (
                "parked",
                ActorSlot {
                    activation_parked: Some(RequestId::from_raw(3)),
                    ..ActorSlot::default()
                },
            ),
            ("dirty", ActorSlot::default()),
            ("held", ActorSlot::default()),
            ("idle", ActorSlot::default()),
        ];
        let mut resident = set.resident.lock();
        for (name, slot) in residents {
            resident.slots.insert(actor(name), slot);
            assert!(resident.count_activation(&actor(name), 0, &core.stats));
        }
        let image_of = |resident: &Resident, name: &str| {
            resident.slots.get(&actor(name)).unwrap().state.clone()
        };
        // A write no flush has made durable, and a handle still out (an
        // invocation that let go of the actor but not yet of its image).
        {
            let dirty = image_of(&resident, "dirty");
            let conn = core.store.connect(core.id);
            let load = dirty.submit_load(&conn, &actor("dirty")).unwrap();
            dirty.finish(load.expect("unloaded").wait()).unwrap();
            dirty.set("v", Value::from(1)).unwrap();
        }
        let held = image_of(&resident, "held");

        let newcomer = request("newcomer", 4);
        let evict = |resident: &mut Resident, request: &RequestMessage| {
            resident.evict_coldest(set.soft, request, &core.stats)
        };
        assert_eq!(evict(&mut resident, &newcomer), Some(actor("idle")));
        assert_eq!(
            evict(&mut resident, &newcomer),
            None,
            "an eviction took a resident that was not quiescent and clean"
        );
        for name in ["busy", "mailboxed", "tail", "parked", "dirty", "held"] {
            assert!(
                resident.slots.get(&actor(name)).is_some(),
                "{name} was evicted"
            );
        }
        // Once the handle is dropped the image may go with its slot.
        drop(held);
        assert_eq!(evict(&mut resident, &newcomer), Some(actor("held")));
        // A resident's own next request activates nothing: no eviction.
        resident.slots.get_mut(&actor("busy")).unwrap().busy = false;
        assert_eq!(evict(&mut resident, &request("busy", 5)), None);
        drop(resident);
        assert_eq!(set.count(), 5);
        assert_eq!(core.passivation_stats(), (2, 0, 0));
    }

    #[test]
    fn an_activation_never_outlives_its_placement_record() {
        use crate::placement::{host_field, hosts_key};

        let core = lone_core(MeshConfig::for_tests(), Broker::default());
        let set = &core.resident;
        core.live.write().insert(core.id);
        core.store
            .admin_hset(&hosts_key("Ledger"), &host_field(core.id), Value::Null);
        let placed_here = component_to_value(core.id);
        let ledger = |name: &str| ActorRef::new("Ledger", name);
        let request = |name: &str, id: u64| {
            RequestMessage::root(RequestId::from_raw(id), ledger(name), "m", Vec::new())
        };
        let settled = || set.lookup(&ledger("-")).1;
        let activate = |request: RequestMessage, settled: u64| {
            let (admission, _) = set.admit(request.into(), None, settled, &core.stats);
            matches!(admission, SlotAdmission::Run(_))
        };
        let record = |name: &str| core.store.admin_get(&placement_key(&ledger(name)));
        // Actors whose tombstones aged out, each still placed here; this
        // component's cache has learnt one of the placements. Three of them
        // have local work or a newer passivation, and keep their records.
        for name in [
            "early", "cached", "inflight", "resident", "waiting", "renewed",
        ] {
            core.store
                .admin_set(&placement_key(&ledger(name)), placed_here.clone());
            set.resident.lock().tombstones.aged_out.push("Ledger", name);
        }
        set.resident
            .lock()
            .slots
            .insert(ledger("resident"), ActorSlot::default());
        // A happen-before retry deferred on its callee's response.
        let mut retry = request("waiting", 9);
        retry.pending_callee = Some(RequestId::from_raw(8));
        deliver(&core, retry);
        set.resident
            .lock()
            .tombstones
            .aging
            .bury(&ledger("renewed"));
        assert_eq!(
            core.placement.resolve_nowait(&ledger("cached")).unwrap(),
            Some(core.id)
        );
        // An admission of `early` read the release-round count — and the
        // record — before the release round; it reaches the resident lock
        // only once the round has settled (zero latency: in the same tick).
        let before = settled();
        core.release_placements(kar_types::mono_now());
        assert_eq!(core.stats.placements_released.load(Ordering::Relaxed), 3);
        assert_eq!(record("early"), None);
        for kept in ["resident", "waiting", "renewed"] {
            assert_eq!(
                record(kept),
                Some(placed_here.clone()),
                "{kept} was released"
            );
        }
        set.resident.lock().slots.remove(&ledger("resident"));
        assert!(
            !activate(request("early", 1), before),
            "an activation resolved against a released record became resident"
        );
        assert!(set.actors().is_empty());
        assert_eq!(core.passivation_stats(), (0, 0, 1));
        // An actor the round did not release activates on the same read.
        assert!(activate(request("bystander", 4), before));
        let mut resident = set.resident.lock();
        resident.slots.remove(&ledger("bystander"));
        resident.count -= 1;
        drop(resident);
        // Back from its backoff, the head resolves afresh and activates.
        assert!(activate(request("early", 1), settled()));
        assert_eq!(set.actors(), vec![ledger("early")]);
        // An activation resolves from the store, not from the cache that
        // still says "placed here": the cold path places the actor again.
        let admission = core.admit_request(request("cached", 2).into());
        assert!(matches!(admission, Admission::Run(_)));
        assert_eq!(record("cached"), Some(placed_here.clone()));
        // An activation that meets the actor's release still in flight
        // defers too, however fresh its resolution.
        set.resident
            .lock()
            .tombstones
            .releasing
            .insert(ledger("inflight"));
        assert!(!activate(request("inflight", 3), settled()));
        assert_eq!(core.passivation_stats(), (0, 0, 2));
    }
}
