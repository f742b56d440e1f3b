//! Modelled I/O is a completion: the mesh-wide due-time heap.
//!
//! Every latency the mesh models — a durable queue ack, the delivery of a
//! record to its consumer, a store round trip, a sidecar hop — is a **due
//! time**, never a sleep on a reactor. The substrates apply an operation when
//! it is submitted and say when its acknowledgement arrives
//! ([`kar_types::Completion`]); a sidecar hop is due one hop latency from
//! now. A reactor that meets a due time still in the future *parks* the rest
//! of the invocation as an owned [`Stage`] in the one heap below and goes on
//! with other work; every reactor sweep first resumes the stages whose time
//! has come ([`DueHeap::run_due`]), and an idle reactor sleeps no longer than
//! until the earliest of them. So the latencies on one invocation's critical
//! path still add up — what the paper's Table 2 prices — while those of
//! independent invocations overlap, however few reactors there are. When the
//! due time is not in the future (every zero-latency configuration) the stage
//! is handed straight back and runs inline, in the same frame, with no
//! allocation and the call sequence the runtime always had.
//!
//! While a stage is parked its actor stays busy (its mailbox queues behind
//! it) and its request stays in flight, exactly like an invocation executing
//! on a thread; the reactor and the consumer lane it was sweeping are handed
//! back. Killing a component drops its parked stages ([`DueHeap::forget`]):
//! a killed thread asleep inside an I/O never completed anything either.
//!
//! A wait with no due time is a stage too: a produce round one of whose
//! targets has a stale placement — the recorded one points at a failed
//! component, reconciliation has not rewritten it yet — parks for a few
//! milliseconds and tries again, until the call timeout. That covers the
//! round of a nested call, a handler's outbox, a forward and a tail-call
//! successor alike; inside an invocation nothing waits any other way.
//!
//! Edge threads — clients, the recovery leader, the benchmark's probes —
//! keep blocking signatures: the *same* submit, followed by
//! [`kar_types::Completion::wait`].
//!
//! # Invariants
//!
//! 1. **Nothing that used to run after an append or a flush *returned* runs
//!    before its due time**: settle closes, the round counters, the state
//!    flush behind an outbox round, the completion behind a state flush. The
//!    order outbox → state flush → completion, and the rollback of state
//!    buffered behind a failed round, are untouched (see [`crate::context`]).
//! 2. **A consumer never reads a record before its acknowledgement plus the
//!    delivery latency** (enforced by the broker: visibility, not a sleep).
//! 3. **A partition acknowledges in append order**, back-to-back appends one
//!    append latency apart (enforced by the broker's per-partition
//!    busy-until).
//! 4. **Fault gates and fencing are consulted at submit**, before anything is
//!    appended or applied; an injected ack loss is learnt at the due time,
//!    like any acknowledgement.
//! 5. **A state flush is submitted in the very frame that observes its
//!    round's ack** — nothing else is scheduled in between — and the store
//!    applies it at submit: whoever is told by a handler finds the state the
//!    handler wrote.
//! 6. **A completion is handed to the response batcher at its own respond
//!    step** — never held for the rest of the frame that produced it, so a
//!    mailbox drain running the actor's next invocation in the same frame
//!    delays no caller.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kar_types::{mono_now, WaitSignalGroup};

use crate::component::{ComponentCore, Stage};

/// [`DueHeap::earliest`] while nothing is parked.
const NOTHING_PARKED: u64 = u64::MAX;

/// One parked stage: ordered by due time, ties in parking order.
struct Parked {
    due: Duration,
    seq: u64,
    core: Arc<ComponentCore>,
    stage: Stage,
}

impl PartialEq for Parked {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}

impl Eq for Parked {}

impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Parked {
    /// Reversed: the standard heap is a max-heap, the earliest stage must
    /// surface first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Counters of the due-time heap, for `Mesh::debug_report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IoStats {
    /// Stages parked right now.
    pub(crate) parked: usize,
    /// The most stages ever parked at once: above one, I/Os overlapped.
    pub(crate) parked_max: u64,
    /// Stages resumed from the heap.
    pub(crate) resumed: u64,
    /// Stages that met a due time already past and ran inline.
    pub(crate) inline: u64,
}

/// The mesh-wide heap of parked stages (see the module docs). Shared by
/// every component and every reactor; owns no thread.
pub(crate) struct DueHeap {
    heap: Mutex<BinaryHeap<Parked>>,
    /// Due time of the earliest parked stage (nanoseconds on the `mono_now`
    /// timeline), so a sweep that finds nothing due takes no lock — and, with
    /// nothing parked at all, reads no clock.
    earliest: AtomicU64,
    seq: AtomicU64,
    parked_max: AtomicU64,
    resumed: AtomicU64,
    inline: AtomicU64,
    /// The group idle reactors park on: a stage due before anything they
    /// knew of must cut their sleep short.
    wakeup: Arc<WaitSignalGroup>,
}

impl DueHeap {
    pub(crate) fn new(wakeup: Arc<WaitSignalGroup>) -> Self {
        DueHeap {
            heap: Mutex::new(BinaryHeap::new()),
            earliest: AtomicU64::new(NOTHING_PARKED),
            seq: AtomicU64::new(0),
            parked_max: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            wakeup,
        }
    }

    /// The reactor wake group this heap notifies.
    pub(crate) fn wakeup(&self) -> &Arc<WaitSignalGroup> {
        &self.wakeup
    }

    /// Parks `stage` of `core` until `due` — unless `due` has come (or there
    /// is none), in which case the stage is handed back to run inline.
    pub(crate) fn park_unless_due(
        &self,
        due: Option<Duration>,
        core: &Arc<ComponentCore>,
        stage: Stage,
    ) -> Option<Stage> {
        let Some(due) = due.filter(|due| *due > mono_now()) else {
            self.inline.fetch_add(1, Ordering::Relaxed);
            return Some(stage);
        };
        let nanos = due.as_nanos() as u64;
        let mut heap = self.heap.lock();
        heap.push(Parked {
            due,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            core: Arc::clone(core),
            stage,
        });
        self.parked_max
            .fetch_max(heap.len() as u64, Ordering::Relaxed);
        let sooner = nanos < self.earliest.load(Ordering::Relaxed);
        if sooner {
            self.earliest.store(nanos, Ordering::Release);
        }
        drop(heap);
        if sooner {
            // An idle reactor sized its sleep by the previous earliest.
            self.wakeup.notify();
        }
        None
    }

    /// Resumes every stage whose due time has come, earliest first. Called at
    /// the top of every reactor sweep; returns true if any stage ran.
    pub(crate) fn run_due(&self) -> bool {
        let mut did = false;
        loop {
            let earliest = self.earliest.load(Ordering::Acquire);
            if earliest == NOTHING_PARKED {
                return did;
            }
            let now = mono_now();
            if (now.as_nanos() as u64) < earliest {
                return did;
            }
            let due = {
                let mut heap = self.heap.lock();
                let due = match heap.peek() {
                    Some(top) if top.due <= now => heap.pop(),
                    _ => None,
                };
                let next = heap
                    .peek()
                    .map_or(NOTHING_PARKED, |top| top.due.as_nanos() as u64);
                self.earliest.store(next, Ordering::Release);
                due
            };
            let Some(parked) = due else { return did };
            self.resumed.fetch_add(1, Ordering::Relaxed);
            parked.core.resume_stage(parked.stage);
            did = true;
        }
    }

    /// Due time of the earliest parked stage, if any: an idle reactor must
    /// not sleep past it.
    pub(crate) fn next_due(&self) -> Option<Duration> {
        let earliest = self.earliest.load(Ordering::Acquire);
        (earliest != NOTHING_PARKED).then(|| Duration::from_nanos(earliest))
    }

    /// Drops every parked stage of `core` (it was killed: its in-flight work
    /// dies with it and completes nothing).
    pub(crate) fn forget(&self, core: &ComponentCore) {
        if self.earliest.load(Ordering::Acquire) == NOTHING_PARKED {
            return;
        }
        let mut heap = self.heap.lock();
        heap.retain(|parked| !std::ptr::eq(Arc::as_ptr(&parked.core), core));
        let next = heap
            .peek()
            .map_or(NOTHING_PARKED, |top| top.due.as_nanos() as u64);
        self.earliest.store(next, Ordering::Release);
    }

    /// The heap's counters.
    pub(crate) fn stats(&self) -> IoStats {
        IoStats {
            parked: self.heap.lock().len(),
            parked_max: self.parked_max.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
        }
    }
}
