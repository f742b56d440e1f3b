//! In-memory spans recorded by the benchmark's own code around the public
//! calls into each layer, and the self-time arithmetic over them.
//!
//! One operation of a workload is one root span named `op` whose id is the
//! op id the caller carries in the request arguments. The benchmark's actors
//! stamp `kar.handler` (parent: the op) around their body and
//! `kar.state_get` / `kar.state_set` / `kar.ctx_tell` (parent: the handler)
//! around each call into the runtime. The two legs the benchmark cannot see
//! into — caller to first handler entry, last handler exit to woken caller —
//! are derived afterwards as `kar.request_leg` and `kar.response_leg`.
//!
//! Recording is off unless a traced window is running: with it off a
//! handler pays one relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub const OP: &str = "op";
pub const REQUEST_LEG: &str = "kar.request_leg";
pub const HANDLER: &str = "kar.handler";
pub const RESPONSE_LEG: &str = "kar.response_leg";
pub const STATE_GET: &str = "kar.state_get";
pub const STATE_SET: &str = "kar.state_set";
pub const CTX_TELL: &str = "kar.ctx_tell";

/// One recorded interval. Times are nanoseconds since the process-wide
/// trace epoch; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Op ids (and so root span ids) are handed out from 1; every other span id
/// comes from a counter starting here, far above any op id a run reaches.
const FIRST_CHILD_ID: u64 = 1 << 40;

const SHARDS: usize = 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static NEXT_CHILD: AtomicU64 = AtomicU64::new(FIRST_CHILD_ID);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: [Mutex<Vec<Span>>; SHARDS] = [const { Mutex::new(Vec::new()) }; SHARDS];

/// Nanoseconds since the trace epoch (fixed at first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `instant` on the trace clock.
pub fn ns_of(instant: Instant) -> u64 {
    instant
        .saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// A fresh op id, unique within the process.
pub fn next_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    // Fix the epoch before any span can be stamped against it.
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stores a finished span. Sharded by op so concurrent handlers of
/// different ops rarely meet on one lock.
pub fn record(span: Span) {
    BUFFERS[(span.op % SHARDS as u64) as usize]
        .lock()
        .expect("no recorder panics while holding a span buffer")
        .push(span);
}

/// Records the root span of op `op`.
pub fn record_op(op: u64, start: Instant, end: Instant) {
    if enabled() {
        record(Span {
            id: op,
            parent: 0,
            op,
            name: OP,
            start_ns: ns_of(start),
            end_ns: ns_of(end),
        });
    }
}

/// An open span inside a benchmark actor.
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span if recording is on.
pub fn begin(name: &'static str, parent: u64, op: u64) -> Option<Open> {
    enabled().then(|| Open {
        id: NEXT_CHILD.fetch_add(1, Ordering::Relaxed),
        parent,
        op,
        name,
        start_ns: now_ns(),
    })
}

/// Closes a span opened by [`begin`].
pub fn end(open: Option<Open>) {
    if let Some(open) = open {
        record(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: now_ns(),
        });
    }
}

/// Times `body` as a child of `parent` when a handler span is open.
pub fn child<T>(name: &'static str, parent: &Option<Open>, body: impl FnOnce() -> T) -> T {
    let open = parent
        .as_ref()
        .and_then(|handler| begin(name, handler.id, handler.op));
    let result = body();
    end(open);
    result
}

/// Takes every recorded span out of the buffers.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in &BUFFERS {
        all.append(
            &mut buffer
                .lock()
                .expect("no recorder panics while holding a span buffer"),
        );
    }
    all
}

/// Adds the two derived legs to every op that has a root and at least one
/// handler span: `kar.request_leg` from the caller's start to the first
/// handler entry, `kar.response_leg` from the last handler exit to the
/// caller's wake-up. Ops without a handler span (a workload whose actors
/// are not the benchmark's) get none.
pub fn derive_legs(spans: &mut Vec<Span>) {
    let mut handlers: HashMap<u64, (u64, u64)> = HashMap::new();
    for span in spans.iter().filter(|s| s.name == HANDLER) {
        let entry = handlers.entry(span.op).or_insert((u64::MAX, 0));
        entry.0 = entry.0.min(span.start_ns);
        entry.1 = entry.1.max(span.end_ns);
    }
    let mut legs = Vec::new();
    for root in spans.iter().filter(|s| s.name == OP) {
        let Some(&(first_entry, last_exit)) = handlers.get(&root.op) else {
            continue;
        };
        // A handler that signals the caller before it returns can exit
        // after the caller woke: clamp each leg inside the root.
        let leg = |name, start_ns: u64, end_ns: u64| {
            let start_ns = start_ns.clamp(root.start_ns, root.end_ns);
            Span {
                id: NEXT_CHILD.fetch_add(1, Ordering::Relaxed),
                parent: root.id,
                op: root.op,
                name,
                start_ns,
                end_ns: end_ns.clamp(start_ns, root.end_ns),
            }
        };
        legs.push(leg(REQUEST_LEG, root.start_ns, first_entry));
        legs.push(leg(RESPONSE_LEG, last_exit, root.end_ns));
    }
    spans.append(&mut legs);
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (a fan-out)
/// and may stick out of the parent (a handler outliving the woken caller);
/// the cover is the union of the child intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let covered = children.get_mut(&span.id).map_or(0, |intervals| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                covered
            });
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, OP, 0, 100),
            // Two overlapping children and one disjoint: cover 10..50, 60..70.
            span(10, 1, HANDLER, 10, 40),
            span(11, 1, HANDLER, 30, 50),
            span(12, 1, HANDLER, 60, 70),
            // Grandchildren count against their own parent only.
            span(20, 10, STATE_GET, 12, 20),
            span(21, 10, STATE_SET, 20, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&10], 30 - 8 - 5);
        assert_eq!(selfs[&11], 20);
        assert_eq!(selfs[&20], 8);
    }

    #[test]
    fn child_cover_is_clipped_to_the_parent() {
        let spans = vec![
            span(1, 0, OP, 50, 100),
            // Starts before and ends after the parent; nested duplicate.
            span(10, 1, HANDLER, 40, 120),
            span(11, 1, HANDLER, 60, 70),
        ];
        assert_eq!(self_times(&spans)[&1], 0);
        let spans = vec![span(1, 0, OP, 50, 100), span(10, 1, HANDLER, 90, 130)];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn legs_partition_a_single_handler_op() {
        let mut spans = vec![span(1, 0, OP, 100, 200), span(10, 1, HANDLER, 130, 150)];
        derive_legs(&mut spans);
        let leg = |name| spans.iter().find(|s| s.name == name).unwrap().clone();
        assert_eq!(
            (leg(REQUEST_LEG).start_ns, leg(REQUEST_LEG).end_ns),
            (100, 130)
        );
        assert_eq!(
            (leg(RESPONSE_LEG).start_ns, leg(RESPONSE_LEG).end_ns),
            (150, 200)
        );
        // Legs + handler cover the whole op: the root has no self time, and
        // the three self times add up to the op's latency.
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 0);
        let attributed: u64 = spans
            .iter()
            .filter(|s| s.name != OP)
            .map(|s| selfs[&s.id])
            .sum();
        assert_eq!(attributed, 100);
    }

    #[test]
    fn a_handler_outliving_the_caller_yields_an_empty_response_leg() {
        let mut spans = vec![span(1, 0, OP, 100, 200), span(10, 1, HANDLER, 150, 230)];
        derive_legs(&mut spans);
        let response = spans.iter().find(|s| s.name == RESPONSE_LEG).unwrap();
        assert_eq!(response.duration_ns(), 0);
        // An op with no handler span gets no legs.
        let mut bare = vec![span(2, 0, OP, 0, 10)];
        derive_legs(&mut bare);
        assert_eq!(bare.len(), 1);
    }
}
