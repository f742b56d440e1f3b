//! The load generator: a closed loop of caller threads. Callers of KAR block
//! on the reply, so a caller issues its next operation only after the
//! previous one completed; a slow mesh therefore receives less load, and
//! throughput and latency are two views of one number per caller.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::trace;

/// Caller threads of every closed-loop workload on the reference host
/// (`nproc` = 2). The generator never runs more threads than the host has
/// processors, so a smaller host runs fewer.
pub const REFERENCE_CALLERS: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn caller_threads() -> usize {
    REFERENCE_CALLERS.min(nproc())
}

/// What one operation did: when the blocking part started and ended, and
/// why it counts as failed (error, timeout or a reply the audit rejects).
pub struct OpOutcome {
    pub start: Instant,
    pub end: Instant,
    pub violation: Option<String>,
}

/// One caller thread's state: generates the next input from its seeded
/// stream, issues it, and audits the reply.
pub trait Caller: Send {
    fn op(&mut self, op: u64) -> OpOutcome;
}

/// When a loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// Stop issuing once this much time has passed (the measured windows).
    Elapsed(Duration),
    /// Issue exactly this many operations per caller (warm-up is a fixed
    /// amount of work, so `setup_s` measures the same thing every run).
    OpsPerCaller(usize),
}

/// The outcome of one loop over all callers.
#[derive(Default)]
pub struct Window {
    /// Latency of every operation that completed and passed its audit.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Start of the loop to the end of the last operation.
    pub elapsed: Duration,
    /// The first few audit messages, for the report.
    pub violations: Vec<String>,
}

/// How many audit messages a window keeps verbatim.
pub const KEPT_VIOLATIONS: usize = 8;

impl Window {
    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn throughput(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.violations.len() < KEPT_VIOLATIONS {
            self.violations.push(message);
        }
    }

    fn absorb(&mut self, other: Window) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed = self.elapsed.max(other.elapsed);
        let room = KEPT_VIOLATIONS.saturating_sub(self.violations.len());
        self.violations
            .extend(other.violations.into_iter().take(room));
    }
}

/// Runs every caller on its own thread from a common start until `until`.
pub fn closed_loop<C: Caller>(callers: &mut [C], until: Until) -> Window {
    let barrier = Barrier::new(callers.len());
    let mut total = Window::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut window = Window::default();
                    barrier.wait();
                    let started = Instant::now();
                    loop {
                        let go_on = match until {
                            Until::Elapsed(limit) => started.elapsed() < limit,
                            Until::OpsPerCaller(ops) => window.attempted < ops as u64,
                        };
                        if !go_on {
                            break;
                        }
                        let op = trace::next_op();
                        let outcome = caller.op(op);
                        window.attempted += 1;
                        match outcome.violation {
                            None => {
                                trace::record_op(op, outcome.start, outcome.end);
                                window
                                    .latencies_ns
                                    .push((outcome.end - outcome.start).as_nanos() as u64);
                            }
                            Some(message) => window.fail(message),
                        }
                    }
                    window.elapsed = started.elapsed();
                    window
                })
            })
            .collect();
        for thread in threads {
            total.absorb(thread.join().expect("caller thread panicked"));
        }
    });
    total
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; 0.0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        calls: u64,
        fail_every: u64,
    }

    impl Caller for Fake {
        fn op(&mut self, _op: u64) -> OpOutcome {
            self.calls += 1;
            let start = Instant::now();
            OpOutcome {
                start,
                end: start + Duration::from_micros(5),
                violation: self
                    .calls
                    .is_multiple_of(self.fail_every)
                    .then(|| "bad reply".to_owned()),
            }
        }
    }

    #[test]
    fn a_counted_loop_issues_exactly_the_requested_work() {
        let mut callers = vec![
            Fake {
                calls: 0,
                fail_every: 10,
            },
            Fake {
                calls: 0,
                fail_every: u64::MAX,
            },
        ];
        let window = closed_loop(&mut callers, Until::OpsPerCaller(50));
        assert_eq!(window.attempted, 100);
        assert_eq!(window.failed, 5);
        assert_eq!(window.completed(), 95);
        assert_eq!(window.violations.len(), 5);
        assert!(window.latencies_ns.iter().all(|&ns| ns == 5_000));
        assert!(window.throughput() > 0.0);
    }

    #[test]
    fn a_timed_loop_stops_issuing_after_the_window() {
        let mut callers = vec![Fake {
            calls: 0,
            fail_every: u64::MAX,
        }];
        let started = Instant::now();
        let window = closed_loop(&mut callers, Until::Elapsed(Duration::from_millis(20)));
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert!(window.attempted > 0 && window.failed == 0);
        assert!(window.elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn the_generator_never_outnumbers_the_processors() {
        assert!(caller_threads() >= 1);
        assert!(caller_threads() <= nproc());
        assert!(caller_threads() <= REFERENCE_CALLERS);
    }
}
