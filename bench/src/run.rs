//! One run of one workload in this process: set-up, measured window(s),
//! audit, and the metrics computed from them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::harness::{self, Window};
use crate::layers::{self, Counters};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile_sorted, sort, supported};
use crate::trace::{self, Span};
use crate::workloads::{self, FailureStats, Workload};

/// An untraced run sets the workload up several times and reports the
/// median, so one slow thread spawn does not decide `setup_s`: the set-up
/// it measures on, then again after the window — at least three in all,
/// and on until they add up to a second (a short set-up needs more samples
/// than a 1 s one to be steady), but never more than 21.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 21;
const SETUP_MIN_TOTAL_S: f64 = 1.0;

/// How a traced run divides its `--seconds`: two untraced reference windows
/// (the base of `trace.overhead_share`), one before and one after the
/// traced window because throughput drifts as a run's state grows; the
/// traced window; the single-caller round trip; and the store / queue /
/// baseline probes.
const TRACE_REFERENCE_SHARE: f64 = 0.1;
const TRACE_WINDOW_SHARE: f64 = 0.6;
const TRACE_ONE_CALLER_SHARE: f64 = 0.05;
const TRACE_PROBE_SHARE: f64 = 0.15;

/// Period of the resident-actor sampler of a traced window.
const RESIDENT_SAMPLE_PERIOD: Duration = Duration::from_millis(10);

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number. `samples` is how many observations stand behind a
/// timing (0 for a plain count or ratio).
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
    /// A percentile with fewer than ten samples beyond it is reported, but
    /// flagged: it is a handful of outliers, not a tail.
    pub supported: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first audit messages, verbatim.
    pub violations: Vec<String>,
    pub metrics: Vec<Measured>,
    /// The spans of a traced run (root, derived legs and actor spans).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn timed_setup(options: &Options) -> (Box<dyn Workload>, f64) {
    let started = Instant::now();
    let workload = workloads::setup(&options.workload, options.seed)
        .unwrap_or_else(|| panic!("unknown workload {}", options.workload));
    (workload, started.elapsed().as_secs_f64())
}

/// Folds the end-of-run audit into the window's failure count.
fn audit(workload: &mut dyn Workload, window: &mut Window) -> u64 {
    let violations = workload.audit();
    let count = violations.len() as u64;
    for violation in violations {
        // An audit violation is a wrong output of the run as a whole; it
        // counts against the operations attempted like a failed one.
        window.fail(violation);
    }
    count
}

pub fn run(options: &Options) -> Outcome {
    if options.trace {
        run_traced(options)
    } else {
        run_untraced(options)
    }
}

fn run_untraced(options: &Options) -> Outcome {
    let (mut workload, first_setup) = timed_setup(options);
    let mut window = workload.run(options.seconds);
    audit(workload.as_mut(), &mut window);
    // Read before the extra set-ups below, so the peak is that of one
    // deployment of the workload, not of several in a row.
    let peak_rss_mb = harness::peak_rss_mb();
    let failures = workload.failure_stats().cloned();
    workload.mesh().shutdown();
    drop(workload);

    let mut setups = vec![first_setup];
    while setups.len() < SETUP_MAX_REPEATS
        && (setups.len() < SETUP_MIN_REPEATS || setups.iter().sum::<f64>() < SETUP_MIN_TOTAL_S)
    {
        let (workload, seconds) = timed_setup(options);
        setups.push(seconds);
        workload.mesh().shutdown();
    }
    Outcome {
        attempted: window.attempted,
        failed: window.failed,
        metrics: end_to_end_metrics(&setups, peak_rss_mb, &window, failures.as_ref()),
        violations: window.violations,
        spans: Vec::new(),
    }
}

fn latencies_ms(window: &Window) -> Vec<f64> {
    let mut ms: Vec<f64> = window
        .latencies_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    sort(&mut ms);
    ms
}

fn end_to_end_metrics(
    setups: &[f64],
    peak_rss_mb: f64,
    window: &Window,
    failures: Option<&FailureStats>,
) -> Vec<Measured> {
    let latencies = latencies_ms(window);
    let count = latencies.len();
    let latency = |percentile: f64| {
        (
            percentile_sorted(&latencies, percentile),
            count as u64,
            supported(percentile, count),
        )
    };
    let plain = |value: f64, samples: usize| (value, samples as u64, true);
    // Only reached for the failure workload: the filter below drops the
    // failure-only metrics everywhere else.
    let over_failures = |samples: fn(&FailureStats) -> &Vec<f64>, summary: fn(&[f64]) -> f64| {
        let samples = samples(failures.expect("filtered to the failure workload"));
        plain(summary(samples), samples.len())
    };
    END_TO_END
        .iter()
        .filter(|metric| !metric.failures_only || failures.is_some())
        .map(|metric| {
            let (value, samples, supported) = match metric.name {
                "setup_s" => plain(median(setups), setups.len()),
                "throughput_ops_s" => plain(window.throughput(), count),
                "latency_p50_ms" => latency(50.0),
                "latency_p95_ms" => latency(95.0),
                "latency_p99_ms" => latency(99.0),
                "peak_rss_mb" => plain(peak_rss_mb, 0),
                "failed_share" => plain(
                    window.failed as f64 / window.attempted.max(1) as f64,
                    window.attempted as usize,
                ),
                "outage_p50_s" => over_failures(|stats| &stats.outages_s, median),
                "outage_mean_s" => over_failures(|stats| &stats.outages_s, mean),
                "straddle_latency_p50_s" => over_failures(|stats| &stats.straddles_s, median),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            Measured {
                name: metric.name,
                unit: metric.unit,
                value,
                samples,
                supported,
            }
        })
        .collect()
}

/// Runs `body` while a sampler thread tracks the peak of the mesh's
/// resident-actor count.
fn with_resident_peak<T>(
    workload: &mut dyn Workload,
    body: impl FnOnce(&mut dyn Workload) -> T,
) -> (T, u64) {
    let mesh = workload.mesh().clone();
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let resident = mesh
                    .live_components()
                    .into_iter()
                    .filter_map(|component| mesh.resident_actors(component))
                    .sum::<usize>();
                peak.fetch_max(resident as u64, Ordering::Relaxed);
                std::thread::sleep(RESIDENT_SAMPLE_PERIOD);
            }
        });
        let result = body(workload);
        stop.store(true, Ordering::Relaxed);
        result
    });
    (result, peak.into_inner())
}

fn run_traced(options: &Options) -> Outcome {
    let (mut workload, _) = timed_setup(options);
    let failure_bound = workload.failure_stats().is_some();

    // A failure-bound window injects a fixed number of failures, so two
    // windows in one process are not the same work; it has no reference.
    let reference_seconds = options.seconds * TRACE_REFERENCE_SHARE;
    let mut references = Vec::new();
    if !failure_bound {
        references.push(workload.run(reference_seconds));
    }

    let before = layers::read_counters(workload.mesh());
    trace::set_enabled(true);
    let (mut window, resident_peak) = with_resident_peak(workload.as_mut(), |workload| {
        workload.run(options.seconds * TRACE_WINDOW_SHARE)
    });
    trace::set_enabled(false);
    let after = layers::read_counters(workload.mesh());
    let mut spans = trace::drain();
    trace::derive_legs(&mut spans);

    if !failure_bound {
        references.push(workload.run(reference_seconds));
    }
    let one_caller = workload.run_one_caller(options.seconds * TRACE_ONE_CALLER_SHARE);
    let mut probes = Vec::new();
    let request = workload.sample_request();
    let probe_budget = Duration::from_secs_f64(options.seconds * TRACE_PROBE_SHARE / 3.0);
    layers::probe_store(workload.mesh(), probe_budget, &mut probes);
    layers::probe_queue(workload.mesh(), &request, probe_budget, &mut probes);
    layers::probe_direct(workload.mesh(), probe_budget, &mut probes);
    layers::probe_types(&request, &mut probes);

    let invariant_violations = audit(workload.as_mut(), &mut window);
    let windows = || references.iter().chain([&window, &one_caller]);
    let attempted = windows().map(|w| w.attempted).sum();
    let failed = windows().map(|w| w.failed).sum();
    let violations = windows()
        .flat_map(|w| w.violations.iter().cloned())
        .collect();
    let reference_throughputs: Vec<f64> = references.iter().map(Window::throughput).collect();

    let mut values: HashMap<&'static str, f64> = probes.into_iter().collect();
    span_metrics(&spans, &mut values);
    counter_metrics(&before, &after, window.completed(), &mut values);
    values.insert(
        "dispatch.reactor_threads",
        workload.mesh().reactor_thread_count() as f64,
    );
    values.insert("passivation.resident_actors_peak", resident_peak as f64);
    let one_caller_us: Vec<f64> = one_caller
        .latencies_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    values.insert("kar.call_rtt_1caller_us", median(&one_caller_us));
    values.insert("trace.ops", window.completed() as f64);
    values.insert("trace.throughput_ops_s", window.throughput());
    if !reference_throughputs.is_empty() {
        values.insert(
            "trace.overhead_share",
            1.0 - window.throughput() / mean(&reference_throughputs),
        );
    }
    if let Some(stats) = workload.failure_stats() {
        failure_metrics(stats, &mut values);
        values.insert("reefer.invariant_violations", invariant_violations as f64);
    }
    workload.mesh().shutdown();

    // A value under a name the table does not list would silently vanish.
    assert!(
        values
            .keys()
            .all(|name| PER_LAYER.iter().any(|metric| metric.name == *name)),
        "a per-layer value has no row in metrics::PER_LAYER"
    );
    let metrics = PER_LAYER
        .iter()
        .map(|metric| Measured {
            name: metric.name,
            unit: metric.unit,
            // A metric that does not apply to this workload reads 0.
            value: values.get(metric.name).copied().unwrap_or(0.0),
            samples: 0,
            supported: true,
        })
        .collect();
    Outcome {
        attempted,
        failed,
        violations,
        metrics,
        spans,
    }
}

/// p50 and p99 of `values` (microseconds), 0.0 when empty.
fn p50_p99(mut values: Vec<f64>) -> (f64, f64) {
    sort(&mut values);
    (
        percentile_sorted(&values, 50.0),
        percentile_sorted(&values, 99.0),
    )
}

fn span_metrics(spans: &[Span], values: &mut HashMap<&'static str, f64>) {
    let selfs = trace::self_times(spans);
    let mut self_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for span in spans {
        self_us
            .entry(span.name)
            .or_default()
            .push(selfs[&span.id] as f64 / 1e3);
    }
    let mut take = |name: &str| p50_p99(self_us.remove(name).unwrap_or_default());
    let (op, op_p99) = p50_p99(
        spans
            .iter()
            .filter(|span| span.name == trace::OP)
            .map(|span| span.duration_ns() as f64 / 1e3)
            .collect(),
    );
    values.insert("kar.op_us", op);
    values.insert("kar.op_p99_us", op_p99);
    let (request, request_p99) = take(trace::REQUEST_LEG);
    let (handler, handler_p99) = take(trace::HANDLER);
    let (response, response_p99) = take(trace::RESPONSE_LEG);
    values.insert("kar.request_leg_us", request);
    values.insert("kar.request_leg_p99_us", request_p99);
    values.insert("kar.handler_us", handler);
    values.insert("kar.handler_p99_us", handler_p99);
    values.insert("kar.response_leg_us", response);
    values.insert("kar.response_leg_p99_us", response_p99);
    values.insert("kar.state_get_us", take(trace::STATE_GET).0);
    values.insert("kar.state_set_us", take(trace::STATE_SET).0);
    values.insert("kar.ctx_tell_us", take(trace::CTX_TELL).0);
    if op > 0.0 {
        values.insert("kar.attributed_share", (request + handler + response) / op);
    }
    values.insert("trace.spans", spans.len() as f64);
}

fn counter_metrics(
    before: &Counters,
    after: &Counters,
    ops: u64,
    values: &mut HashMap<&'static str, f64>,
) {
    let per_op = |later: u64, earlier: u64| (later - earlier) as f64 / ops.max(1) as f64;
    let ratio = |numerator: u64, denominator: u64| {
        if denominator == 0 {
            0.0
        } else {
            numerator as f64 / denominator as f64
        }
    };
    let delta = |later: u64, earlier: u64| (later - earlier) as f64;
    let store = after.store.since(&before.store);
    let entries = [
        (
            "placement.hits_per_op",
            per_op(after.placement_hits, before.placement_hits),
        ),
        (
            "placement.misses_per_op",
            per_op(after.placement_misses, before.placement_misses),
        ),
        (
            "placement.invalidations",
            delta(
                after.placement_invalidations,
                before.placement_invalidations,
            ),
        ),
        ("dispatch.steals", delta(after.steals, before.steals)),
        (
            "dispatch.shard_load_max_over_mean",
            layers::shard_imbalance(before, after),
        ),
        (
            "delivery.request_batch_mean",
            ratio(
                after.requests_batched - before.requests_batched,
                after.request_flushes - before.request_flushes,
            ),
        ),
        (
            "delivery.response_batch_mean",
            ratio(
                after.responses_batched - before.responses_batched,
                after.response_flushes - before.response_flushes,
            ),
        ),
        (
            "delivery.request_flushes_per_op",
            per_op(after.request_flushes, before.request_flushes),
        ),
        (
            "delivery.response_flushes_per_op",
            per_op(after.response_flushes, before.response_flushes),
        ),
        (
            "continuation.parks_per_op",
            per_op(after.continuation_parks, before.continuation_parks),
        ),
        ("state_cache.entries_end", after.state_cache_entries as f64),
        (
            "state_cache.evictions",
            delta(after.state_cache_evictions, before.state_cache_evictions),
        ),
        (
            "passivation.passivations_per_op",
            per_op(after.passivations, before.passivations),
        ),
        (
            "passivation.rehydrations_per_op",
            per_op(after.rehydrations, before.rehydrations),
        ),
        (
            "passivation.admission_deferrals",
            delta(after.admission_deferrals, before.admission_deferrals),
        ),
        (
            "retry.scheduled_per_op",
            per_op(after.retry.scheduled, before.retry.scheduled),
        ),
        ("retry.shed", delta(after.retry.shed, before.retry.shed)),
        (
            "retry.dead_lettered",
            delta(after.retry.dead_lettered, before.retry.dead_lettered),
        ),
        (
            "queue.appends_per_op",
            per_op(after.queue_appends, before.queue_appends),
        ),
        ("store.round_trips_per_op", per_op(store.round_trips, 0)),
        ("store.reads_per_op", per_op(store.reads, 0)),
        ("store.writes_per_op", per_op(store.writes, 0)),
        ("store.cas_per_op", per_op(store.cas, 0)),
        ("store.pipeline_ops_per_flush", store.mean_pipeline_batch()),
        ("store.keys_end", after.store_keys as f64),
    ];
    values.extend(entries);
}

fn failure_metrics(stats: &FailureStats, values: &mut HashMap<&'static str, f64>) {
    let max = |samples: &[f64]| samples.iter().copied().fold(0.0, f64::max);
    let entries = [
        ("recovery.detection_p50_s", median(&stats.detections_s)),
        ("recovery.consensus_p50_s", median(&stats.consensus_s)),
        (
            "recovery.reconciliation_p50_s",
            median(&stats.reconciliations_s),
        ),
        (
            "recovery.reconciliation_max_s",
            max(&stats.reconciliations_s),
        ),
        (
            "recovery.rehomed_requests_per_failure",
            mean(&stats.rehomed_requests),
        ),
        ("recovery.outage_p50_s", median(&stats.outages_s)),
        ("recovery.outage_mean_s", mean(&stats.outages_s)),
        (
            "recovery.straddle_latency_p50_s",
            median(&stats.straddles_s),
        ),
        ("reefer.advance_day_ms", median(&stats.advance_day_ms)),
    ];
    values.extend(entries);
}
