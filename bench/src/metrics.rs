//! The metric tables: every name a report can carry, with its unit, which
//! direction is better, and — for end-to-end metrics — the share of the
//! baseline's median by which it may worsen before `compare` calls it a
//! regression. `BENCHMARK.json` at the repo root repeats the `contract`
//! rows; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Reported by `--workload … --trace 0` on every workload, i.e. listed
    /// under `end_to_end` in `BENCHMARK.json`. The rest appear in this
    /// package's own reports only (see README, "What BENCHMARK.json
    /// carries").
    pub contract: bool,
    /// Only `reefer_failures` measures it.
    pub failures_only: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: bool,
    failures_only: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        contract,
        failures_only,
    }
}

/// The five metrics every workload is held to carry the widest bound the
/// benchmark contract allows. CPU-bound numbers on the 2-core reference
/// host spread by 4–11 % between runs (quartile distance ÷ median over ten
/// seeds) and shift by up to 20 % between one quarter of an hour and the
/// next; a tighter bound would fail changes that did nothing. See README,
/// "Bounds and run-to-run spread".
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true, false),
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25, true, false),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25, true, false),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25, true, false),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, true, false),
    // Supported (ten samples beyond it) on `echo_inmem`, `counter_ack` and
    // `actor_churn` only, so not a metric every workload can be held to.
    e2e("latency_p99_ms", "ms", Better::Lower, 0.25, false, false),
    // Always 0 on a healthy tree, so it cannot carry a relative bound: any
    // increase is a regression.
    e2e("failed_share", "share", Better::Lower, 0.0, false, false),
    // Timer-bound (session timeout, stabilization window, per-message
    // reconciliation cost): these repeat to about 2 %.
    e2e("outage_p50_s", "s", Better::Lower, 0.10, false, true),
    e2e("outage_mean_s", "s", Better::Lower, 0.10, false, true),
    e2e(
        "straddle_latency_p50_s",
        "s",
        Better::Lower,
        0.10,
        false,
        true,
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|metric| metric.name == name)
}

/// Which direction of metric `name` is better, for either table.
pub fn better(name: &str) -> Option<Better> {
    end_to_end(name).map(|metric| metric.better).or_else(|| {
        PER_LAYER
            .iter()
            .find(|metric| metric.name == name)
            .map(|metric| metric.better)
    })
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, grouped by the module it measures. A traced run
/// reports all of them; one that does not apply to the workload reads 0.
pub const PER_LAYER: [PerLayer; 66] = [
    // kar: the call path, from spans.
    lower("kar.op_us", "us"),
    lower("kar.op_p99_us", "us"),
    lower("kar.request_leg_us", "us"),
    lower("kar.request_leg_p99_us", "us"),
    lower("kar.handler_us", "us"),
    lower("kar.handler_p99_us", "us"),
    lower("kar.response_leg_us", "us"),
    lower("kar.response_leg_p99_us", "us"),
    higher("kar.attributed_share", "share"),
    lower("kar.call_rtt_1caller_us", "us"),
    lower("kar.state_get_us", "us"),
    lower("kar.state_set_us", "us"),
    lower("kar.ctx_tell_us", "us"),
    // kar: the planes, from `Mesh` accessors over the traced window.
    higher("placement.hits_per_op", "1/op"),
    lower("placement.misses_per_op", "1/op"),
    lower("placement.invalidations", "count"),
    higher("dispatch.steals", "count"),
    lower("dispatch.shard_load_max_over_mean", "ratio"),
    lower("dispatch.reactor_threads", "count"),
    higher("delivery.request_batch_mean", "1/flush"),
    higher("delivery.response_batch_mean", "1/flush"),
    lower("delivery.request_flushes_per_op", "1/op"),
    lower("delivery.response_flushes_per_op", "1/op"),
    lower("continuation.parks_per_op", "1/op"),
    lower("state_cache.entries_end", "count"),
    lower("state_cache.evictions", "count"),
    lower("passivation.passivations_per_op", "1/op"),
    lower("passivation.rehydrations_per_op", "1/op"),
    lower("passivation.admission_deferrals", "count"),
    lower("passivation.resident_actors_peak", "count"),
    lower("retry.scheduled_per_op", "1/op"),
    lower("retry.shed", "count"),
    lower("retry.dead_lettered", "count"),
    lower("recovery.detection_p50_s", "s"),
    lower("recovery.consensus_p50_s", "s"),
    lower("recovery.reconciliation_p50_s", "s"),
    lower("recovery.reconciliation_max_s", "s"),
    lower("recovery.rehomed_requests_per_failure", "count"),
    // The failure workload's headline numbers. They are end-to-end
    // metrics of `reefer_failures` (see END_TO_END); a traced run repeats
    // them here so that `BENCHMARK.json` can carry them at all.
    lower("recovery.outage_p50_s", "s"),
    lower("recovery.outage_mean_s", "s"),
    lower("recovery.straddle_latency_p50_s", "s"),
    // kar-queue.
    lower("queue.send_us", "us"),
    lower("queue.send_batch16_us_per_record", "us"),
    lower("queue.poll_us", "us"),
    lower("queue.wake_us", "us"),
    lower("queue.pingpong_rtt_us", "us"),
    lower("queue.appends_per_op", "1/op"),
    // kar-store.
    lower("store.get_us", "us"),
    lower("store.set_us", "us"),
    lower("store.cas_us", "us"),
    lower("store.pipeline8_flush_us", "us"),
    lower("store.round_trips_per_op", "1/op"),
    lower("store.reads_per_op", "1/op"),
    lower("store.writes_per_op", "1/op"),
    lower("store.cas_per_op", "1/op"),
    higher("store.pipeline_ops_per_flush", "1/flush"),
    lower("store.keys_end", "count"),
    // kar-types.
    lower("types.request_bytes", "B"),
    lower("types.envelope_clone_ns", "ns"),
    // kar-reefer.
    lower("reefer.advance_day_ms", "ms"),
    lower("reefer.invariant_violations", "count"),
    // References.
    lower("baseline.direct_rtt_us", "us"),
    higher("trace.spans", "count"),
    lower("trace.overhead_share", "share"),
    higher("trace.ops", "count"),
    higher("trace.throughput_ops_s", "1/s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::SPECS;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        assert!(names.iter().all(|name| name_ok(name)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
    }

    /// `BENCHMARK.json` is written by hand; this is what keeps it equal to
    /// the tables the binary reports from.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_owned();

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), SPECS.len());
        for (entry, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "why"), spec.why);
        }

        let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
        let contract: Vec<_> = END_TO_END.iter().filter(|m| m.contract).collect();
        assert_eq!(listed.len(), contract.len());
        for (entry, metric) in listed.iter().zip(contract) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better.as_str());
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(metric.bound));
        }

        let listed = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, metric) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better.as_str());
        }
    }
}
