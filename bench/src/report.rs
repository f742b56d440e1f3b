//! The modes of the command line: one run in this process (`single`), the
//! parent that re-executes itself once per workload and writes one report
//! (`all`, `trace`, `smoke`), and `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::harness::{caller_threads, nproc};
use crate::json::Json;
use crate::metrics::{self, Better};
use crate::run::{self, Measured, Options, Outcome};
use crate::stats::{highest_supported, median, quartiles, spread_share};
use crate::workloads::{self, SPECS};
use crate::Args;

const DEFAULT_SEED: u64 = 1;
/// Measured window of an `all` run: five workloads, each under 30 s.
const DEFAULT_SECONDS: f64 = 20.0;
/// A `trace` run's seconds cover a reference window, the traced window and
/// the probes (see `run.rs`); 13 s keeps the traced window at 8 s.
const DEFAULT_TRACE_SECONDS: f64 = 13.0;
const SMOKE_SECONDS: f64 = 2.0;
const DEFAULT_OUT_DIR: &str = "bench/out";
/// Spans written to a trace file, earliest first: enough to read a few
/// thousand whole operations without writing hundreds of megabytes.
const SPANS_WRITTEN: usize = 20_000;

// ---------------------------------------------------------------------
// One run in this process
// ---------------------------------------------------------------------

/// The `metrics` object of a result line. The driver's line carries value
/// and unit only; the parent modes ask for everything (`full`).
fn metrics_json<'a>(measured: impl IntoIterator<Item = &'a Measured>, full: bool) -> Json {
    Json::obj(measured.into_iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if full {
            let better = metrics::better(m.name).map_or("", Better::as_str);
            fields.push(("better", Json::str(better)));
            fields.push(("samples", Json::Num(m.samples as f64)));
            fields.push(("supported", Json::Bool(m.supported)));
        }
        (m.name, Json::obj(fields))
    }))
}

/// Why a percentile is flagged, and which one the sample does support.
fn unsupported_note(samples: u64) -> String {
    match highest_supported(samples as usize) {
        Some(p) => format!("fewer than 10 samples beyond it; the sample supports p{p}"),
        None => "fewer than 10 samples beyond it; the sample supports no percentile".to_owned(),
    }
}

fn print_table(options: &Options, outcome: &Outcome) {
    eprintln!(
        "{} seed {} {} s{}: {} attempted, {} failed",
        options.workload,
        options.seed,
        options.seconds,
        if options.trace { " (traced)" } else { "" },
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        let note = match (m.supported, m.samples) {
            (false, n) => format!("  n={n} ({})", unsupported_note(n)),
            (true, 0) => String::new(),
            (true, n) => format!("  n={n}"),
        };
        eprintln!("  {:<40} {:>16.4} {}{note}", m.name, m.value, m.unit);
    }
    for violation in &outcome.violations {
        eprintln!("  VIOLATION: {violation}");
    }
}

fn write_trace_file(path: &Path, options: &Options, outcome: &Outcome) -> Result<(), String> {
    let mut spans: Vec<_> = outcome.spans.iter().collect();
    spans.sort_by_key(|span| (span.start_ns, span.id));
    let doc = Json::obj([
        ("workload", Json::str(&options.workload)),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("span_count", Json::Num(spans.len() as f64)),
        ("metrics", metrics_json(&outcome.metrics, false)),
        (
            "spans",
            Json::Arr(
                spans
                    .into_iter()
                    .take(SPANS_WRITTEN)
                    .map(|span| {
                        Json::obj([
                            ("id", Json::Num(span.id as f64)),
                            ("parent", Json::Num(span.parent as f64)),
                            ("op", Json::Num(span.op as f64)),
                            ("name", Json::str(span.name)),
                            ("start_ns", Json::Num(span.start_ns as f64)),
                            ("end_ns", Json::Num(span.end_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: the last line
/// of standard output is the result object; everything readable goes to
/// standard error.
pub fn single(args: &Args) -> Result<bool, String> {
    let workload = args.flag("workload").expect("dispatch checked").to_owned();
    if workloads::spec(&workload).is_none() {
        let names: Vec<_> = SPECS.iter().map(|spec| spec.name).collect();
        return Err(format!("unknown workload {workload}; one of {names:?}"));
    }
    let options = Options {
        workload,
        seed: args.number("seed", DEFAULT_SEED)?,
        seconds: args.number("seconds", DEFAULT_SECONDS)?,
        trace: match args.flag("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    };
    if !options.seconds.is_finite() || options.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_owned());
    }
    let full = match args.flag("emit") {
        None => false,
        Some("full") => true,
        Some(other) => return Err(format!("--emit {other}: expected full")),
    };
    let outcome = run::run(&options);
    if !full {
        // A parent that asked for the full line prints the table itself.
        print_table(&options, &outcome);
    }
    if let Some(path) = args.flag("trace-out") {
        write_trace_file(Path::new(path), &options, &outcome)?;
    }
    // The driver's line carries the metrics BENCHMARK.json lists and
    // nothing else.
    let listed = outcome
        .metrics
        .iter()
        .filter(|m| full || metrics::end_to_end(m.name).is_none_or(|e| e.contract));
    let metrics = metrics_json(listed, full);
    let mut line = vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ];
    if full {
        line.push((
            "violations",
            Json::Arr(outcome.violations.iter().map(Json::str).collect()),
        ));
    }
    println!("{}", Json::obj(line).compact());
    Ok(outcome.correct())
}

// ---------------------------------------------------------------------
// The parent: one child process per workload and repeat
// ---------------------------------------------------------------------

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |hash| hash.trim().to_owned())
}

fn selected_workloads(args: &Args) -> Result<Vec<&'static str>, String> {
    match args.flag("workloads") {
        None => Ok(SPECS.iter().map(|spec| spec.name).collect()),
        Some(list) => list
            .split(',')
            .map(|name| {
                workloads::spec(name)
                    .map(|spec| spec.name)
                    .ok_or_else(|| format!("unknown workload {name}"))
            })
            .collect(),
    }
}

/// Runs one workload in a fresh process and returns its full result object.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--emit", "full"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} run printed no result ({})", output.status))?;
    Json::parse(line).map_err(|e| format!("the {workload} run's result does not parse: {e}"))
}

/// The report's entry for one workload over `results` (one per repeat).
fn workload_entry(name: &str, results: &[Json]) -> Json {
    let number = |result: &Json, key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let first = &results[0];
    let metric_names: Vec<&String> = first
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|entries| entries.iter().map(|(name, _)| name).collect())
        .unwrap_or_default();
    let metrics = metric_names.into_iter().map(|metric| {
        let of = |result: &Json, key: &str| {
            result
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get(key))
                .cloned()
        };
        let values: Vec<f64> = results
            .iter()
            .filter_map(|result| of(result, "value")?.as_f64())
            .collect();
        let mut fields = vec![
            ("unit", of(first, "unit").unwrap_or(Json::Null)),
            ("median", Json::Num(median(&values))),
        ];
        if let Some((q1, q3)) = quartiles(&values) {
            fields.push(("q1", Json::Num(q1)));
            fields.push(("q3", Json::Num(q3)));
            fields.push(("spread_share", Json::Num(spread_share(&values))));
        }
        fields.push(("better", of(first, "better").unwrap_or(Json::Null)));
        fields.push(("samples", of(first, "samples").unwrap_or(Json::Null)));
        fields.push((
            "supported",
            Json::Bool(
                results
                    .iter()
                    .all(|result| of(result, "supported") != Some(Json::Bool(false))),
            ),
        ));
        fields.push((
            "values",
            Json::Arr(values.into_iter().map(Json::Num).collect()),
        ));
        (metric.clone(), Json::obj(fields))
    });
    Json::obj([
        ("name", Json::str(name)),
        (
            "why",
            Json::str(workloads::spec(name).map_or("", |spec| spec.why)),
        ),
        (
            "correct",
            Json::Bool(
                results
                    .iter()
                    .all(|r| r.get("correct") == Some(&Json::Bool(true))),
            ),
        ),
        (
            "attempted",
            Json::Num(results.iter().map(|r| number(r, "attempted")).sum()),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|r| number(r, "failed")).sum()),
        ),
        (
            "violations",
            Json::Arr(
                results
                    .iter()
                    .filter_map(|r| r.get("violations")?.as_arr())
                    .flatten()
                    .cloned()
                    .collect(),
            ),
        ),
        ("metrics", Json::obj(metrics.collect::<Vec<_>>())),
    ])
}

fn print_entry(entry: &Json) {
    let text = |key: &str| entry.get(key).and_then(Json::as_str).unwrap_or("");
    println!("\n{} — {}", text("name"), text("why"));
    for (name, metric) in entry.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let number = |key: &str| metric.get(key).and_then(Json::as_f64);
        let mut line = format!(
            "  {name:<40} {:>16.4} {}",
            number("median").unwrap_or(0.0),
            metric.get("unit").and_then(Json::as_str).unwrap_or("")
        );
        if let (Some(q1), Some(q3)) = (number("q1"), number("q3")) {
            line += &format!("  [q1 {q1:.4}, q3 {q3:.4}]");
        }
        match number("samples") {
            Some(n) if n > 0.0 => line += &format!("  n={n}"),
            _ => {}
        }
        if metric.get("supported") == Some(&Json::Bool(false)) {
            line += &format!(
                "  ({})",
                unsupported_note(number("samples").unwrap_or(0.0) as u64)
            );
        }
        println!("{line}");
    }
    let failed = entry.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "  audit: {} of {} operations failed",
        failed,
        entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0)
    );
    for violation in entry
        .get("violations")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        println!("  VIOLATION: {}", violation.as_str().unwrap_or(""));
    }
}

/// Runs the selected workloads `repeat` times each and writes one report.
/// Returns whether every audit passed.
fn run_set(
    names: &[&'static str],
    seed: u64,
    seconds: f64,
    repeat: usize,
    trace: bool,
    out_dir: &Path,
) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut entries = Vec::new();
    for &name in names {
        let trace_out = trace.then(|| out_dir.join(format!("trace-{name}.json")));
        let results = (0..repeat)
            .map(|_| child(name, seed, seconds, trace, trace_out.as_deref()))
            .collect::<Result<Vec<_>, _>>()?;
        let entry = workload_entry(name, &results);
        print_entry(&entry);
        entries.push(entry);
    }
    let correct = entries
        .iter()
        .all(|entry| entry.get("correct") == Some(&Json::Bool(true)));
    let report = Json::obj([
        ("benchmark", Json::str("kar-mesh-bench")),
        (
            "kind",
            Json::str(if trace { "per_layer" } else { "end_to_end" }),
        ),
        ("commit", Json::str(git_commit())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(repeat as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("caller_threads", Json::Num(caller_threads() as f64)),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::Arr(entries)),
    ]);
    let path = out_dir.join(if trace { "trace.json" } else { "report.json" });
    std::fs::write(&path, report.pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(correct)
}

fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.flag("out").unwrap_or(DEFAULT_OUT_DIR))
}

/// `all` (untraced, end-to-end metrics) and `trace` (per-layer metrics).
pub fn all(args: &Args, trace: bool) -> Result<bool, String> {
    let default_seconds = if trace {
        DEFAULT_TRACE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let repeat: usize = args.number("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".to_owned());
    }
    run_set(
        &selected_workloads(args)?,
        args.number("seed", DEFAULT_SEED)?,
        args.number("seconds", default_seconds)?,
        repeat,
        trace,
        &out_dir(args),
    )
}

/// Every workload, untraced then traced, on 2 s windows with every audit on.
pub fn smoke(args: &Args) -> Result<bool, String> {
    let names = selected_workloads(args)?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let out = out_dir(args).join("smoke");
    let untraced = run_set(&names, seed, SMOKE_SECONDS, 1, false, &out)?;
    let traced = run_set(&names, seed, SMOKE_SECONDS, 1, true, &out)?;
    Ok(untraced && traced)
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Verdict {
    Improved,
    Unchanged,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
    /// A percentile without ten samples beyond it is not gated.
    Unsupported,
    Regression,
}

/// Judges one (metric, workload) pair. `worse` is the share of the
/// baseline's median by which the candidate is worse (negative: better);
/// `spread` is the larger of the two reports' own run-to-run spreads, when
/// they carry repeats.
fn judge(worse: f64, bound: f64, spread: Option<f64>, supported: bool) -> Verdict {
    if !supported {
        return Verdict::Unsupported;
    }
    let noise = spread.unwrap_or(0.0);
    if worse > bound && worse > noise {
        Verdict::Regression
    } else if noise > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Share of `base` by which `candidate` is worse. A zero baseline (only
/// `failed_share` has one) makes any increase infinitely worse.
fn worse_share(base: f64, candidate: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => candidate - base,
        Better::Higher => base - candidate,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    }
}

fn load_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn report_workloads(report: &Json) -> &[Json] {
    report
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// `compare a.json b.json`: every (end-to-end metric, workload) of the
/// candidate `b` against the baseline `a`, each row against its own bound.
pub fn compare(args: &Args) -> Result<bool, String> {
    let [_, base_path, candidate_path] = args.positional.as_slice() else {
        return Err("usage: bench compare <baseline.json> <candidate.json>".to_owned());
    };
    let base = load_report(base_path)?;
    let candidate = load_report(candidate_path)?;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "bound", "spread"
    );
    let mut regressions = 0;
    for base_entry in report_workloads(&base) {
        let name = base_entry.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(candidate_entry) = report_workloads(&candidate)
            .iter()
            .find(|entry| entry.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for metric in &metrics::END_TO_END {
            let read = |entry: &Json| entry.get("metrics")?.get(metric.name).cloned();
            let (Some(a), Some(b)) = (read(base_entry), read(candidate_entry)) else {
                continue;
            };
            let number = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64);
            let (Some(a_median), Some(b_median)) = (number(&a, "median"), number(&b, "median"))
            else {
                continue;
            };
            let spread = match (number(&a, "spread_share"), number(&b, "spread_share")) {
                (None, None) => None,
                (x, y) => Some(x.unwrap_or(0.0).max(y.unwrap_or(0.0))),
            };
            let supported = [&a, &b]
                .iter()
                .all(|m| m.get("supported") != Some(&Json::Bool(false)));
            let worse = worse_share(a_median, b_median, metric.better);
            let verdict = judge(worse, metric.bound, spread, supported);
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            println!(
                "{name:<16} {:<24} {a_median:>14.4} {b_median:>14.4} {:>8.2}% {:>6.1}% {:>8}  {verdict:?}",
                metric.name,
                worse * 100.0,
                metric.bound * 100.0,
                spread.map_or_else(|| "-".to_owned(), |s| format!("{:.2}%", s * 100.0)),
            );
        }
    }
    println!("\n{regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_share_respects_direction_and_zero_baselines() {
        assert!((worse_share(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_share(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worse_share(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_share(0.0, 0.01, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(judge(0.06, 0.05, None, true), Verdict::Regression);
        assert_eq!(judge(0.04, 0.05, None, true), Verdict::Unchanged);
        assert_eq!(judge(-0.08, 0.05, Some(0.01), true), Verdict::Improved);
        // Spread wider than the bound: neither "unchanged" nor a regression
        // the noise could explain.
        assert_eq!(judge(0.02, 0.05, Some(0.07), true), Verdict::Unresolved);
        assert_eq!(judge(0.06, 0.05, Some(0.07), true), Verdict::Unresolved);
        assert_eq!(judge(0.09, 0.05, Some(0.07), true), Verdict::Regression);
        // failed_share: bound 0, any increase regresses, none is unchanged.
        assert_eq!(
            judge(f64::INFINITY, 0.0, Some(0.0), true),
            Verdict::Regression
        );
        assert_eq!(judge(0.0, 0.0, Some(0.0), true), Verdict::Unchanged);
        assert_eq!(judge(0.5, 0.10, None, false), Verdict::Unsupported);
    }

    #[test]
    fn a_workload_entry_summarises_its_repeats() {
        let result = |value: f64| {
            Json::parse(&format!(
                "{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"violations\": [], \
                 \"metrics\": {{\"latency_p50_ms\": {{\"value\": {value}, \"unit\": \"ms\", \
                 \"samples\": 10, \"supported\": true}}}}}}"
            ))
            .unwrap()
        };
        let entry = workload_entry("echo_inmem", &[result(1.0), result(3.0), result(2.0)]);
        let metric = entry.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(metric.get("median").unwrap().as_f64(), Some(2.0));
        assert_eq!(metric.get("q1").unwrap().as_f64(), Some(1.0));
        assert_eq!(metric.get("q3").unwrap().as_f64(), Some(3.0));
        assert_eq!(entry.get("attempted").unwrap().as_f64(), Some(30.0));
        assert_eq!(entry.get("correct"), Some(&Json::Bool(true)));
        // One repeat: no quartiles, so no spread to judge against.
        let single = workload_entry("echo_inmem", &[result(1.0)]);
        let metric = single
            .get("metrics")
            .unwrap()
            .get("latency_p50_ms")
            .unwrap();
        assert!(metric.get("spread_share").is_none());
    }
}
