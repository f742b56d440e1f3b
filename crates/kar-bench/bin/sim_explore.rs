//! Deterministic-simulation explorer: sweeps seeds and kill-step
//! perturbation points over chaos scenarios, feeding each observed history
//! through the `kar-semantics` conformance oracle.
//!
//! Usage:
//!
//! ```text
//! sim_explore [--smoke | --efficacy | --replay] [--seeds N] [--kill-steps N]
//! ```
//!
//! * `--smoke` — the CI gate: a bounded sweep over every scenario; exits
//!   nonzero (printing a replay line) on any conformance violation.
//! * `--efficacy` — proves the oracle has teeth: re-opens the historical
//!   stranded-response bug (`debug_skip_stranded_rehoming`) and sweeps the
//!   `kill-while-parked` scenario until the oracle catches it. Exits
//!   nonzero if the deliberately broken tree produces *no* violation.
//! * `--replay` — re-runs exactly one `(scenario, seed, kill_step)` triple
//!   from the environment (`KAR_SIM_SCENARIO`, `KAR_SIM_SEED`,
//!   `KAR_SIM_STEPS`), as printed in a failing sweep's replay line.
//! * default — a wider sweep (tune with `--seeds` / `--kill-steps`).
//!
//! Every run prints a `digest <scenario> seed=<s> kill_step=<k> <16 hex>`
//! line ahead of its run line: an FNV-1a 64 digest of the run's ordered
//! history and of its actors' final state. Two builds whose digests agree
//! on every common run behaved alike there; `scripts/digest_diff.py`
//! compares two such outputs.
//!
//! Determinism makes the replay line the whole bug report: the same triple
//! is the same execution, bit for bit.

use std::process::ExitCode;

use kar_bench::sim::{run_scenario, SimOutcome, SCENARIOS};

/// Base seed for sweeps; arbitrary, stable so CI runs are comparable.
const BASE_SEED: u64 = 0x5EED;

/// Prints `outcome`'s digest line and run line; true if the run was clean.
fn report(outcome: &SimOutcome) -> bool {
    println!(
        "digest {} seed={} kill_step={} {:016x}",
        outcome.scenario, outcome.seed, outcome.kill_step, outcome.digest
    );
    if outcome.violations.is_empty() {
        println!(
            "  ok   {:<22} seed={:<6} kill_step={:<4} steps={} events={}",
            outcome.scenario, outcome.seed, outcome.kill_step, outcome.steps, outcome.events
        );
        return true;
    }
    println!(
        "  FAIL {:<22} seed={:<6} kill_step={:<4} steps={} events={}",
        outcome.scenario, outcome.seed, outcome.kill_step, outcome.steps, outcome.events
    );
    for violation in &outcome.violations {
        println!("       {violation}");
    }
    println!(
        "       replay: KAR_SIM_SCENARIO={} KAR_SIM_SEED={} KAR_SIM_STEPS={} \
         cargo run -p kar-bench --bin sim_explore -- --replay",
        outcome.scenario, outcome.seed, outcome.kill_step
    );
    false
}

/// Sweeps `seeds × kill_steps` over the named scenarios; returns the first
/// violating outcome (the minimized reproducer: lowest seed, then lowest
/// kill step, in scenario order) unless `keep_going`, in which case every
/// run executes and the first failure is still the one returned.
fn sweep(
    scenarios: &[&str],
    seeds: u64,
    kill_steps: u64,
    stride: u64,
    rebreak: bool,
    keep_going: bool,
) -> (usize, Option<SimOutcome>) {
    let mut runs = 0;
    let mut first_failure: Option<SimOutcome> = None;
    for scenario in scenarios {
        for seed in 0..seeds {
            for kill in 0..kill_steps {
                let outcome = run_scenario(scenario, BASE_SEED + seed, kill * stride, rebreak)
                    .expect("scenario names come from the registry");
                runs += 1;
                if !report(&outcome) && first_failure.is_none() {
                    first_failure = Some(outcome);
                    if !keep_going {
                        return (runs, first_failure);
                    }
                }
            }
        }
    }
    (runs, first_failure)
}

fn arg_value(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<&str> = SCENARIOS.iter().map(|(name, _)| *name).collect();

    if args.iter().any(|a| a == "--replay") {
        let scenario = std::env::var("KAR_SIM_SCENARIO").unwrap_or_default();
        let (Some(seed), Some(kill_step)) = (env_u64("KAR_SIM_SEED"), env_u64("KAR_SIM_STEPS"))
        else {
            eprintln!("--replay needs KAR_SIM_SCENARIO, KAR_SIM_SEED and KAR_SIM_STEPS set");
            return ExitCode::FAILURE;
        };
        let rebreak = std::env::var("KAR_SIM_REBREAK").is_ok();
        println!("replaying {scenario} seed={seed} kill_step={kill_step} rebreak={rebreak}");
        let Some(outcome) = run_scenario(&scenario, seed, kill_step, rebreak) else {
            eprintln!("unknown scenario {scenario:?}; known: {all:?}");
            return ExitCode::FAILURE;
        };
        return if report(&outcome) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--efficacy") {
        // The oracle must catch a real, historical bug: skip reconciliation
        // step 6½ (stranded-response re-homing) and sweep kill points in
        // the parked-continuation window until a lost response surfaces.
        println!("efficacy: sweeping kill-while-parked with stranded-response re-homing disabled");
        let (runs, failure) = sweep(&["kill-while-parked"], 4, 80, 1, true, false);
        println!("{runs} runs");
        return match failure {
            Some(_) => {
                println!(
                    "efficacy PASS: the oracle caught the re-broken invariant \
                     (add KAR_SIM_REBREAK=1 to the replay line above)"
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "efficacy FAIL: {runs} runs on a deliberately broken tree \
                     produced no conformance violation — the oracle is blind"
                );
                ExitCode::FAILURE
            }
        };
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let (seeds, kill_steps, stride) = if smoke {
        (2, 10, 7)
    } else {
        (
            arg_value(&args, "--seeds", 6),
            arg_value(&args, "--kill-steps", 30),
            3,
        )
    };
    println!(
        "sweeping {} scenarios × {seeds} seeds × {kill_steps} kill points (stride {stride})",
        all.len()
    );
    let (runs, failure) = sweep(&all, seeds, kill_steps, stride, false, true);
    println!("{runs} runs");
    match failure {
        Some(_) => {
            eprintln!("conformance violations found — replay lines above");
            ExitCode::FAILURE
        }
        None => {
            println!("oracle clean: every observed history conforms");
            ExitCode::SUCCESS
        }
    }
}
