//! Regenerates Table 2: median round-trip message latency for the Direct
//! HTTP, Kafka Only, KAR Actor and KAR Actor (no cache) configurations across
//! the ClusterDev, ClusterProd and Managed deployment profiles.
//!
//! Usage: `cargo run --release -p kar-bench --bin table2_latency [iterations] [--json]`
//! (default: 200 round trips per cell; the paper uses 10,000).
//!
//! The table goes to stdout, each row followed by the paper's. With
//! `--json` the table goes to stderr and stdout gets one JSON object per
//! cell instead — profile, column, measured and paper medians in
//! milliseconds, and their ratio — which `scripts/trajectory.py paper`
//! appends to `BENCH_paper.jsonl`. Either way the exit status is 1 when a
//! cell sits more than 25 % from the paper's.

use kar_bench::latency::{measure_row, LatencyConfig, PaperCell, PAPER_BOUND};
use kar_bench::report::millis;
use kar_types::DeploymentProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|arg| arg == "--json");
    let iterations = args.iter().find_map(|arg| arg.parse().ok()).unwrap_or(200);
    let config = LatencyConfig {
        iterations,
        payload_bytes: 20,
    };
    let table = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    table(format!(
        "# Table 2: median round trip message latency in milliseconds ({iterations} iterations per cell)"
    ));
    table(format!(
        "{:<14} {:>12} {:>12} {:>12} {:>18}",
        "", "Direct HTTP", "Kafka Only", "KAR Actor", "KAR Actor (no cache)"
    ));
    let mut off = Vec::new();
    for profile in DeploymentProfile::ALL {
        eprintln!("measuring {profile}...");
        let row = measure_row(profile, &config);
        table(format!(
            "{:<14} {:>12} {:>12} {:>12} {:>18}",
            profile.name(),
            millis(row.direct_http),
            millis(row.kafka_only),
            millis(row.kar_actor),
            millis(row.kar_actor_no_cache),
        ));
        let cells = PaperCell::of_row(&row);
        table(format!(
            "{:<14} {:>12.2} {:>12.2} {:>12.2} {:>18.2}   (paper)",
            "", cells[0].paper_ms, cells[1].paper_ms, cells[2].paper_ms, cells[3].paper_ms
        ));
        for cell in cells {
            if json {
                println!("{}", cell.to_json(iterations));
            }
            if !cell.within_bound() {
                off.push(cell);
            }
        }
    }
    for cell in &off {
        eprintln!(
            "{} {}: {:.2} ms is {:+.1} % from the paper's {:.2} ms (bound {:.0} %)",
            cell.profile,
            cell.column,
            cell.measured_ms,
            (cell.ratio() - 1.0) * 100.0,
            cell.paper_ms,
            PAPER_BOUND * 100.0
        );
    }
    if !off.is_empty() {
        std::process::exit(1);
    }
}
