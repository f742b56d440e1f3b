//! The repo's benchmark: one composed-mesh rig, five workloads, end-to-end
//! metrics from untraced runs and per-layer attribution from traced ones.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! bench all     [--seed n] [--seconds s] [--repeat k] [--workloads a,b] [--out dir]
//! bench trace   [--seed n] [--seconds s] [--workloads a,b] [--out dir]
//! bench compare <a.json> <b.json>
//! bench smoke   [--seed n] [--out dir]
//! ```
//!
//! See `bench/README.md` for the metric glossary and the table of which
//! layer metric should move which end-to-end metric on which workload.

mod actors;
mod harness;
mod json;
mod layers;
mod metrics;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Flags of every mode, parsed once. Each mode reads the ones it documents.
pub struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_owned(), value));
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} {text}: not a valid number")),
        }
    }
}

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bench all     [--seed n] [--seconds s] [--repeat k] [--workloads a,b] [--out dir]
  bench trace   [--seed n] [--seconds s] [--workloads a,b] [--out dir]
  bench compare <a.json> <b.json>
  bench smoke   [--seed n] [--out dir]";

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.positional.first().map(String::as_str) {
        None if args.flag("workload").is_some() => report::single(args),
        Some("all") => report::all(args, false),
        Some("trace") => report::all(args, true),
        Some("smoke") => report::smoke(args),
        Some("compare") => report::compare(args),
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        // A violated audit or a regression: the report was printed.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
