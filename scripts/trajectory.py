#!/usr/bin/env python3
"""Benchmark trajectory: one row per workload per PR, appended — never
rewritten — to BENCH_trajectory.jsonl at the repo root.

    scripts/trajectory.py append --pr 23 [--report bench/out/report.json] [--commit SHA]
    scripts/trajectory.py --check

`append` distils the report `bench all` wrote (run from the repo root:
`cargo run --release --quiet --manifest-path bench/Cargo.toml -- all --seed 1
--repeat 3`) into one row per workload: commit, nproc, seed, seconds, repeat,
attempted/failed, and the median and quartiles of each end-to-end metric
BENCHMARK.json declares. Rows back-filled by hand from CHANGES.md carry
`"source": "CHANGES"` and null quartiles where CHANGES records none.
`--check` verifies every line parses and carries every declared metric.
Standard library only; lives outside bench/ because bench/ is frozen.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
ROW_KEYS = ("pr", "commit", "source", "workload", "nproc", "seed", "seconds", "failed", "metrics")


def declared_metrics():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in contract["end_to_end"]]


def rows_of(report, pr, commit):
    metrics = declared_metrics()
    for workload in report["workloads"]:
        yield {
            "pr": pr,
            "commit": commit or report["commit"],
            "source": "report",
            "workload": workload["name"],
            "nproc": report["nproc"],
            "seed": report["seed"],
            "seconds": report["seconds"],
            "repeat": report["repeat"],
            "attempted": workload["attempted"],
            "failed": workload["failed"],
            "metrics": {
                name: {key: workload["metrics"][name].get(key) for key in ("median", "q1", "q3")}
                for name in metrics
            },
        }


def append(args):
    report = json.loads(pathlib.Path(args.report).read_text())
    if report.get("kind") != "end_to_end":
        sys.exit(f"{args.report} is a {report.get('kind')} report, not an end_to_end one")
    with TRAJECTORY.open("a") as out:
        for row in rows_of(report, args.pr, args.commit):
            out.write(json.dumps(row) + "\n")
            print(f"PR {row['pr']} {row['workload']}: appended")


def check():
    metrics = declared_metrics()
    problems = []
    lines = TRAJECTORY.read_text().splitlines()
    for number, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
        except ValueError as error:
            problems.append(f"line {number}: does not parse ({error})")
            continue
        missing = [key for key in ROW_KEYS if key not in row]
        missing += [
            f"metrics.{name}.median"
            for name in metrics
            if not isinstance(row.get("metrics", {}).get(name, {}).get("median"), (int, float))
        ]
        if missing:
            problems.append(f"line {number}: missing {', '.join(missing)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{TRAJECTORY.name}: {len(lines)} rows, {len(problems)} problems")
    sys.exit(1 if problems or not lines else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="validate BENCH_trajectory.jsonl")
    commands = parser.add_subparsers(dest="command")
    appender = commands.add_parser("append", help="append one row per workload of a report")
    appender.add_argument("--pr", type=int, required=True)
    appender.add_argument("--report", default=str(ROOT / "bench" / "out" / "report.json"))
    appender.add_argument("--commit", help="override the commit the report recorded")
    args = parser.parse_args()
    if args.check:
        check()
    elif args.command == "append":
        append(args)
    else:
        parser.error("give `append` or --check")


if __name__ == "__main__":
    main()
