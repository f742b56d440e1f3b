#!/usr/bin/env python3
"""Benchmark trajectory: one row per workload per PR, appended — never
rewritten — to BENCH_trajectory.jsonl at the repo root.

    scripts/trajectory.py append --pr 23 [--report bench/out/report.json] [--commit SHA] [--cpu]
    scripts/trajectory.py paper --pr 40 --commit SHA [--rows FILE]
    scripts/trajectory.py --check

`append` distils the report `bench all` wrote (run from the repo root:
`cargo run --release --quiet --manifest-path bench/Cargo.toml -- all --seed 1
--repeat 3`) into one row per workload: commit, nproc, seed, seconds, repeat,
attempted/failed, and the median and quartiles of each end-to-end metric
BENCHMARK.json declares. Rows back-filled by hand from CHANGES.md carry
`"source": "CHANGES"` and null quartiles where CHANGES records none.

With `--cpu`, `append` also builds the benchmark and runs each workload
once more as a child process of its own (`bench --workload W --seed 1
--seconds 20 --trace 0`), and stores what `getrusage(RUSAGE_CHILDREN)` says
that child used in the workload's row as an optional `cpu` object: CPU
(user + system) microseconds, voluntary and involuntary context switches,
each per operation the run attempted. The binary is
`$CARGO_TARGET_DIR/release/bench` when that variable is set, else
`bench/target/release/bench`.

Rows from different sessions ran on different hosts, so `append` also
records a `calibration` of the host it runs on: a fixed CPU loop and a
thread ping-pong, both run by this script (best of a few rounds). Run it
on the host that ran the report, right after the report.

`--check` verifies every line parses and carries every declared metric, and
warns — without failing — about rows whose calibration moved by more than
CALIBRATION_BOUND from the rows of the previous PR that has one: their
numbers and that PR's are not comparable. Rows without a calibration (older
rows) are not compared. It also warns about every PR number between the
first and the last row that has no row at all (a hole in the trajectory),
and about every row whose CPU per operation moved by more than CPU_BOUND
from the same workload's row of the previous PR that has one, when the two
rows' calibrations agree. Last, it warns when the newest PR CHANGES.md
records has no row: a hole at the end of the trajectory, which the
between-rows check cannot see.

`paper` appends the Table 2 cells `table2_latency --json` printed (read
from --rows, or stdin) to BENCH_paper.jsonl, each with the PR, the commit
it measured and the same host calibration; `--check` parses that file
too. Each row is one (profile, column) cell: measured and paper medians
in milliseconds and their ratio.

Standard library only; lives outside bench/ because bench/ is frozen.
"""

import argparse
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
ROW_KEYS = ("pr", "commit", "source", "workload", "nproc", "seed", "seconds", "failed", "metrics")
PAPER = ROOT / "BENCH_paper.jsonl"
CHANGES = ROOT / "CHANGES.md"
# A CHANGES.md line that opens a PR's entry: "PR <n> [archetype] ...",
# "PR <n> (date): ..." or "- **PR <n> — ...".
PR_ENTRY = re.compile(r"^(?:- \*\*)?PR (\d+)\b")
PAPER_KEYS = ("pr", "commit", "profile", "column", "iterations", "measured_ms", "paper_ms", "ratio", "calibration")
# The end-to-end bound BENCHMARK.json gives every metric.
CALIBRATION_BOUND = 0.25
CPU_LOOP_ITERATIONS = 2_000_000
PING_PONG_ROUNDS = 2_000
CALIBRATION_REPEATS = 5
# How far CPU per operation may move between PRs before --check warns.
CPU_BOUND = 0.25
CPU_SEED = 1
CPU_SECONDS = 20
CPU_KEYS = ("cpu_us_per_op", "vcsw_per_op", "ivcsw_per_op")


def declared_metrics():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in contract["end_to_end"]]


def cpu_loop_ms():
    """Milliseconds for a fixed integer loop: single-core speed."""
    started = time.perf_counter()
    state = 1
    for _ in range(CPU_LOOP_ITERATIONS):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return (time.perf_counter() - started) * 1e3


def ping_pong_us():
    """Microseconds per round trip of a token between two threads: the
    wake-up latency the runtime's reactors and callers pay."""
    ping, pong = threading.Event(), threading.Event()

    def responder():
        for _ in range(PING_PONG_ROUNDS):
            ping.wait()
            ping.clear()
            pong.set()

    thread = threading.Thread(target=responder)
    thread.start()
    started = time.perf_counter()
    for _ in range(PING_PONG_ROUNDS):
        ping.set()
        pong.wait()
        pong.clear()
    elapsed = time.perf_counter() - started
    thread.join()
    return elapsed * 1e6 / PING_PONG_ROUNDS


def calibrate():
    """The host calibration a row carries: best of a few rounds each."""
    return {
        "cpu_loop_ms": round(min(cpu_loop_ms() for _ in range(CALIBRATION_REPEATS)), 3),
        "ping_pong_us": round(min(ping_pong_us() for _ in range(CALIBRATION_REPEATS)), 3),
    }


def bench_binary():
    """Where `cargo build --manifest-path bench/Cargo.toml` puts the bench."""
    target = os.environ.get("CARGO_TARGET_DIR")
    return (pathlib.Path(target) if target else ROOT / "bench" / "target") / "release" / "bench"


def build_bench():
    manifest = ROOT / "bench" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(manifest)], check=True
    )


def cpu_of(binary, workload):
    """One untraced run of `workload` as a child process of its own: what it
    used per attempted operation, from RUSAGE_CHILDREN deltas."""
    command = [
        str(binary), "--workload", workload, "--seed", str(CPU_SEED),
        "--seconds", str(CPU_SECONDS), "--trace", "0",
    ]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    ops = json.loads(done.stdout.strip().splitlines()[-1])["attempted"]
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {
        "seed": CPU_SEED,
        "seconds": CPU_SECONDS,
        "ops": ops,
        "cpu_us_per_op": round(cpu_s * 1e6 / ops, 3),
        "vcsw_per_op": round((after.ru_nvcsw - before.ru_nvcsw) / ops, 4),
        "ivcsw_per_op": round((after.ru_nivcsw - before.ru_nivcsw) / ops, 4),
    }


def rows_of(report, pr, commit, calibration):
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
            "calibration": calibration,
        }


def append(args):
    report = json.loads(pathlib.Path(args.report).read_text())
    if report.get("kind") != "end_to_end":
        sys.exit(f"{args.report} is a {report.get('kind')} report, not an end_to_end one")
    cpu = {}
    if args.cpu:
        build_bench()
        for workload in report["workloads"]:
            cpu[workload["name"]] = cpu_of(bench_binary(), workload["name"])
            print(f"{workload['name']}: {cpu[workload['name']]}")
    calibration = calibrate()
    print(f"host calibration: {calibration}")
    with TRAJECTORY.open("a") as out:
        for row in rows_of(report, args.pr, args.commit, calibration):
            if row["workload"] in cpu:
                row["cpu"] = cpu[row["workload"]]
            out.write(json.dumps(row) + "\n")
            print(f"PR {row['pr']} {row['workload']}: appended")


def append_paper(args):
    source = open(args.rows) if args.rows else sys.stdin
    cells = [json.loads(line) for line in source if line.strip()]
    if not cells:
        sys.exit("no Table 2 cells to append")
    calibration = calibrate()
    print(f"host calibration: {calibration}")
    with PAPER.open("a") as out:
        for cell in cells:
            row = {"pr": args.pr, "commit": args.commit, **cell, "calibration": calibration}
            out.write(json.dumps(row) + "\n")
            print(f"PR {args.pr} {cell['profile']} {cell['column']}: ratio {cell['ratio']}")


def check_paper():
    """Problems with BENCH_paper.jsonl: lines that do not parse or lack a key."""
    if not PAPER.exists():
        return [], 0
    lines = PAPER.read_text().splitlines()
    problems = []
    for number, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
        except ValueError as error:
            problems.append(f"{PAPER.name} line {number}: does not parse ({error})")
            continue
        missing = [key for key in PAPER_KEYS if key not in row]
        if missing:
            problems.append(f"{PAPER.name} line {number}: missing {', '.join(missing)}")
    return problems, len(lines)


def calibration_drift(rows):
    """Warnings for calibrated rows whose calibration moved by more than
    CALIBRATION_BOUND from the median of the previous calibrated PR's rows."""
    by_pr = {}
    for number, row in rows:
        if isinstance(row.get("calibration"), dict):
            by_pr.setdefault(row["pr"], []).append((number, row))
    warnings = []
    prs = sorted(by_pr)
    for previous, current in zip(prs, prs[1:]):
        for name in by_pr[current][0][1]["calibration"]:
            before = sorted(
                row["calibration"][name]
                for _, row in by_pr[previous]
                if isinstance(row["calibration"].get(name), (int, float))
            )
            if not before:
                continue
            baseline = before[len(before) // 2]
            for number, row in by_pr[current]:
                value = row["calibration"].get(name)
                if isinstance(value, (int, float)) and baseline > 0:
                    moved = value / baseline - 1
                    if abs(moved) > CALIBRATION_BOUND:
                        warnings.append(
                            f"line {number}: PR {current} {row['workload']}: calibration "
                            f"{name} {value} is {moved:+.0%} from PR {previous}'s {baseline}; "
                            "the two PRs' numbers are not comparable"
                        )
    return warnings


def calibrations_agree(a, b):
    """True when two rows' calibrations name the same measures, each within
    CALIBRATION_BOUND of the other."""
    if not isinstance(a, dict) or not isinstance(b, dict) or a.keys() != b.keys():
        return False
    for name, value in a.items():
        other = b[name]
        if not isinstance(value, (int, float)) or not isinstance(other, (int, float)) or other <= 0:
            return False
        if abs(value / other - 1) > CALIBRATION_BOUND:
            return False
    return True


def cpu_drift(rows):
    """Warnings for rows whose CPU per operation moved by more than CPU_BOUND
    from the same workload's row of the previous PR that measured it, when
    the two rows' calibrations agree (otherwise they are not comparable)."""
    measured = {}
    warnings = []
    for number, row in rows:
        if not isinstance(row.get("cpu"), dict):
            continue
        earlier = [r for r in measured.get(row["workload"], []) if r["pr"] < row["pr"]]
        measured.setdefault(row["workload"], []).append(row)
        if not earlier or not calibrations_agree(row.get("calibration"), earlier[-1].get("calibration")):
            continue
        before, now = earlier[-1]["cpu"]["cpu_us_per_op"], row["cpu"]["cpu_us_per_op"]
        moved = now / before - 1 if before > 0 else 0
        if abs(moved) > CPU_BOUND:
            warnings.append(
                f"line {number}: PR {row['pr']} {row['workload']}: CPU {now} us/op is "
                f"{moved:+.0%} from PR {earlier[-1]['pr']}'s {before}"
            )
    return warnings


def missing_prs(rows):
    """Warnings for PR numbers between the first and the last row that no
    row carries."""
    present = {row["pr"] for _, row in rows if isinstance(row.get("pr"), int)}
    if not present:
        return []
    return [
        f"PR {pr} has no rows (a hole between PR {min(present)} and PR {max(present)})"
        for pr in range(min(present), max(present) + 1)
        if pr not in present
    ]


def unrecorded_newest(rows):
    """A warning when the newest PR CHANGES.md records has no row."""
    if not CHANGES.exists():
        return []
    entries = (PR_ENTRY.match(line) for line in CHANGES.read_text().splitlines())
    newest = max((int(entry.group(1)) for entry in entries if entry), default=None)
    if newest is None or newest in {row.get("pr") for _, row in rows}:
        return []
    return [f"PR {newest}, the newest in {CHANGES.name}, has no rows (`append --pr {newest} --cpu`)"]


def check():
    metrics = declared_metrics()
    problems = []
    lines = TRAJECTORY.read_text().splitlines()
    rows = []
    for number, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
        except ValueError as error:
            problems.append(f"line {number}: does not parse ({error})")
            continue
        rows.append((number, row))
        missing = [key for key in ROW_KEYS if key not in row]
        missing += [
            f"metrics.{name}.median"
            for name in metrics
            if not isinstance(row.get("metrics", {}).get(name, {}).get("median"), (int, float))
        ]
        if "cpu" in row and not all(
            isinstance(row["cpu"], dict) and isinstance(row["cpu"].get(key), (int, float))
            for key in CPU_KEYS
        ):
            missing.append(f"cpu.{'/'.join(CPU_KEYS)}")
        if missing:
            problems.append(f"line {number}: missing {', '.join(missing)}")
    paper_problems, paper_rows = check_paper()
    problems += paper_problems
    for problem in problems:
        print(problem, file=sys.stderr)
    warnings = calibration_drift(rows)
    holes = missing_prs(rows) + unrecorded_newest(rows)
    cpu_warnings = cpu_drift(rows)
    for warning in warnings + holes + cpu_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"{TRAJECTORY.name}: {len(lines)} rows, {len(problems)} problems, "
        f"{len(warnings)} calibration warnings, {len(holes)} missing PRs, "
        f"{len(cpu_warnings)} CPU warnings; {PAPER.name}: {paper_rows} rows"
    )
    sys.exit(1 if problems or not lines else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="validate BENCH_trajectory.jsonl")
    commands = parser.add_subparsers(dest="command")
    appender = commands.add_parser("append", help="append one row per workload of a report")
    appender.add_argument("--pr", type=int, required=True)
    appender.add_argument("--report", default=str(ROOT / "bench" / "out" / "report.json"))
    appender.add_argument("--commit", help="override the commit the report recorded")
    appender.add_argument(
        "--cpu", action="store_true", help="also measure CPU per operation, one child per workload"
    )
    paper = commands.add_parser("paper", help="append the cells of `table2_latency --json`")
    paper.add_argument("--pr", type=int, required=True)
    paper.add_argument("--commit", required=True, help="the commit the cells measured")
    paper.add_argument("--rows", help="file of cells (default: stdin)")
    args = parser.parse_args()
    if args.check:
        check()
    elif args.command == "append":
        append(args)
    elif args.command == "paper":
        append_paper(args)
    else:
        parser.error("give `append`, `paper` or --check")


if __name__ == "__main__":
    main()
