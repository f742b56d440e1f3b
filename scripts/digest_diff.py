#!/usr/bin/env python3
"""Compares the `digest` lines of two `sim_explore` outputs.

Usage: scripts/digest_diff.py BASE.log CHANGE.log

Each run is keyed by `(scenario, seed, kill_step)`. A run present on both
sides with different digests fails the comparison (exit 1); a run present on
one side only is listed and does not fail it (a scenario added or removed).
Lines that are not digest lines are ignored, so whole sweep logs can be
passed.
"""

import sys


def digests(path):
    """`{(scenario, seed, kill_step): hex}` for every digest line of `path`."""
    runs = {}
    with open(path, encoding="utf-8") as log:
        for line in log:
            fields = line.split()
            if len(fields) == 5 and fields[0] == "digest":
                runs[tuple(fields[1:4])] = fields[4]
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = digests(argv[1]), digests(argv[2])
    common = sorted(base.keys() & change.keys())
    for side, only in (("base", base.keys() - change.keys()),
                       ("change", change.keys() - base.keys())):
        for key in sorted(only):
            print(f"only in {side}: {' '.join(key)}")
    differing = [key for key in common if base[key] != change[key]]
    for key in differing:
        print(f"DIFFERS: {' '.join(key)} base={base[key]} change={change[key]}")
    print(f"{len(common)} common runs, {len(differing)} differ")
    if not common:
        print("no run exists on both sides", file=sys.stderr)
        return 1
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
