#!/usr/bin/env bash
# The benchmark's own gate: unit tests (percentile rule, Zipf determinism,
# span self-time arithmetic, BENCHMARK.json against the metric tables) and the
# smoke run (every workload, untraced and traced, 2 s windows, 3 failures,
# every audit on). Run from anywhere; exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --quiet --manifest-path bench/Cargo.toml
cargo run --release --quiet --manifest-path bench/Cargo.toml -- smoke
