#!/usr/bin/env bash
# Smoke test of the benchmark harness: its own unit tests (percentiles,
# window quartiles, span self-time, the HTTP response reader, seed
# determinism, the oracle checks tripping on a corrupted row), then every
# workload once in --quick mode, untraced and traced. Finishes in about a
# minute after the first build; the numbers it prints are not for
# comparison.
#
# Not wired into .github/workflows/ci.yml: that file is outside the
# benchmark's paths, so a later change has to add the call.
set -euo pipefail
cd "$(dirname "$0")"

# Release: the tests compile VGG16 layers 2-13, which a debug build
# takes minutes over.
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- run --workload all --seed 1 --quick
cargo run --release --offline --quiet -- run --workload all --seed 1 --quick --trace
