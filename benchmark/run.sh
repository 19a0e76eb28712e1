#!/usr/bin/env bash
# Build the benchmark and run it from the repo root.
#
#   benchmark/run.sh [--seed S] [--seconds S] [--out F]   every workload, both modes
#   benchmark/run.sh --quick                              smoke run, about 20 s
#   benchmark/run.sh compare A.json B.json                verdict per (metric, workload)
#   benchmark/run.sh calibrate [--seeds K]                run-to-run spread vs the bounds
set -euo pipefail
cd "$(dirname "$0")/.."
case "${1:-}" in
    compare | calibrate) ;;
    *) set -- all "$@" ;;
esac
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
