#!/usr/bin/env bash
# Builds the `pmkm` CLI and the benchmark harness in release mode into one
# target directory, then runs the harness with the arguments given:
#
#   benchmark/run.sh [--seed N] [--quick] [--label L]      every workload and probe
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                          one workload, one JSON line
#   benchmark/run.sh compare A.json B.json                 compare two result files
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the harness finds `pmkm` beside
# itself. A relative CARGO_TARGET_DIR is taken from the repo root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout is the benchmark's.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p pmkm-cli --bin pmkm >&2
cargo build --release --offline --quiet --manifest-path "$here/harness/Cargo.toml" >&2

case "${1:-}" in
  compare) exec "$target/release/pmkm_benchmark" "$@" ;;
  *) cd "$root" && exec "$target/release/pmkm_benchmark" --results-dir "$here/results" "$@" ;;
esac
