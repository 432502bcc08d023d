#!/usr/bin/env bash
# The benchmark's one command. Builds the commit under test (the real
# `spq-worker` binary) and the harness from source, then runs the
# harness with the given arguments:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   benchmark/run.sh agree A.json B.json
#
# Run it from anywhere; it works from the checkout root. Exits non-zero
# when a build fails, an answer is wrong, a run is invalid, or `agree`
# finds a metric out of bound.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds, inside the checkout. The driver
# sets CARGO_TARGET_DIR; a relative value is anchored at the root.
case "${CARGO_TARGET_DIR:-}" in
  "") CARGO_TARGET_DIR="$root/.bench_build" ;;
  /*) ;;
  *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR

# Results must not depend on the caller's tuning knobs.
unset SPQ_WORKERS SPQ_REMOTE_WORKERS SPQ_REPLICATION_FACTOR

# Cargo's progress goes to stderr; stdout stays the harness's.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p spq --bin spq-worker >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

harness="$CARGO_TARGET_DIR/release/spq-benchmark"

# If this script is interrupted, take the harness's worker children down
# with it (the harness's own drop guards cover every other exit path).
"$harness" "$@" &
pid=$!
trap 'pkill -TERM -P "$pid" 2>/dev/null || true; kill -TERM "$pid" 2>/dev/null || true' INT TERM
wait "$pid"
