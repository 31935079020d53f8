#!/usr/bin/env bash
# Builds goccd and the benchmark from source, then runs one benchmark
# invocation; every argument is passed through, e.g.
#   bash loopbench/run.sh --workload point-d1 --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build at the root); daemon data directories live under
# it too and are removed when the run ends.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p gocc-server --bin goccd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/loopbench" --goccd "$target/release/goccd" --data-root "$target/loopbench-data" "$@"
