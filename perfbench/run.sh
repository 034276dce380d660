#!/usr/bin/env bash
# Build tcdp-serve, tcdp-cli and the perfbench binary from source, then run
# one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# CARGO_TARGET_DIR defaults to .bench_build; PERFBENCH_LANE=serial builds
# everything with --no-default-features (the single-threaded baseline) into
# a separate target directory.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f src/bin/tcdp-serve.rs || ! -d crates/serve ]]; then
    echo "perfbench: run this from the repository root (tcdp sources not found)" >&2
    exit 2
fi

lane="${PERFBENCH_LANE:-parallel}"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$lane" in
    parallel) features=() ;;
    serial) features=(--no-default-features); target="$target/lane-serial" ;;
    *) echo "perfbench: PERFBENCH_LANE must be parallel or serial" >&2; exit 2 ;;
esac
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --offline "${features[@]}" --bin tcdp-serve --bin tcdp-cli 1>&2
cargo build --release --quiet --offline "${features[@]}" --manifest-path perfbench/Cargo.toml 1>&2

rev="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_BIN_DIR="$target/release"
export PERFBENCH_LANE="$lane"
export PERFBENCH_REV="$rev"
exec "$target/release/perfbench" "$@"
