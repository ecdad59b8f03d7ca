#!/usr/bin/env bash
# Build the release `qrel` binary and the benchmark program from this
# checkout, then run the benchmark with the arguments given, e.g.
#   bash servebench/run.sh --workload hot_hits --seed 1 --seconds 10 --trace 0
# Build outputs and run scratch go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "servebench: run from a qrel checkout (no Cargo.toml or crates/serve here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin qrel >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --qrel "$CARGO_TARGET_DIR/release/qrel" \
    --workdir "$CARGO_TARGET_DIR/servebench" "$@"
