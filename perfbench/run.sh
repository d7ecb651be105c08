#!/usr/bin/env bash
# Build the benchmark and the shipped `serve` binary from source, then run
# one workload:
#
#   bash perfbench/run.sh --workload batch|stream|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Both builds share CARGO_TARGET_DIR
# (default `.bench_build`). The last stdout line is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet -p jocl_bench --bin serve >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
