#!/usr/bin/env bash
# Builds the `polyinv` CLI and the benchmark binary from source, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload table-rung0 --seed 1 --seconds 33 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is the result
# object. Outside a full checkout (no workspace manifest next to
# `perfbench/`) the script fails before printing any result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f perfbench/Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from the repository root (workspace sources not found)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p polyinv-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/polyinv-perfbench" --polyinv "$target/release/polyinv" "$@"
