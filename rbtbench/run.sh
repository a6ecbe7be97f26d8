#!/usr/bin/env bash
# Builds the daemon (`rbt-cli`, release profile) and the benchmark from
# source, then runs one workload:
#
#   bash rbtbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run files go to .bench_run.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -f rbtbench/Cargo.toml ]]; then
    echo "rbtbench: run from the root of an rbt checkout (no Cargo.toml or crates/ here)" >&2
    exit 3
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --bin rbt-cli >&2
cargo build --release --offline --quiet --manifest-path rbtbench/Cargo.toml >&2
exec "$target/release/rbtbench" --daemon "$target/release/rbt-cli" "$@"
