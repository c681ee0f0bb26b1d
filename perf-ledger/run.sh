#!/usr/bin/env bash
# Builds the perf ledger if any source is newer than its binary, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perf-ledger/run.sh --workload singleton-start --seed 1 --seconds 30 --trace 0
#
# `cargo run` would do the same, except that outside a git checkout the
# CAS build script (which records `git describe`) reruns on every
# invocation and recompiles the CAS before each run.
set -euo pipefail

target="${CARGO_TARGET_DIR:-perf-ledger/target}"
binary="$target/release/perf-ledger"
sources=(Cargo.lock perf-ledger/Cargo.toml perf-ledger/Cargo.lock perf-ledger/src crates vendor)

if [[ ! -x "$binary" ]] || [[ -n "$(find "${sources[@]}" -newer "$binary" -print -quit 2>/dev/null)" ]]; then
    cargo build --release --offline --quiet --manifest-path perf-ledger/Cargo.toml
fi
exec "$binary" "$@"
