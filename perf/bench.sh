#!/usr/bin/env bash
# What BENCHMARK.json's command runs, from the root of a checkout:
#
#   bash perf/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds `perf` when its binary is missing or older than a file it is built
# from, then becomes `perf measure "$@"`. Only the first run in a checkout
# starts cargo: the 150 that follow wait on none of cargo's locks (build
# directory, package cache) and nothing but a changed source file can turn
# one of them into a rebuild.
set -euo pipefail

here=$(dirname "$0")
bin=${CARGO_TARGET_DIR:-$here/target}/release/perf

# The package, the crates it measures, and the workspace manifest those
# crates inherit their keys from.
stale() {
    [ -x "$bin" ] || return 0
    [ -n "$(find "$here/src" "$here/Cargo.toml" "$here/Cargo.lock" \
        "$here/../crates" "$here/../Cargo.toml" \
        -type f \( -name '*.rs' -o -name 'Cargo.*' \) -newer "$bin" -print -quit)" ]
}

if stale; then
    cargo build --release --quiet --manifest-path "$here/Cargo.toml"
fi
exec "$bin" measure "$@"
