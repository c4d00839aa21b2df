#!/usr/bin/env bash
# Full pre-merge gate:
# - a release build of every workspace package, so the smoke step below
#   runs a freshly built `repro`;
# - a `cargo check` of the perfbench benchmark crate against a frozen
#   lockfile, so a library change that stops the benchmark compiling
#   fails here rather than in the benchmark run;
# - every test of every workspace crate: the root integration suites plus
#   the crate unit, doc and property tests (including the Perfetto
#   trace-JSON smoke test, tests/trace_smoke.rs);
# - the scenarios/smoke.toml digest against its pinned value;
# - an explicit release run of tests/fleet.rs (the small-fleet golden plus
#   the streaming merge-equivalence proptests pinning the loser-tree order
#   and the stream-vs-reference FleetMetrics against the materialize+sort
#   pipeline);
# - clippy and rustdoc with warnings denied;
# - the benchmark gates from scripts/bench.sh: the hot-path median gates
#   (the <2% no-op recorder overhead check and the <2% attribution-
#   compiled-out check), the small-scale sweep gate (`repro all` pool
#   median wall-clock, >5% median regression fails), and the fleet gate
#   (streaming engine median devices/s vs the same-attempt materialized
#   reference and the committed fleet_stream baseline).
#
# Usage: scripts/check.sh [--no-bench]
#
# The bench step measures wall-clock and needs an otherwise idle machine;
# --no-bench skips it for correctness-only runs (CI boxes under load).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=1
while [[ $# -gt 0 ]]; do
    case "$1" in
        --no-bench) RUN_BENCH=0; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo check perfbench (the repo benchmark, lockfile frozen) =="
CARGO_TARGET_DIR=.bench_build cargo check --offline --locked --manifest-path perfbench/Cargo.toml

echo "== cargo test --workspace =="
cargo test -q --workspace

echo "== scenario smoke (scenarios/smoke.toml vs pinned digest) =="
SMOKE_WANT="[digest smoke 8b55b878785a2112]"
SMOKE_GOT=$(./target/release/repro --scale 0.001 --threads 2 --out /tmp/reqblock_smoke \
    run scenarios/smoke.toml 2>/dev/null | grep '^\[digest smoke ' || true)
if [[ "$SMOKE_GOT" != "$SMOKE_WANT" ]]; then
    echo "FAIL: smoke scenario digest drifted: got '$SMOKE_GOT', want '$SMOKE_WANT'" >&2
    exit 1
fi
echo "smoke digest ok: $SMOKE_GOT"

echo "== fleet golden + streaming merge-equivalence proptests (tests/fleet.rs, release) =="
cargo test -q --release --test fleet

echo "== cargo clippy (warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

if [[ "$RUN_BENCH" == 1 ]]; then
    scripts/bench.sh
else
    echo "== bench gates skipped (--no-bench) =="
fi

echo "== all checks passed =="
