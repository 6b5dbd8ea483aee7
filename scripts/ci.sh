#!/usr/bin/env bash
# The full local CI gate: everything a PR must pass.
#
#   scripts/ci.sh          # run all stages
#
# Stages mirror what the repo considers tier-1 (ROADMAP.md) plus style:
#   1. release build of the whole workspace
#   2. the test suite (quiet)
#   3. rustfmt --check
#   4. clippy with warnings denied
#   5. drx-analyze: lock-order / panic-ratchet / proto / unsafe / discard lints
#   6. drx-sched: exhaustive bounded schedule exploration of the lock + cache
#      layer (separate target dir so the cfg flip does not thrash the cache)
#   7. fault matrix: the seeded fault-injection sweep under three fixed
#      seeds plus one randomized seed, echoed so any failure is replayable
#      with DRX_FAULT_SEED=<seed>
#   8. bench smoke: a tiny harness run that must emit valid JSON and prove
#      the memcpy fast path is actually taken (kernel counters)
#   9. end-to-end benchmark checks: perfbench's --selftest (every workload
#      must detect a planted corrupt chunk), 5-second untraced `bulk`,
#      `serve` and `zones` runs whose result lines must report correct
#      reads and no failures, and the unit tests of scripts/ab.sh's
#      statistics
#  10. the self-checking examples: checkpoint/restart (writes a growing
#      array to real disk and restarts in a fresh namespace through
#      `ArrayStore::adopt`), the collective writers oc_matmul
#      (`write_region_all`) and parallel_zones (`write_my_zone`), and the
#      multi-client server demo concurrent_clients (shared cache); each
#      checks its own results with asserts
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> drx-analyze (workspace invariant lints)"
cargo test -q -p drx-analyze
cargo run -q --release -p drx-analyze -- check

echo "==> drx-sched (bounded schedule exploration)"
RUSTFLAGS="--cfg drx_sched" CARGO_TARGET_DIR=target/sched \
    cargo test -q -p drx-server --test sched_explore

echo "==> fault matrix (fixed seeds 1 2 3 + one randomized)"
for seed in 1 2 3; do
    echo "--- fault seed $seed"
    DRX_FAULT_SEED=$seed cargo test -q --test fault_matrix
done
rand_seed=$(( (RANDOM << 15) | RANDOM ))
echo "--- randomized fault seed $rand_seed (replay: DRX_FAULT_SEED=$rand_seed cargo test --test fault_matrix)"
DRX_FAULT_SEED=$rand_seed cargo test -q --test fault_matrix

echo "==> bench smoke (quick harness run, JSON validity, fast-path counters)"
smoke_json=$(mktemp /tmp/drx-bench-smoke.XXXXXX.json)
trap 'rm -f "$smoke_json"' EXIT
cargo run -q --release -p drx-bench --bin harness -- --quick e10 --json "$smoke_json"
python3 - "$smoke_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    d = json.load(fh)
assert d["bench"] == "pr4_fastpath", d
assert d["planning"]["chunks"] > 0, "planning measured nothing"
assert d["scatter"]["memcpy_calls"] > 0, "memcpy fast path never taken"
assert d["scatter"]["memcpy_bytes"] > 0, "memcpy fast path moved no bytes"
assert len(d["parallel_io"]["cold_read"]) >= 2, "worker sweep too small"
print("bench smoke OK:", sys.argv[1])
EOF

echo "==> end-to-end benchmark checks (perfbench selftest + short bulk, serve and zones runs)"
# The invocation BENCHMARK.json declares.
perfbench=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)
"${perfbench[@]}" --selftest
for workload in bulk serve zones; do
    line=$("${perfbench[@]}" --workload "$workload" --seed 1 --seconds 5 --trace 0 | tail -n 1)
    python3 - "$workload" "$line" <<'EOF'
import json, sys
d = json.loads(sys.argv[2])
assert d["correct"] is True, d
assert d["failed"] == 0, d
print("perfbench", sys.argv[1], "OK:", d["attempted"], "operations")
EOF
done

python3 scripts/ab_stats.py test

echo "==> self-checking examples (checkpoint/restart, collective writers, server)"
for example in checkpoint_restart oc_matmul parallel_zones concurrent_clients; do
    echo "--- example $example"
    cargo run -q --release --example "$example"
done

echo "==> CI green"
