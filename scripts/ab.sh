#!/usr/bin/env bash
# Alternating A/B runs of perfbench between two revisions.
#
#   scripts/ab.sh [--aa] [--workload W] [--pairs N] [--seconds S] [--seeds A[-B]] \
#       <base-rev> [<head-rev>]
#
# Builds each side's perfbench from its own tree under the ignored
# `.bench_build/` (a `git archive` of the revision; with no <head-rev>, a
# copy of the working tree, untracked files included) and runs N pairs of
# untraced runs of workload W (default zones) for S seconds each (default
# 40, BENCHMARK.json's run length), pair i on seed A+i (default A = 1; a
# range A-B sets N = B-A+1). Even pairs run the base first, odd pairs the
# head. Any run that is not `correct` or has `failed` > 0 stops the script
# with exit 1. `--aa` runs <base-rev>'s build on both sides, which
# measures the spread between identical builds.
#
# Every run's result line is kept in `.bench_build/ab-<time>.jsonl`; the
# report (scripts/ab_stats.py) prints, per metric, both medians, the pairs
# the head won, the base's quartiles, IQR and min-max pair ratio, and the
# per-pair values as base/head.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '4,5p' "$0" | sed 's/^# *//' >&2
    exit 2
}

aa=0 workload=zones pairs=10 seconds=40 first=1 last=
revs=()
while [ $# -gt 0 ]; do
    case $1 in
    --aa) aa=1 ;;
    --workload) workload=${2:?}; shift ;;
    --pairs) pairs=${2:?}; shift ;;
    --seconds) seconds=${2:?}; shift ;;
    --seeds)
        first=${2%%-*}
        [[ $2 == *-* ]] && last=${2#*-}
        shift
        ;;
    -*) usage ;;
    *) revs+=("$1") ;;
    esac
    shift
done
[ ${#revs[@]} -ge 1 ] && [ ${#revs[@]} -le 2 ] || usage
[ -n "$last" ] && pairs=$((last - first + 1))
[ "$pairs" -ge 1 ] || usage

root=$(pwd)
build_root=$root/.bench_build
mkdir -p "$build_root"

# Build `$1` (a revision, or "" for the working tree) and print the path of
# its perfbench binary.
build() {
    local rev=$1 dir
    if [ -z "$rev" ]; then
        dir=$build_root/worktree
        rm -rf "$dir"
        mkdir -p "$dir"
        git ls-files -z --cached --others --exclude-standard |
            xargs -0 tar -cf - | tar -xf - -C "$dir"
    else
        local sha
        sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
            echo "ab.sh: unknown revision '$rev'" >&2
            exit 2
        }
        dir=$build_root/$sha
        if [ ! -d "$dir" ]; then
            mkdir -p "$dir.tmp"
            git archive "$sha" | tar -xf - -C "$dir.tmp"
            mv "$dir.tmp" "$dir"
        fi
    fi
    echo "==> building perfbench at ${rev:-the working tree} in $dir" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml" >&2
    echo "$dir/perfbench/target/release/drx-perfbench"
}

base_bin=$(build "${revs[0]}")
if [ $aa -eq 1 ]; then
    head_bin=$base_bin
else
    head_bin=$(build "${revs[1]:-}")
fi

out=$build_root/ab-$(date +%Y%m%d-%H%M%S).jsonl
: > "$out"
echo "==> $pairs pairs of $workload, ${seconds} s each, seeds $first-$((first + pairs - 1)); runs in $out" >&2

# Run side `$2` of pair `$1` on seed `$3` and append its result line.
run() {
    local pair=$1 side=$2 seed=$3 bin line
    [ "$side" = base ] && bin=$base_bin || bin=$head_bin
    line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
    python3 - "$pair" "$side" "$seed" "$line" "$out" <<'EOF'
import json, sys
pair, side, seed, line, out = sys.argv[1:]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed", 1) > 0:
    sys.exit(f"ab.sh: pair {pair} {side} (seed {seed}) is not clean: {line}")
with open(out, "a") as fh:
    fh.write(json.dumps({"pair": int(pair), "side": side, "seed": int(seed), "result": result}) + "\n")
print(f"pair {pair} {side} seed {seed}: " +
      ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), file=sys.stderr)
EOF
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then
        run "$i" base "$seed"
        run "$i" head "$seed"
    else
        run "$i" head "$seed"
        run "$i" base "$seed"
    fi
done

python3 scripts/ab_stats.py report "$out" BENCHMARK.json
