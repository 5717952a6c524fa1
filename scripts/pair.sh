#!/bin/sh
# pair.sh — paired A/B of the benchmark BENCHMARK.json declares, and the
# trajectory point a performance claim cites.
#
#   scripts/pair.sh <ref> [--head <ref>] [--workload W] [--pairs N] [--seed S] [--seconds T]
#   scripts/pair.sh --trajectory [--seeds N] [--seconds T]
#
# A/B: <ref> is the base. The head is this working tree as it stands,
# uncommitted edits included, or --head <ref>. Each ref is checked out
# with `git worktree add` under .bench_build/pair/ (local git only; the
# checkout is kept for the next run, `git worktree remove` drops it).
# Pair i runs `bash bench/run.sh --workload W --seed S --seconds T
# --trace 2` in both trees, one after the other, base first in odd pairs
# and head first in even ones, so a box that drifts during the run
# drifts against both sides alike. The result lines go to
# .bench_build/pair/out-<stamp>/{base,head}-<i>.json and
# scripts/pairstat prints the paired table: per metric, end to end and
# per layer, the paired median change, wins n/N, both IQRs and whether
# the gap is resolved (it exceeds the base's IQR, and wins are ≥ 9 in 10).
# Defaults: --workload attack-audit-http --pairs 10 --seed 11 --seconds 10.
#
# Trajectory: runs every workload of this tree over --seeds seeds (1 to
# N, default 5) and writes trajectory/BENCH_<date>.json, or
# BENCH_<date>b.json and on for a later point that day: each metric's
# median and quartiles over the seeds, with the go version, nproc and the
# CPU model.
set -eu
cd "$(git rev-parse --show-toplevel)"

base="" head="" workload=attack-audit-http pairs=10 seed=11 seconds=10 trajectory=0 seeds=5
while [ $# -gt 0 ]; do
    case "$1" in
    --head) head=$2; shift 2 ;;
    --workload) workload=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seeds) seeds=$2; shift 2 ;;
    --trajectory) trajectory=1; shift ;;
    -*) echo "pair.sh: unknown option $1" >&2; exit 2 ;;
    *) [ -z "$base" ] || { echo "pair.sh: one base ref" >&2; exit 2; }; base=$1; shift ;;
    esac
done

out=".bench_build/pair/out-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

# run TREE NAME: one benchmark run in TREE, its result line to $out/NAME.json.
run() {
    (cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 2) >"$out/$2.log" 2>&1 || {
        echo "pair.sh: $2 failed; see $out/$2.log" >&2
        exit 1
    }
    tail -n 1 "$out/$2.log" >"$out/$2.json"
    echo "$2 done"
}

if [ "$trajectory" = 1 ]; then
    [ -z "$base" ] || { echo "pair.sh: --trajectory measures this tree; no ref" >&2; exit 2; }
    workloads=$(sed -n 's/.*{"name": "\([a-z-]*\)", "why".*/\1/p' BENCHMARK.json)
    for seed in $(seq 1 "$seeds"); do
        for workload in $workloads; do
            run . "$workload-seed$seed"
        done
    done
    mkdir -p trajectory
    # A second point on one day takes the next free suffix: b, c, ...
    day=$(date +%Y-%m-%d)
    point="trajectory/BENCH_$day.json"
    for suffix in b c d e f g h; do
        [ -e "$point" ] || break
        point="trajectory/BENCH_$day$suffix.json"
    done
    go run ./scripts/pairstat -trajectory "$point" -commit "$(git describe --always --dirty)" "$out"
    echo "pair.sh: wrote $point"
    exit 0
fi

[ -n "$base" ] || { echo "usage: scripts/pair.sh <ref> [--head <ref>] [--workload W] [--pairs N] [--seed S] [--seconds T]" >&2; exit 2; }

# checkout REF: a worktree of REF under .bench_build/pair/, printed.
checkout() {
    sha=$(git rev-parse --verify "$1^{commit}")
    tree=".bench_build/pair/tree-$sha"
    [ -d "$tree" ] || git worktree add --detach "$tree" "$sha" >&2
    echo "$tree"
}
basetree=$(checkout "$base")
headtree=.
[ -z "$head" ] || headtree=$(checkout "$head")

echo "pair.sh: $workload, seed $seed, $seconds s, $pairs pairs: base $basetree, head $headtree; results in $out"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) = 1 ]; then
        run "$basetree" "base-$i"
        run "$headtree" "head-$i"
    else
        run "$headtree" "head-$i"
        run "$basetree" "base-$i"
    fi
    i=$((i + 1))
done
go run ./scripts/pairstat "$out"
