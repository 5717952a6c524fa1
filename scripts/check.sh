#!/bin/sh
# check.sh — the repository's full verification gate.
#
# Runs the gofmt gate, the tier-1 build+test pass (what CI and the
# roadmap call "tier-1 green"), vet — of this module and of the
# benchmark module under bench/, whose seam.go pins the symbols the
# benchmark calls — the one-ingest-core guard, and the race-detector
# pass that guards the internal/parallel worker-pool layer and the
# collect hot-swap/stats paths. Usage:
#
#   scripts/check.sh          # everything
#   scripts/check.sh -short   # pass flags through to both test runs
#
# Ordering: gofmt first (cheapest, catches the most common CI failure),
# then build before vet so compile errors surface as compile errors
# rather than vet noise, then the two test passes.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The benchmark is a module of its own, so ./... skips it; vetting it
# here makes an API narrowing that breaks bench/seam.go fail this gate,
# not the post-merge benchmark run. -mod=mod with GOWORK=off is how
# bench/run.sh builds it, and writes nothing into the tree.
echo "== go vet (bench module)"
(cd bench && GOFLAGS=-mod=mod GOWORK=off go vet .)

# One ingest core: the model call, the explanation and the drift sample
# each happen at exactly one place in internal/collect (ingest.go).
echo "== one ingest core"
for call in 'ScoreStringWith(' 'ExplainResult(' '.Observe('; do
    n=$(ls internal/collect/*.go | grep -v _test.go | xargs grep -F -- "$call" | wc -l)
    [ "$n" -eq 1 ] || { echo "check.sh: $n call sites of $call in internal/collect, want 1" >&2; exit 1; }
done

echo "== go test ./... $*"
go test "$@" ./...

echo "== go test -race ./... $*"
go test -race "$@" ./...

echo "check.sh: all green"
