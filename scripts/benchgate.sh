#!/bin/sh
# benchgate.sh — the allocation gate for the scoring fast path, its
# kernel, the audited-verdict path, the HTTP collect handler and training.
#
# Runs the online-scoring benchmark family, the score kernel's two loops,
# the two audit-path benchmarks, the journal append and the collect
# handler with -benchmem and fails when a pinned path regresses its
# allocation budget:
#
#   BenchmarkOnlineScore          0 allocs/op  (pooled scratch)
#   BenchmarkOnlineScoreScratch   0 allocs/op  (caller-owned scratch)
#   BenchmarkScoreKernel/transform  0 allocs/op  (internal/core: scale + project)
#   BenchmarkScoreKernel/assign     0 allocs/op  (internal/core: nearest centroid)
#   BenchmarkExplainResult      ≤ 4 allocs/op  (internal/core: the explanation
#                                               block, its centroid list, the claim)
#   BenchmarkLedgerAppend       ≤ 1 allocs/op  (internal/audit: pooled encode buffer;
#                                               the lean record, ≈ 0.47 KB framed)
#   BenchmarkJournalAppend      ≤ 1 allocs/op  (internal/collect: pooled line buffer)
#   BenchmarkCollectHandler/binary  ≤ 4 allocs/op  (internal/collect: Server.ServeHTTP on
#   BenchmarkCollectHandler/json    ≤ 4 allocs/op   a reused request; measured 3 — the trace,
#                                               the hex session ID, the Content-Type
#                                               header value; the user agent is a view
#                                               of the body)
#   BenchmarkTrain60000         ≤ 10 MB/op     (internal/core: Train on bench/'s
#                                               60 000 sessions; it reads a table of
#                                               the ~150 distinct vectors, and an
#                                               n-row float matrix is 13.4 MB)
#
# The ns/op numbers are machine-dependent and therefore only printed,
# never gated; bench/ (BENCHMARK.json) is where they are measured. Two
# benchmarks run here for their printed figure alone, because bench/'s
# one-thread traced replay cannot see what connections share:
# BenchmarkTCPBatchScoreParallel (internal/collect, frames/s over two
# connections) and BenchmarkDriftObserve/{serial,parallel} (internal/obs).
set -eu
cd "$(dirname "$0")/.."

bench='OnlineScore$|OnlineScoreScratch$|OnlineScoreParallel$'
out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== go test -bench '$bench' -benchmem"
go test -run '^$' -bench "$bench" -benchmem -benchtime 0.3s . | tee "$out"

# Gate: every pinned benchmark line must end in "0 allocs/op". awk exits
# nonzero when a pinned line allocates or is missing entirely.
awk '
    /^BenchmarkOnlineScore(Scratch)?(-[0-9]+)? / {
        seen++
        if ($(NF-1) != 0 || $NF != "allocs/op") {
            printf "benchgate: %s allocates (%s %s), want 0 allocs/op\n", $1, $(NF-1), $NF
            bad = 1
        }
    }
    END {
        if (seen < 2) { print "benchgate: pinned benchmarks missing from output"; bad = 1 }
        exit bad
    }
' "$out" || { echo "benchgate: FAIL" >&2; exit 1; }

echo "== go test -bench 'ExplainResult$|LedgerAppend$|JournalAppend$|ScoreKernel$|CollectHandler$|TCPBatchScoreParallel$|DriftObserve$' -benchmem ./internal/core ./internal/audit ./internal/collect ./internal/obs"
go test -run '^$' -bench 'ExplainResult$|LedgerAppend$|JournalAppend$|ScoreKernel$|CollectHandler$|TCPBatchScoreParallel$|DriftObserve$' -benchmem -benchtime 0.3s ./internal/core ./internal/audit ./internal/collect ./internal/obs | tee "$out"

awk '
    /^BenchmarkExplainResult(-[0-9]+)? / { seen++; max = 4 }
    /^Benchmark(Ledger|Journal)Append(-[0-9]+)? / { seen++; max = 1 }
    /^BenchmarkScoreKernel\/(transform|assign)(-[0-9]+)? / { seen++; max = 0 }
    /^BenchmarkCollectHandler\/(binary|json)(-[0-9]+)? / { seen++; max = 4 }
    /^Benchmark(ExplainResult|(Ledger|Journal)Append|ScoreKernel\/(transform|assign)|CollectHandler\/(binary|json))(-[0-9]+)? / {
        if ($NF != "allocs/op" || $(NF-1) > max) {
            printf "benchgate: %s allocates %s %s, ceiling %d allocs/op\n", $1, $(NF-1), $NF, max
            bad = 1
        }
    }
    END {
        if (seen < 7) { print "benchgate: kernel, audit-path, journal or collect-handler benchmarks missing from output"; bad = 1 }
        exit bad
    }
' "$out" || { echo "benchgate: FAIL" >&2; exit 1; }

echo "== go test -bench 'Train60000$' -benchmem ./internal/core"
go test -run '^$' -bench 'Train60000$' -benchmem -benchtime 5x ./internal/core | tee "$out"

awk '
    /^BenchmarkTrain60000(-[0-9]+)? / {
        seen++
        for (i = 1; i < NF; i++) if ($(i+1) == "B/op") bytes = $i
        if (bytes == "" || bytes > 10485760) {
            printf "benchgate: %s allocates %s B/op, ceiling 10485760 B/op\n", $1, bytes
            bad = 1
        }
    }
    END {
        if (seen < 1) { print "benchgate: training benchmark missing from output"; bad = 1 }
        exit bad
    }
' "$out" || { echo "benchgate: FAIL" >&2; exit 1; }

echo "benchgate: allocation budget holds (0 allocs/op on the scoring paths and the kernel, audit-path and collect-handler ceilings, training ≤ 10 MB)"
