#!/bin/sh
# benchgate.sh — the allocation gate for the scoring fast path, its
# kernel, the audited-verdict path, the HTTP collect handler and training.
#
# Runs the online-scoring benchmark family, the score kernel's two loops,
# the three ledger-append cases, the journal append and the collect
# handler with -benchmem and fails when a pinned path regresses its
# allocation budget:
#
#   BenchmarkOnlineScore          0 allocs/op  (pooled scratch)
#   BenchmarkOnlineScoreScratch   0 allocs/op  (caller-owned scratch)
#   BenchmarkScoreKernel/transform  0 allocs/op  (internal/core: scale + project)
#   BenchmarkScoreKernel/assign     0 allocs/op  (internal/core: nearest centroid)
#   BenchmarkScoreString/repeat       0 allocs/op  (internal/core: verdict-memo hits)
#   BenchmarkScoreString/all-distinct 0 allocs/op  (internal/core: pairs that never
#                                               repeat; pins the memo's admission on
#                                               second sighting)
#   BenchmarkScoreFrame/repeat        0 allocs/op  (internal/core: binary payloads
#                                               answered from the memo by their class
#                                               bytes, no decode)
#   BenchmarkScoreFrame/all-distinct  0 allocs/op  (internal/core: classes that never
#                                               repeat: decode, kernel, no admission)
#   BenchmarkExplainResult      ≤ 4 allocs/op  (internal/core: the explanation
#                                               block, its centroid list, the claim)
#   BenchmarkLedgerAppend/known-class  ≤ 1 allocs/op  (internal/audit: pooled encode
#                                               buffers; a record of a class its segment
#                                               defines, packed, ≈ 60 B framed)
#   BenchmarkLedgerAppend/past-cap     ≤ 1 allocs/op  (never-repeated fingerprints in a
#                                               segment whose class table is full: hashed,
#                                               looked up, the whole record, ≈ 0.47 KB)
#   BenchmarkLedgerAppend/new-class    ≤ 4 allocs/op  (never-repeated fingerprints, each
#                                               defining a class: the class, its two
#                                               strings and its vector)
#   BenchmarkJournalAppend      ≤ 1 allocs/op  (internal/collect: pooled line buffer)
#   BenchmarkCollectHandler/binary    0 allocs/op  (internal/collect: Server.ServeHTTP on
#   BenchmarkCollectHandler/json      0 allocs/op   a reused request; the trace lives in
#                                               the pooled buffer and the ring copies it,
#                                               the reply writes the session ID as hex in
#                                               place, Content-Type is one shared value,
#                                               the user agent is a view of the body)
#   BenchmarkCollectHandlerParallel   0 allocs/op (internal/collect: the same handler
#                                               from every core, both endpoints, drift
#                                               monitor and a 1-in-100 benign ledger,
#                                               whose records round to 0 a request;
#                                               at -cpu 1,2)
#   BenchmarkTCPBatchScoreParallel  ≤ 2 allocs/op (internal/collect: 64-frame blocks over
#                                               two connections, memo hits, drift monitor
#                                               and a 1-in-100 benign ledger; per block:
#                                               the audited verdicts, the trace is the
#                                               connection's)
#   BenchmarkTCPBatchScoreParallelDistinct ≤ 3 allocs/op (the same on traffic that
#                                               never repeats a pair; both at -cpu 1,2 and
#                                               a fixed 20000 blocks, since how many
#                                               audited verdicts define a ledger class
#                                               depends on how often the 4 096 blocks
#                                               cycle; the block's own buffers are reused)
#   BenchmarkTrain60000         ≤ 10 MB/op     (internal/core: Train on bench/'s
#                                               60 000 sessions; it reads a table of
#                                               the ~150 distinct vectors, and an
#                                               n-row float matrix is 13.4 MB)
#
# The ns/op numbers are machine-dependent and therefore only printed,
# never gated; bench/ (BENCHMARK.json) is where they are measured. The
# TCP twins' frames/s (two connections; the distinct one, every verdict a
# memo miss, has no bench/ workload) and BenchmarkDriftObserve/
# {serial,parallel} (internal/obs) are printed because bench/'s
# one-thread traced replay cannot see what connections share.
#
# BenchmarkCollectHandlerParallel is the HTTP handler's scaling floor and
# BenchmarkTCPBatchScoreParallel the framed listener's: the script prints
# each one's ns/op at one CPU over its ns/op at two. The ratios are not
# gated: on a shared 2-CPU box the HTTP one read anywhere from 1.24 to
# 2.01 across six runs of one build, so a ratio gate would fail on noise,
# not on a shared write.
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

echo "== go test -bench 'ExplainResult$|LedgerAppend$|JournalAppend$|ScoreKernel$|ScoreString$|ScoreFrame$|CollectHandler$|DriftObserve$' -benchmem ./internal/core ./internal/audit ./internal/collect ./internal/obs"
go test -run '^$' -bench 'ExplainResult$|LedgerAppend$|JournalAppend$|ScoreKernel$|ScoreString$|ScoreFrame$|CollectHandler$|DriftObserve$' -benchmem -benchtime 0.3s ./internal/core ./internal/audit ./internal/collect ./internal/obs | tee "$out"

awk '
    /^Benchmark(ExplainResult|LedgerAppend\/new-class)(-[0-9]+)? / { seen++; max = 4 }
    /^Benchmark(LedgerAppend\/(known-class|past-cap)|JournalAppend)(-[0-9]+)? / { seen++; max = 1 }
    /^BenchmarkScoreKernel\/(transform|assign)(-[0-9]+)? / { seen++; max = 0 }
    /^BenchmarkScore(String|Frame)\/(repeat|all-distinct)(-[0-9]+)? / { seen++; max = 0 }
    /^BenchmarkCollectHandler\/(binary|json)(-[0-9]+)? / { seen++; max = 0 }
    /^Benchmark(ExplainResult|LedgerAppend\/(known-class|new-class|past-cap)|JournalAppend|ScoreKernel\/(transform|assign)|Score(String|Frame)\/(repeat|all-distinct)|CollectHandler\/(binary|json))(-[0-9]+)? / {
        if ($NF != "allocs/op" || $(NF-1) > max) {
            printf "benchgate: %s allocates %s %s, ceiling %d allocs/op\n", $1, $(NF-1), $NF, max
            bad = 1
        }
    }
    END {
        if (seen < 13) { print "benchgate: kernel, score-string, score-frame, audit-path, journal or collect-handler benchmarks missing from output"; bad = 1 }
        exit bad
    }
' "$out" || { echo "benchgate: FAIL" >&2; exit 1; }

echo "== go test -bench 'CollectHandlerParallel$' -benchmem -cpu 1,2 ./internal/collect"
go test -run '^$' -bench 'CollectHandlerParallel$' -benchmem -benchtime 0.3s -cpu 1,2 ./internal/collect | tee "$out"

awk '
    /^BenchmarkCollectHandlerParallel(-[0-9]+)? / {
        seen++
        ns[$1 ~ /-2$/ ? 2 : 1] = $3
        if ($NF != "allocs/op" || $(NF-1) > 0) {
            printf "benchgate: %s allocates %s %s, ceiling 0 allocs/op\n", $1, $(NF-1), $NF
            bad = 1
        }
    }
    END {
        if (seen < 2 || !ns[1] || !ns[2]) { print "benchgate: BenchmarkCollectHandlerParallel at -cpu 1,2 missing from output"; exit 1 }
        printf "benchgate: collect handler scales %.2fx from one CPU to two (printed, not gated)\n", ns[1] / ns[2]
        exit bad
    }
' "$out" || { echo "benchgate: FAIL" >&2; exit 1; }

echo "== go test -bench 'TCPBatchScoreParallel(Distinct)?$' -benchmem -benchtime 20000x -cpu 1,2 ./internal/collect"
go test -run '^$' -bench 'TCPBatchScoreParallel(Distinct)?$' -benchmem -benchtime 20000x -cpu 1,2 ./internal/collect | tee "$out"

awk '
    /^BenchmarkTCPBatchScoreParallel(-[0-9]+)? / { seen++; max = 2; ns[$1 ~ /-2$/ ? 2 : 1] = $3 }
    /^BenchmarkTCPBatchScoreParallelDistinct(-[0-9]+)? / { seen++; max = 3 }
    /^BenchmarkTCPBatchScoreParallel(Distinct)?(-[0-9]+)? / {
        if ($NF != "allocs/op" || $(NF-1) > max) {
            printf "benchgate: %s allocates %s %s, ceiling %d allocs/op\n", $1, $(NF-1), $NF, max
            bad = 1
        }
    }
    END {
        if (seen < 4 || !ns[1] || !ns[2]) { print "benchgate: the TCP twins at -cpu 1,2 missing from output"; exit 1 }
        printf "benchgate: TCP listener scales %.2fx from one CPU to two (printed, not gated)\n", ns[1] / ns[2]
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

echo "benchgate: allocation budget holds (0 allocs/op on the scoring paths, the memo on both sides, as a vector and as a frame, and the kernel, audit-path, collect-handler (serial and parallel) and TCP-twin ceilings, training ≤ 10 MB)"
