#!/bin/sh
# check.sh — the repository's full verification gate.
#
# Runs the gofmt gate, the tier-1 build+test pass (what CI and the
# roadmap call "tier-1 green"), vet — of this module and of the
# benchmark module under bench/, whose seam.go pins the symbols the
# benchmark calls — the dead-API census (scripts/deadapi: no exported
# function or method in internal/ that only tests, or only its own
# package, use, and no unused package-level constant or variable,
# save its allowlist), the one-ingest-core, one-class-key, explanations-are-derived,
# one-re-derivation, one-use-of-unsafe, one-daemon-wiring,
# the-daemon-does-not-train, one-segment-writer,
# one-evidence-path, one-scoring-surface, one-frame-decoder, per-row-kernel
# (score kernel included), training-reads-the-distinct-row-table,
# training-is-one-goroutine,
# one-operator-binary-one-perf-line, metrics-declared-once and
# docs-name-only-identifiers-that-exist guards, the race-detector pass that
# guards the concurrent layers (collect's hot-swap/counter paths, seglog's
# flusher, obs, and core's batch scorer, the one fan-out of the
# train/score stack), and five seconds of fuzzing per fuzz target.
# Usage:
#
#   scripts/check.sh          # everything
#   scripts/check.sh -short   # pass flags through to both test runs
#
# Ordering: gofmt first (cheapest, catches the most common CI failure),
# then build before vet so compile errors surface as compile errors
# rather than vet noise, then the two test passes, then the fuzzers.
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

# ./... includes scripts/pairstat, the reader behind scripts/pair.sh's
# paired A/B table (the script itself is checked for syntax), and
# scripts/deadapi, the census below.
echo "== go vet ./..."
go vet ./...
sh -n scripts/pair.sh

# The benchmark is a module of its own, so ./... skips it; vetting it
# here makes an API narrowing that breaks bench/seam.go fail this gate,
# not the post-merge benchmark run. -mod=mod with GOWORK=off is how
# bench/run.sh builds it, and writes nothing into the tree.
echo "== go vet (bench module)"
(cd bench && GOFLAGS=-mod=mod GOWORK=off go vet .)

# A census, not a grep: scripts/deadapi type-checks this module and the
# bench module and records every use of every name. An exported function
# or method in internal/ that no non-test code uses is to be deleted,
# one that only its own package uses is to be unexported, and a
# package-level constant or variable that nothing reads, tests included,
# is to be deleted. Satisfying an interface and being a method of a type
# polygraph.go aliases count as uses. scripts/deadapi/allowlist.txt names
# each exception with a reason, and an entry that matches nothing fails.
echo "== dead API census"
go run ./scripts/deadapi

# One ingest core: every route's payload enters the model as class bytes
# through one call (ScoreClass), and the drift sample happens once, both
# in internal/collect/ingest.go. No route scores a float vector: the
# vector entry (ScoreStringWith), the retired frame entry (ScoreFrame)
# and the int-to-float conversion (ValuesToVectorInto) have no site.
echo "== one ingest core"
for want in 'ScoreClass(=1' '.Observe(=1' 'ScoreStringWith(=0' 'ScoreFrame(=0' 'ValuesToVectorInto(=0'; do
    call=${want%=*}
    n=$(ls internal/collect/*.go | grep -v _test.go | xargs grep -F -- "$call" | wc -l)
    [ "$n" -eq "${want##*=}" ] || { echo "check.sh: $n call sites of $call in internal/collect, want ${want##*=}" >&2; exit 1; }
done

# One class key: every per-class table in internal/core and
# internal/audit — the verdict memo, the ledger's class table and
# audit.Resolver's derivations — is keyed by class bytes
# (fingerprint.AppendClass's layout) and compares them as bytes, so a class has one
# identity whichever way it arrived. A hash of the vector's bits or a
# float-by-float compare would be a second key form.
echo "== one class key"
found=$(ls internal/core/*.go internal/audit/*.go | grep -v _test.go |
    xargs grep -nE -- '\.Pair\(|matrix\.SameBits\(' || true)
[ -z "$found" ] || { echo "check.sh: a second class key form in internal/core or internal/audit:" >&2; echo "$found" >&2; exit 1; }

# Explanations are derived, not stored: the request path writes down what
# a verdict was decided from and readers compute the explanation from the
# model archive (audit.Resolver.Explain), so nothing a request runs
# through may call the explainer.
echo "== explanations are derived, not stored"
n=$(cat internal/collect/ingest.go internal/collect/server.go internal/collect/coalesce.go internal/collect/tcp.go | grep -cF -- 'ExplainResult(' || true)
[ "$n" -eq 0 ] || { echo "check.sh: $n calls of ExplainResult( on internal/collect's request path, want 0" >&2; exit 1; }

# One re-derivation: the ledger's readers — polygraphctl audit replay and
# ls -json, /debug/decisions — derive a record's verdict and explanation
# through audit.Resolver.Derive, once per class, so the explainer has one
# call site in internal/audit and cmd/polygraphctl.
echo "== one re-derivation"
n=$(ls internal/audit/*.go cmd/polygraphctl/*.go | grep -v _test.go | xargs grep -F -- 'ExplainResult(' | wc -l)
[ "$n" -eq 1 ] || { echo "check.sh: $n calls of ExplainResult( in internal/audit and cmd/polygraphctl, want 1 (Resolver.Derive)" >&2; exit 1; }

# One use of unsafe: the decoded user agent is a view of the request's
# bytes (fingerprint.Payload.BorrowUserAgent, with its lifetime rule
# beside it). A second importer is a second lifetime to reason about.
echo "== one use of unsafe"
sites=$(grep -rlF --include='*.go' --exclude='*_test.go' -- '"unsafe"' cmd internal | tr '\n' ' ')
[ "$sites" = "internal/fingerprint/wire.go " ] || {
    echo "check.sh: \"unsafe\" is imported by: ${sites}— want internal/fingerprint/wire.go alone" >&2; exit 1; }

# One daemon wiring: internal/serving is the only place in cmd/ and
# internal/ that constructs a collect server or its TCP listener, so
# what loadgen gates is what polygraphd deploys.
echo "== one daemon wiring"
for call in 'collect.NewServer(' 'collect.NewTCPServer('; do
    sites=$(grep -rnF --include='*.go' --exclude='*_test.go' -- "$call" cmd internal | cut -d: -f1)
    [ "$sites" = internal/serving/serving.go ] || {
        echo "check.sh: call sites of $call: $(echo $sites), want exactly one, in internal/serving/serving.go" >&2; exit 1; }
done

# The daemon does not train: models are made offline (polygraph train)
# and reach a replica as a file or a push, so neither the daemon nor the
# operator's tool links the traffic generator (internal/dataset) or the
# fraud-tool models behind it (internal/fraud).
echo "== the daemon does not train"
found=$(go list -deps ./cmd/polygraphd ./cmd/polygraphctl | grep -xE 'polygraph/internal/(dataset|fraud)' || true)
[ -z "$found" ] || { echo "check.sh: polygraphd or polygraphctl links: $(echo $found)" >&2; exit 1; }

# One segment writer: the audit ledger and the pinned decision journal
# own no file. internal/seglog creates every segment (the one O_EXCL
# open) and its flusher performs every write, so a bufio.Writer over a
# file, or a second O_EXCL open, in either of them is the hand-rolled
# rotating file coming back.
echo "== one segment writer"
owners=$(ls internal/audit/*.go internal/collect/pinned.go | grep -v _test.go)
for call in 'os.O_EXCL' 'bufio.NewWriterSize('; do
    n=$(echo "$owners" | xargs grep -F -- "$call" | wc -l)
    [ "$n" -eq 0 ] || { echo "check.sh: $n uses of $call in internal/audit and internal/collect/pinned.go, want 0" >&2; exit 1; }
done
n=$(ls internal/seglog/*.go | grep -v _test.go | xargs grep -F -- 'os.O_EXCL' | wc -l)
[ "$n" -eq 1 ] || { echo "check.sh: $n uses of os.O_EXCL in internal/seglog, want 1" >&2; exit 1; }

# One evidence path: the audit ledger is the only place a flagged verdict
# is written, and /v1/flagged reads its ring. The decision journal and
# the memory store are left only as the shims of
# internal/collect/pinned.go, which the bench/ module compiles against.
# Outside that file no non-test code in cmd/ or internal/ names them or
# calls a collect.Server's Store(), save the two ignored Config fields
# that carry them; comments may.
echo "== one evidence path"
found=$(grep -rnwE --include='*.go' --exclude='*_test.go' -- 'Journal|OpenJournal|MemoryStore|NewMemoryStore|JournalDir' cmd internal |
    grep -v '^internal/collect/pinned.go:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE '^internal/collect/server.go:[0-9]+:	Store \*MemoryStore$' |
    grep -vE '^internal/serving/serving.go:[0-9]+:	JournalDir string$' || true)
found="$found$(grep -rnF --include='*.go' --exclude='*_test.go' -- '.Store()' cmd internal || true)"
[ -z "$found" ] || { echo "check.sh: the journal or the memory store is reached outside internal/collect/pinned.go:" >&2; echo "$found" >&2; exit 1; }

# One scoring surface: a session is judged against the user-agent string
# it claims, so core.Model scores and explains through exactly five
# exported methods — ScoreString, ScoreStringWith, ScoreStringBatchContext,
# ScoreClass (the same session as its class bytes, every served route's
# entry, answered from the verdict memo by them) and ExplainResult —
# which all parse the claim the same way, use the verdict memo and give
# an unparseable claim maximum risk. Request traces
# are recorded on the obs.Trace a transport opens, not carried in a
# context: nothing names the retired span recorder, and Tracer.Start is
# defined and called only as the shim internal/obs/pinned.go keeps for
# bench/seam.go.
echo "== one scoring surface"
methods=$(ls internal/core/*.go | grep -v _test.go |
    xargs grep -ohE '^func \([^)]*\bModel\) (Score|Explain)[A-Za-z0-9_]*\(' |
    sed -E 's/^func \([^)]*\) //; s/\($//' | sort | tr '\n' ' ')
[ "$methods" = "ExplainResult ScoreClass ScoreString ScoreStringBatchContext ScoreStringWith " ] || {
    echo "check.sh: core.Model's Score*/Explain* methods are: ${methods}— want ExplainResult ScoreClass ScoreString ScoreStringBatchContext ScoreStringWith" >&2; exit 1; }
found=$(grep -rnwE --include='*.go' --exclude='*_test.go' -- 'SpanRecorder|StartSpan' cmd internal *.go || true)
[ -z "$found" ] || { echo "check.sh: the span recorder is named in:" >&2; echo "$found" >&2; exit 1; }
found=$(grep -rnE --include='*.go' --exclude='*_test.go' -- 'func \([^)]*\bTracer\) Start\(|[Tt]racer(\(\))?\.Start\(|, [A-Za-z_]+ :?= [A-Za-z_.()]+\.Start\(' cmd internal *.go |
    grep -v '^internal/obs/pinned.go:' || true)
[ -z "$found" ] || { echo "check.sh: Tracer.Start outside internal/obs/pinned.go:" >&2; echo "$found" >&2; exit 1; }

# One scoring path: internal/core computes a verdict on the score plan
# (core/scoreplan.go) alone, and refuses a model it cannot plan with
# ErrNotTrained. Calling the components' own transforms from non-test
# core, or bringing back the component-path scorer, is a second path
# beside the plan that no served request would exercise.
echo "== one scoring path"
found=$(ls internal/core/*.go | grep -v _test.go |
    xargs grep -nE 'Scaler\.TransformVec\(|PCA\.TransformVec\(|KMeans\.Distance\(|\bscoreSlow\b' || true)
[ -z "$found" ] || { echo "check.sh: internal/core scores beside its plan:" >&2; echo "$found" >&2; exit 1; }

# One frame decoder: served class bytes are decoded in one place,
# ScoreClass's miss path (core.Model.decodeClass), and only when the
# verdict memo does not hold them; the transports hand the model the
# class bytes. fingerprint.Payload.UnmarshalClassBorrowed, the decoder
# whose user agent is a view of the class bytes, has that one caller.
echo "== one frame decoder"
sites=$(grep -rlF --include='*.go' --exclude='*_test.go' -- '.UnmarshalClassBorrowed(' cmd internal *.go | tr '\n' ' ')
callers=$(awk '/^func / { f = $0 } /\.UnmarshalClassBorrowed\(/ { print f }' internal/core/model.go)
[ "$sites" = "internal/core/model.go " ] &&
    [ "$callers" = 'func (m *Model) decodeClass(s *Scratch, p *fingerprint.Payload, sessionID, class []byte) error {' ] || {
    echo "check.sh: UnmarshalClassBorrowed is called in: ${sites}by: ${callers} — want once, by core.Model.decodeClass (ScoreClass's miss path)" >&2; exit 1; }

# One pass per distinct row: training runs each pure per-row kernel once
# per row of the distinct-row table (matrix.RowGroups), so every kernel
# has a fixed set of non-test call sites and an edit that brings back an
# all-rows loop shows up here as one more. nearestCentroid:
# grouped.refresh (per table row) and Model.Predict (one vector).
# scoreRows: scoreAll, which Outliers runs on the table.
# pathLength: scoreRows, the one walk of the forest's node array.
# projectInto: Transform, which training runs on the table, and
# TransformVec (one vector, for the experiments).
# The score plan's two loops are on the same list: there is one
# register-blocked kernel, so a "fast path" written beside it would be
# one more site. p.transform(: scoreOnPlan, explain, PredictCluster.
# p.assign(: scoreOnPlan, PredictCluster. The verdict memo
# (core/memo.go) calls neither: a miss runs scoreOnPlan.
echo "== per-row kernels"
while read -r call dir want; do
    n=$(ls "$dir"/*.go | grep -v _test.go | xargs grep -HF -- "$call" | grep -vc ':func ' || true)
    [ "$n" -eq "$want" ] || { echo "check.sh: $n call sites of $call in $dir, want $want" >&2; exit 1; }
done <<'SITES'
nearestCentroid( internal/kmeans 2
scoreRows( internal/iforest 1
pathLength( internal/iforest 1
projectInto( internal/pca 2
p.transform( internal/core 3
p.assign( internal/core 2
SITES

# Training reads the distinct-row table: internal/core/train.go groups the
# samples once (matrix.GroupRows) and every stage fits on that grouping —
# scaler, iforest, pca and kmeans each take it in their one FitGroups —
# with sums over the rows taken as count-weighted sums over the table.
# A matrix with a row per sample in train.go (an n-row float matrix is
# 13.4 MB at the benchmark's 60 000 sessions; TestTrainAllocations pins
# the bytes), or the k-means chunk geometry that tied the float
# association order to n, is the n-row path coming back.
echo "== training reads the distinct-row table"
found=$(grep -nE 'matrix\.(NewDense|FromRows)\(' internal/core/train.go || true)
[ -z "$found" ] || { echo "check.sh: an n-row matrix in the training path:" >&2; echo "$found" >&2; exit 1; }
found=$(grep -rnE 'chunkedReduce|chunkSize' --include='*.go' internal/kmeans || true)
[ -z "$found" ] || { echo "check.sh: the k-means chunk geometry is back:" >&2; echo "$found" >&2; exit 1; }
for pkg in scaler iforest pca kmeans; do
    n=$(ls internal/$pkg/*.go | grep -v _test.go | xargs grep -c 'func FitGroups(rows matrix.RowGroups,' | awk -F: '{s += $NF} END {print s}')
    [ "$n" -eq 1 ] || { echo "check.sh: internal/$pkg has $n FitGroups over a matrix.RowGroups, want 1" >&2; exit 1; }
done

# Training is one goroutine: a training set is ~150 distinct rows, which
# leaves a worker pool under the §6.4 pipeline nothing to divide
# (CHANGES.md, PR 28, has the measurement). The training packages start
# no goroutine, share no state and take no context: a fit is a plain
# function call, well under a second at the paper's 205 000 sessions,
# with nothing worth cancelling. internal/core starts goroutines in one
# place: ScoreStringBatchContext, the batch scorer's split, which does
# measure.
echo "== training is one goroutine"
[ ! -e internal/parallel ] || { echo "check.sh: internal/parallel exists" >&2; exit 1; }
training="$(ls internal/matrix/*.go internal/scaler/*.go internal/pca/*.go internal/kmeans/*.go internal/iforest/*.go | grep -v _test.go) internal/core/train.go"
found=$(grep -nE '^[[:space:]]*go[[:space:]]|sync\.|atomic\.' $training || true)
[ -z "$found" ] || { echo "check.sh: goroutines or shared state in the training pipeline:" >&2; echo "$found" >&2; exit 1; }
found=$(grep -nF '"context"' $training || true)
[ -z "$found" ] || { echo "check.sh: a context in the training pipeline:" >&2; echo "$found" >&2; exit 1; }
n=$(ls internal/core/*.go | grep -v _test.go | xargs grep -F -- 'go func' | wc -l)
[ "$n" -eq 1 ] || { echo "check.sh: $n go statements in internal/core, want 1 (ScoreStringBatchContext)" >&2; exit 1; }

# One operator binary, one perf line: the offline checks are
# polygraphctl subcommands, not binaries of their own, and performance
# numbers come from bench/ (BENCHMARK.json) alone. The retired
# trajectory's names are spelled in halves so this file passes its own
# guard; history (CHANGES.md, ROADMAP.md, ISSUE.md) may keep them, and
# bench/ is not this gate's to edit.
echo "== one operator binary, one perf line"
bins=$(ls cmd | tr '\n' ' ')
[ "$bins" = "loadgen polygraph polygraphctl polygraphd reproduce " ] || {
    echo "check.sh: cmd/ holds: $bins— want loadgen polygraph polygraphctl polygraphd reproduce" >&2; exit 1; }
stale=$(git grep -lE 'bench''json|POLYGRAPH_''BENCH_JSON|bench''merge' -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!bench' || true)
[ -z "$stale" ] || { echo "check.sh: the retired perf trajectory is named in: $(echo $stale)" >&2; exit 1; }

# Metrics declared once: internal/obs/families.go declares every
# family's name, HELP, TYPE, labels and surface, and writers and readers
# name families through it, so a family spelled out anywhere else is a
# second declaration that can drift from the first.
echo "== metrics declared once"
found=$(grep -rnF --include='*.go' --exclude='*_test.go' -- '"polygraph_' cmd internal *.go | grep -v '^internal/obs/families.go:' || true)
[ -z "$found" ] || { echo "check.sh: family names outside internal/obs/families.go:" >&2; echo "$found" >&2; exit 1; }

# The docs describe what exists: every back-quoted Go identifier in
# DESIGN.md and README.md (one with a capital letter, alone or as part
# of a selector like pkg.Name or T.Method()) must occur in some .go file.
echo "== docs name only identifiers that exist"
missing=""
for id in $(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?`' DESIGN.md README.md |
    tr -d '`()' | tr '.' '\n' | grep '[A-Z]' | sort -u); do
    grep -rqw --include='*.go' --exclude-dir=.bench_build -- "$id" . || missing="$missing $id"
done
[ -z "$missing" ] || { echo "check.sh: DESIGN.md/README.md name identifiers no .go file has:$missing" >&2; exit 1; }

echo "== go test ./... $*"
go test "$@" ./...

echo "== go test -race ./... $*"
go test -race "$@" ./...

# Every fuzz target of the module, seeds first, then five seconds of
# mutation each: long enough to walk the committed corpus and the cheap
# mutations of it on every run, short enough to stay in the gate. A
# failing input is written under the package's testdata/fuzz/.
echo "== go test -fuzz (5s per target)"
for file in $(grep -rl --include='*_test.go' '^func Fuzz' cmd internal); do
    for target in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
        go test -run '^$' -fuzz "^$target\$" -fuzztime 5s "./$(dirname "$file")"
    done
done

echo "check.sh: all green"
