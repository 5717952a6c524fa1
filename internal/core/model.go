// Package core implements Browser Polygraph itself: the semi-supervised
// training pipeline of §6.4 (standard scaling → Isolation Forest outlier
// filtering → PCA → k-means), the cluster/user-agent correspondence table
// (Table 3), the Appendix-4 clustering-accuracy metric, and the real-time
// Fraud Detection path with the risk-factor computation of Algorithm 1.
// Every verdict is computed on the model's score plan (scoreplan.go);
// a model whose components cannot be planned is refused, not scored.
package core

import (
	"context"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"polygraph/internal/fingerprint"
	"polygraph/internal/kmeans"
	"polygraph/internal/pca"
	"polygraph/internal/scaler"
	"polygraph/internal/ua"
)

// Sample is one training observation: the coarse-grained feature vector a
// session reported and the user-agent it claimed.
type Sample struct {
	Vector []float64
	UA     ua.Release
}

// Model is a trained Browser Polygraph. Construct with Train or Load.
// The model is immutable after training and safe for concurrent
// scoring.
type Model struct {
	Features []fingerprint.Feature
	Scaler   *scaler.Standard
	PCA      *pca.PCA // nil when trained with DisablePCA
	KMeans   *kmeans.Model

	// ClusterUAs maps each cluster to the user-agents whose majority of
	// training sessions landed there (Table 3). Clusters capturing no
	// user-agent majority (the paper's unlisted clusters 7 and 8, which
	// absorb perturbed sessions) have no entry.
	ClusterUAs map[int][]ua.Release
	// UACluster is the inverse mapping.
	UACluster map[ua.Release]int

	// Accuracy is the Appendix-4 Formula 1 training accuracy.
	Accuracy float64
	// VersionDivisor is Algorithm 1's empirical divisor (default 4).
	VersionDivisor int
	// TrainedRows counts post-filter training rows.
	TrainedRows int
	// Baseline is the drift baseline binned from the training vectors;
	// nil in a model file written before models carried one.
	Baseline Baseline

	// plan caches the flattened scoring layout (see scoreplan.go), the
	// only one verdicts are computed on. Train and Load store it
	// eagerly; hand-assembled models build it lazily on first use
	// (readyPlan). Never copy a Model by value — share the pointer (the
	// plan cache is atomic state).
	plan atomic.Pointer[scorePlan]

	// NoveltyThreshold, when positive, arms the novelty guard:
	// fingerprints whose distance to their nearest centroid (in the
	// model's cluster space) exceeds it are flagged even when their
	// cluster matches their claim. This closes the gap the cluster
	// check alone leaves open — a spoofing engine whose alien surface
	// happens to land nearest a cluster whose user-agents it also
	// claims. Rare-but-legitimate browsers do not trip it: they sit
	// inside their own (small) clusters, so their centroid distance is
	// ordinary (see TrainConfig.NoveltyGuard).
	NoveltyThreshold float64
}

// Result is the outcome of scoring one session.
type Result struct {
	// Cluster is the predicted cluster of the session's fingerprint.
	Cluster int
	// Matched reports whether the claimed user-agent belongs to the
	// predicted cluster. A match means "browser is telling the truth".
	Matched bool
	// RiskFactor is Algorithm 1's score for mismatched sessions: the
	// minimum claimed-vs-cluster-member distance. Matched sessions
	// score 0. A mismatch against an empty cluster (one holding no
	// legitimate user-agent) scores ua.MaxDistance.
	RiskFactor int
	// Novel reports that the novelty guard (when trained in) found the
	// fingerprint unlike anything in the training population.
	Novel bool
	// NoveltyScore is the distance to the nearest centroid in cluster
	// space (0 when the guard is disabled).
	NoveltyScore float64
}

// Flagged reports whether Browser Polygraph flags the session as
// suspicious: any cluster/user-agent mismatch is flagged, whatever its
// risk factor (paper §6.5: "Any mismatch triggers our specialized risk
// analysis function"), as is any novelty-guard hit.
func (r Result) Flagged() bool { return !r.Matched || r.Novel }

// Dim returns the feature dimensionality the model expects.
func (m *Model) Dim() int { return len(m.Features) }

// planFor is readyPlan for a vector of n features, the first step of
// every entry point that takes one: the model's plan (else ErrNotTrained,
// naming the component) and a vector of its width (else ErrBadInput),
// both decided before the user-agent is read.
func (m *Model) planFor(n int) (*scorePlan, error) {
	p, err := m.readyPlan()
	if err != nil {
		return nil, err
	}
	return p, m.checkWidth(n)
}

// checkWidth rejects a vector of n features unless n is the model's
// width, with ErrBadInput.
func (m *Model) checkWidth(n int) error {
	if n != m.Dim() {
		return fmt.Errorf("core: %w: vector has %d features, model expects %d", ErrBadInput, n, m.Dim())
	}
	return nil
}

// ScoreString classifies one session: the fingerprint vector it
// reported against the user-agent string it claims (paper §5,
// Algorithm 1). It is the latency-critical online path (paper budget:
// 100 ms; actual cost is sub-microsecond). Unparseable user-agents are
// maximally risky by definition — a browser that cannot state a
// coherent identity fails the polygraph: the cluster is predicted,
// Matched is false and RiskFactor is ua.MaxDistance. Steady-state calls
// are allocation-free; callers scoring in a tight loop can avoid even
// the scratch pool's round trip with NewScratch + ScoreStringWith.
func (m *Model) ScoreString(vector []float64, userAgent string) (Result, error) {
	return m.ScoreStringWith(nil, vector, userAgent)
}

// ScoreStringWith is ScoreString with caller-owned scratch buffers (see
// NewScratch), the entry point for per-connection scoring loops. A nil
// scratch borrows one from the model's pool; a scratch must not be used
// concurrently. The pair is encoded into the scratch as class bytes
// (fingerprint.AppendVectorClass), the key of the plan's verdict memo
// (memo.go) that ScoreClass shares, so a repeated class is answered from
// the memo whichever entry point stored it. A vector with no class bytes
// (a coordinate that does not round-trip through int64: −0, NaN, ±Inf,
// a fraction, |x| ≥ 2⁶³) or a user-agent over 1 KB is scored on the
// kernel every time. Nothing allocates on this path, whether or not the
// user-agent parses, but a repeated class entering the memo.
func (m *Model) ScoreStringWith(s *Scratch, vector []float64, userAgent string) (Result, error) {
	p, err := m.planFor(len(vector))
	if err != nil {
		return Result{}, err
	}
	if s == nil {
		s = p.getScratch()
		defer p.putScratch(s)
	}
	return m.scoreStringMemo(p, s, vector, userAgent), nil
}

// ScoreClass is ScoreStringWith for a session that arrives as its
// session ID and class bytes (fingerprint.AppendClass's layout, what a
// binary payload carries after its session ID: fingerprint.SplitFrame),
// the entry point of every served route. The class bytes key the plan's
// verdict memo as they are, so a class the memo holds — stored by any
// entry point — is answered without decoding them: p then gets
// sessionID, the entry's user agent and no values. On a miss the class
// bytes are decoded into p and sessionID copied in, and p's values are
// scored against p's user agent. It returns the verdict and the
// session's vector, read-only: s's on a miss, good until s scores again,
// and the memo entry's on a hit. p.UserAgent may be a view of class
// (fingerprint.Payload.UnmarshalClassBorrowed). The errors are those of
// a model without a plan, of decoding class and of a vector of the
// wrong width, in that order; either of the first two leaves p empty.
// sessionID may alias p.SessionID. s must not be nil, and nothing
// allocates but a class entering the memo.
func (m *Model) ScoreClass(s *Scratch, p *fingerprint.Payload, sessionID, class []byte) (Result, []float64, error) {
	plan, err := m.readyPlan()
	if err != nil {
		*p = fingerprint.Payload{Values: p.Values[:0]}
		return Result{}, nil, err
	}
	h := maphash.Bytes(plan.memo.seed, class)
	if e := plan.memo.lookup(m, h, class); e != nil {
		copy(p.SessionID[:], sessionID)
		p.UserAgent, p.Values = e.ua, p.Values[:0]
		return e.res, e.vec, nil
	}
	if err := m.decodeClass(s, p, sessionID, class); err != nil {
		return Result{}, nil, err
	}
	claimed, parsed := ua.ParseRelease(p.UserAgent)
	res := m.scoreOnPlan(plan, s, s.vec, claimed, parsed)
	plan.memo.admit(m, s, h, class, len(p.UserAgent), s.vec, res)
	return res, s.vec, nil
}

// decodeClass is ScoreClass's one decode, on a memo miss: class into p,
// borrowing the user agent, and sessionID into p, then a width check,
// then p's values into s.vec.
func (m *Model) decodeClass(s *Scratch, p *fingerprint.Payload, sessionID, class []byte) error {
	if err := p.UnmarshalClassBorrowed(class); err != nil {
		return err
	}
	copy(p.SessionID[:], sessionID)
	if err := m.checkWidth(len(p.Values)); err != nil {
		return err
	}
	s.vec = fingerprint.ValuesToVectorInto(s.vec, p.Values)
	return nil
}

const (
	// batchSplitRows is the fewest rows ScoreStringBatchContext gives a
	// goroutine: about 0.2 ms of scoring, below which starting one costs
	// more than it saves.
	batchSplitRows = 512
	// batchCancelRows is how many rows a batch goroutine scores between
	// looks at the context.
	batchCancelRows = 1024
)

// ScoreStringBatchContext scores many sessions at once, the
// offline/backfill counterpart of the per-request path (paper §6.4:
// 205k sessions scored in one pass). Every row goes through
// ScoreStringWith, so row i of a completed batch is exactly what
// ScoreString(vectors[i], userAgents[i]) returns — batching changes
// throughput, never outcomes.
//
// The batch is cut into one contiguous span of at least batchSplitRows
// rows per goroutine, at most workers of them (0 = GOMAXPROCS, 1 = the
// caller's goroutine alone) counting the caller's, each with one pooled
// scratch; it is the one fan-out of the train/score stack, kept because
// it measures ×1.8 on two processors. A cancelled batch returns an
// error matching errors.Is(err, ErrCanceled). On error the failure of
// the lowest-index bad row is reported, which keeps the error
// deterministic under concurrency. A row that panics (a corrupted
// model) on a spawned goroutine is not recovered: it ends the process.
func (m *Model) ScoreStringBatchContext(ctx context.Context, vectors [][]float64, userAgents []string, workers int) ([]Result, error) {
	p, err := m.readyPlan()
	if err != nil {
		return nil, err
	}
	if len(vectors) != len(userAgents) {
		return nil, fmt.Errorf("core: %w: %d vectors vs %d user-agents", ErrBadInput, len(vectors), len(userAgents))
	}
	n := len(vectors)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n/batchSplitRows))
	out := make([]Result, n)
	span := (n + workers - 1) / workers
	// bad[w] is span w's first failure: spans ascend, so the first entry
	// set is the batch's lowest-index bad row.
	type rowErr struct {
		i   int
		err error
	}
	bad := make([]rowErr, workers)
	score := func(w int) {
		s := p.getScratch()
		defer p.putScratch(s)
		lo := w * span
		for i, hi := lo, min(lo+span, n); i < hi; i++ {
			if (i-lo)%batchCancelRows == 0 && ctx.Err() != nil {
				return
			}
			res, err := m.ScoreStringWith(s, vectors[i], userAgents[i])
			if err != nil {
				if bad[w].err == nil {
					bad[w] = rowErr{i, err}
				}
				continue
			}
			out[i] = res
		}
	}
	var wg sync.WaitGroup
	for w := 1; w*span < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			score(w)
		}()
	}
	score(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: score string batch: %w: %v", ErrCanceled, err)
	}
	for _, b := range bad {
		if b.err != nil {
			return nil, fmt.Errorf("core: score string batch row %d: %w", b.i, b.err)
		}
	}
	return out, nil
}

// PredictCluster exposes the cluster assignment without risk analysis —
// the drift detector and the experiments need it.
func (m *Model) PredictCluster(vector []float64) (int, error) {
	p, err := m.planFor(len(vector))
	if err != nil {
		return 0, err
	}
	s := p.getScratch()
	defer p.putScratch(s)
	c, _ := p.assign(p.transform(s, vector))
	return c, nil
}

// ClusterTable renders the Table 3 view: cluster number → sorted
// user-agent ranges, compressed as "Chrome 110-113".
func (m *Model) ClusterTable() []ClusterRow {
	rows := make([]ClusterRow, 0, len(m.ClusterUAs))
	for c, uas := range m.ClusterUAs {
		rows = append(rows, ClusterRow{Cluster: c, UserAgents: compressReleases(uas)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cluster < rows[j].Cluster })
	return rows
}

// ClusterRow is one line of the Table 3 rendering.
type ClusterRow struct {
	Cluster    int
	UserAgents string
}

// compressReleases renders a release set as the paper's table notation:
// contiguous same-vendor version runs become "Vendor lo-hi".
func compressReleases(releases []ua.Release) string {
	byVendor := map[ua.Vendor][]int{}
	for _, r := range releases {
		byVendor[r.Vendor] = append(byVendor[r.Vendor], r.Version)
	}
	vendors := []ua.Vendor{ua.Chrome, ua.Edge, ua.Firefox}
	var parts []string
	for _, v := range vendors {
		versions := byVendor[v]
		if len(versions) == 0 {
			continue
		}
		sort.Ints(versions)
		runStart := versions[0]
		prev := versions[0]
		flush := func(end int) {
			if runStart == end {
				parts = append(parts, fmt.Sprintf("%s %d", v, runStart))
			} else {
				parts = append(parts, fmt.Sprintf("%s %d-%d", v, runStart, end))
			}
		}
		for _, ver := range versions[1:] {
			if ver == prev { // duplicate
				continue
			}
			if ver != prev+1 {
				flush(prev)
				runStart = ver
			}
			prev = ver
		}
		flush(prev)
	}
	return strings.Join(parts, ", ")
}
