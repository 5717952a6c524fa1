// Package core implements Browser Polygraph itself: the semi-supervised
// training pipeline of §6.4 (standard scaling → Isolation Forest outlier
// filtering → PCA → k-means), the cluster/user-agent correspondence table
// (Table 3), the Appendix-4 clustering-accuracy metric, and the real-time
// Fraud Detection path with the risk-factor computation of Algorithm 1.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"polygraph/internal/fingerprint"
	"polygraph/internal/kmeans"
	"polygraph/internal/pca"
	"polygraph/internal/pipeline"
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
// The model is immutable after training and safe for concurrent Score
// calls.
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

	// plan caches the flattened scoring layout (see scoreplan.go).
	// Train and Load store it eagerly; hand-assembled models build it
	// lazily on first score. Never copy a Model by value — share the
	// pointer (the plan cache is atomic state).
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

// checkTrained rejects scoring on a model that never went through Train
// or Load (a zero Model, or one whose deserialization was incomplete)
// with ErrNotTrained rather than a nil-pointer panic deep in a stage.
func (m *Model) checkTrained() error {
	if m.Scaler == nil || m.KMeans == nil {
		return fmt.Errorf("core: %w", ErrNotTrained)
	}
	return nil
}

// Score classifies one fingerprint vector against a claimed user-agent.
// It is the latency-critical online path (paper budget: 100 ms; actual
// cost is sub-microsecond). Steady-state calls are allocation-free: the
// flattened plan supplies pooled scratch buffers. Callers scoring in a
// tight loop can avoid even the pool round-trip with NewScratch +
// ScoreWith.
func (m *Model) Score(vector []float64, claimed ua.Release) (Result, error) {
	return m.ScoreWith(nil, vector, claimed)
}

// ScoreWith is Score with caller-owned scratch buffers (see NewScratch),
// the zero-allocation entry point for per-connection scoring loops. A
// nil scratch borrows one from the model's pool. The scratch must not be
// used concurrently.
func (m *Model) ScoreWith(s *Scratch, vector []float64, claimed ua.Release) (Result, error) {
	if err := m.checkTrained(); err != nil {
		return Result{}, err
	}
	if len(vector) != m.Dim() {
		return Result{}, fmt.Errorf("core: vector has %d features, model expects %d", len(vector), m.Dim())
	}
	p := m.scorePlanNow()
	if !p.valid {
		return m.scoreSlow(vector, claimed)
	}
	if s == nil {
		s = p.getScratch()
		defer p.putScratch(s)
	}
	return m.scoreOnPlan(p, s, vector, claimed, true), nil
}

// scoreSlow is the component-path fallback for models whose parts are
// dimensionally inconsistent (only reachable with hand-assembled
// models); it preserves the precise component error messages.
func (m *Model) scoreSlow(vector []float64, claimed ua.Release) (Result, error) {
	scaled, err := m.Scaler.TransformVec(vector)
	if err != nil {
		return Result{}, err
	}
	cluster, dist, err := m.clusterAndDistance(scaled)
	if err != nil {
		return Result{}, err
	}
	res := Result{Cluster: cluster}
	if m.NoveltyThreshold > 0 {
		res.NoveltyScore = dist
		res.Novel = dist > m.NoveltyThreshold
	}
	members := m.ClusterUAs[cluster]
	for _, r := range members {
		if r == claimed {
			res.Matched = true
			if res.Novel {
				// The claim is cluster-consistent but the surface is
				// alien: maximum risk, per the guard's purpose.
				res.RiskFactor = ua.MaxDistance
			}
			return res, nil
		}
	}
	// Algorithm 1: riskFactor = min distance to any user-agent of the
	// predicted cluster.
	risk := ua.MaxDistance
	for _, r := range members {
		if d := ua.Distance(claimed, r, m.VersionDivisor); d < risk {
			risk = d
		}
	}
	res.RiskFactor = risk
	return res, nil
}

// ScoreBatch scores many sessions at once, splitting a large batch over
// GOMAXPROCS goroutines. Row i of the result is exactly what
// Score(vectors[i], claims[i]) returns — batching changes throughput,
// never outcomes — which makes it the offline/backfill counterpart of the
// per-request Score path (paper §6.4: 205k sessions scored in one pass).
func (m *Model) ScoreBatch(vectors [][]float64, claims []ua.Release) ([]Result, error) {
	return m.ScoreBatchContext(context.Background(), vectors, claims, 0)
}

// ScoreBatchContext is ScoreBatch with an explicit goroutine bound (0 =
// GOMAXPROCS, 1 = the caller's goroutine alone) and cooperative
// cancellation: a cancelled batch returns an error matching
// errors.Is(err, ErrCanceled). A batch that completes is bit-identical to
// ScoreBatch's — rows are independent. Bad rows are errors; a row that
// panics (a corrupted model) takes the process down, not just the batch.
func (m *Model) ScoreBatchContext(ctx context.Context, vectors [][]float64, claims []ua.Release, workers int) ([]Result, error) {
	if len(vectors) != len(claims) {
		return nil, fmt.Errorf("core: %w: %d vectors vs %d claims", ErrBadInput, len(vectors), len(claims))
	}
	return m.scoreRows(ctx, "score batch", len(vectors), workers, func(s *Scratch, i int) (Result, error) {
		return m.ScoreWith(s, vectors[i], claims[i])
	})
}

// ScoreStringBatchContext is ScoreBatchContext for sessions that deliver
// raw user-agent strings: row i of a completed batch is exactly what
// ScoreString(vectors[i], userAgents[i]) returns — including the
// unparseable-user-agent rule (cluster predicted, Matched false,
// RiskFactor ua.MaxDistance). On error the lowest-index bad row is
// reported.
func (m *Model) ScoreStringBatchContext(ctx context.Context, vectors [][]float64, userAgents []string, workers int) ([]Result, error) {
	if len(vectors) != len(userAgents) {
		return nil, fmt.Errorf("core: %w: %d vectors vs %d user-agents", ErrBadInput, len(vectors), len(userAgents))
	}
	return m.scoreRows(ctx, "score string batch", len(vectors), workers, func(s *Scratch, i int) (Result, error) {
		return m.ScoreStringWith(s, vectors[i], userAgents[i])
	})
}

const (
	// batchSplitRows is the fewest rows scoreRows gives a goroutine:
	// about 0.2 ms of scoring, below which starting one costs more than
	// it saves.
	batchSplitRows = 512
	// batchCancelRows is how many rows scoreRows scores between looks at
	// the context.
	batchCancelRows = 1024
)

// scoreRows is the row loop both batch scorers share. Every row goes
// through the serial entry point (ScoreWith or ScoreStringWith), so
// parity with the per-request path is by construction. The batch is cut
// into one contiguous span of at least batchSplitRows rows per goroutine,
// at most workers of them (0 = GOMAXPROCS) counting the caller's, each
// with one pooled scratch; it is the one fan-out of the train/score
// stack, kept because it measures ×1.8 on two processors. On error the
// failure of the lowest-index bad row is reported, which keeps the error
// deterministic under concurrency. A panic in row on a spawned goroutine
// is not recovered: it ends the process.
func (m *Model) scoreRows(ctx context.Context, what string, n, workers int, row func(s *Scratch, i int) (Result, error)) ([]Result, error) {
	if err := m.checkTrained(); err != nil {
		return nil, err
	}
	// Report into a request trace when the ingress attached one (see
	// pipeline.SpanRecorder); a bare context makes this a no-op.
	defer pipeline.StartSpan(ctx, "score-batch")()
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n/batchSplitRows))
	out := make([]Result, n)
	p := m.scorePlanNow()
	span := (n + workers - 1) / workers
	// bad[w] is span w's first failure: spans ascend, so the first entry
	// set is the batch's lowest-index bad row.
	type rowErr struct {
		i   int
		err error
	}
	bad := make([]rowErr, workers)
	score := func(w int) {
		// An inconsistent model has no plan to draw scratch from; the
		// row functions then take the component path, which needs none.
		var s *Scratch
		if p.valid {
			s = p.getScratch()
			defer p.putScratch(s)
		}
		lo := w * span
		for i, hi := lo, min(lo+span, n); i < hi; i++ {
			if (i-lo)%batchCancelRows == 0 && ctx.Err() != nil {
				return
			}
			res, err := row(s, i)
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
		return nil, fmt.Errorf("core: %s: %w", what, pipeline.Canceled(err))
	}
	for _, b := range bad {
		if b.err != nil {
			return nil, fmt.Errorf("core: %s row %d: %w", what, b.i, b.err)
		}
	}
	return out, nil
}

// ScoreString is Score for sessions that deliver a raw user-agent string.
// Unparseable user-agents are maximally risky by definition — a browser
// that cannot state a coherent identity fails the polygraph.
func (m *Model) ScoreString(vector []float64, userAgent string) (Result, error) {
	return m.ScoreStringWith(nil, vector, userAgent)
}

// ScoreStringWith is ScoreString with caller-owned scratch (see
// ScoreWith). A repeated (vector, user-agent) pair is answered from the
// plan's verdict memo (memo.go). Nothing allocates on this path, whether
// or not the user-agent parses, but a repeated pair entering the memo.
func (m *Model) ScoreStringWith(s *Scratch, vector []float64, userAgent string) (Result, error) {
	if err := m.checkTrained(); err != nil {
		return Result{}, err
	}
	if p := m.scorePlanNow(); p.valid && len(vector) == p.dim {
		if s == nil {
			s = p.getScratch()
			defer p.putScratch(s)
		}
		return m.scoreStringMemo(p, s, vector, userAgent), nil
	}
	claimed, ok := ua.ParseRelease(userAgent)
	if !ok {
		cluster, cerr := m.predictClusterWith(s, vector)
		if cerr != nil {
			return Result{}, cerr
		}
		return Result{Cluster: cluster, Matched: false, RiskFactor: ua.MaxDistance}, nil
	}
	return m.ScoreWith(s, vector, claimed)
}

// predictCluster runs the scale→project→nearest-centroid pipeline.
func (m *Model) predictCluster(vector []float64) (int, error) {
	return m.predictClusterWith(nil, vector)
}

// predictClusterWith is predictCluster on the flattened plan with
// optional caller scratch; mismatched widths and inconsistent models
// fall back to the component path for its precise errors.
func (m *Model) predictClusterWith(s *Scratch, vector []float64) (int, error) {
	if err := m.checkTrained(); err != nil {
		return 0, err
	}
	if p := m.scorePlanNow(); p.valid && len(vector) == p.dim {
		if s == nil {
			s = p.getScratch()
			defer p.putScratch(s)
		}
		c, _ := p.assign(p.transform(s, vector))
		return c, nil
	}
	scaled, err := m.Scaler.TransformVec(vector)
	if err != nil {
		return 0, err
	}
	return m.clusterOfScaled(scaled)
}

// clusterOfScaled maps an already-scaled vector to its cluster.
func (m *Model) clusterOfScaled(scaled []float64) (int, error) {
	c, _, err := m.clusterAndDistance(scaled)
	return c, err
}

// clusterAndDistance maps an already-scaled vector to its cluster and its
// Euclidean distance to that cluster's centroid in cluster space.
func (m *Model) clusterAndDistance(scaled []float64) (int, float64, error) {
	x := scaled
	if m.PCA != nil {
		proj, err := m.PCA.TransformVec(scaled)
		if err != nil {
			return 0, 0, err
		}
		x = proj
	}
	c := m.KMeans.Predict(x)
	return c, m.KMeans.Distance(x, c), nil
}

// PredictCluster exposes the cluster assignment without risk analysis —
// the drift detector and the experiments need it.
func (m *Model) PredictCluster(vector []float64) (int, error) {
	return m.predictCluster(vector)
}

// ClusterTable renders the Table 3 view: cluster number → sorted
// user-agent ranges, compressed as "Chrome 110-113".
func (m *Model) ClusterTable() []ClusterRow {
	rows := make([]ClusterRow, 0, len(m.ClusterUAs))
	for c, uas := range m.ClusterUAs {
		rows = append(rows, ClusterRow{Cluster: c, UserAgents: CompressReleases(uas)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cluster < rows[j].Cluster })
	return rows
}

// ClusterRow is one line of the Table 3 rendering.
type ClusterRow struct {
	Cluster    int
	UserAgents string
}

// CompressReleases renders a release set as the paper's table notation:
// contiguous same-vendor version runs become "Vendor lo-hi".
func CompressReleases(releases []ua.Release) string {
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
