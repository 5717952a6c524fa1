package core

import (
	"fmt"
	"math"
	"sync"

	"polygraph/internal/ua"
)

// scorePlan is the flattened, read-only scoring layout of a trained
// Model: every component the hot path touches — scaler statistics, PCA
// mean and component rows, k-means centroids, and the per-cluster
// user-agent table — copied once into a handful of contiguous slices so
// steady-state scoring walks flat memory instead of chasing component
// pointers, and allocates nothing.
//
// The plan is the only way the package computes a verdict: every entry
// point gets it from readyPlan first, and a model whose components
// disagree on their dimensions has none, so it is refused with an error
// that wraps ErrNotTrained and names the component. The plan is built
// once (eagerly at the end of Train and Load, lazily on first use for
// hand-assembled models and for PredictCluster mid-training) and never
// mutated, so it is safe to share across goroutines. It deliberately
// does NOT bake in VersionDivisor or NoveltyThreshold: those are plain
// Model fields that experiments tweak after training, and the scoring
// code reads them live so the plan can never go stale against them.
//
// Arithmetic is Algorithm 1's, component by component, in the order
// the components' own methods use:
//   - scaling folds the skip mask and the zero-std guard into the
//     (means, stds) tables as exact identities (mean 0, std 1 — x−0 and
//     x/1 round to x), so the fused loop reproduces
//     scaler.transformInto bit for bit;
//   - projection centres the scaled vector once (scaled[j]−pcaMean[j],
//     as pca.TransformVec does) and accumulates centred[j]·w in
//     ascending j per component, exactly pca.projectInto's order;
//   - assignment sums squared diffs in ascending j per centroid and
//     compares centroids in ascending order with a strict <, exactly
//     kmeans nearestCentroid + sqDist, then takes one sqrt.
//
// Both loops are register-blocked: four components (centroids) are
// evaluated per pass over j, then two, then one for the remainder. A
// float add has a latency of about four cycles, so one serial chain
// retires a quarter of what the core can issue; four chains side by side
// fill it. Blocking changes which chains run together, never the order
// of additions inside a chain — each sum is still a left fold over
// ascending j of the same products — and chains share no rounding, so
// every sum has the bits the serial loop gave it. The d < bestD tests run
// after a block's sums, in ascending centroid index, so the winner of a
// tie (or of NaN distances, which never compare below) is the serial
// scan's. There is one kernel: no serial copy is kept outside the tests.
//
// The worker-invariance and audit-replay suites pin the equivalence on
// the fixture model; TestKernelBlockingParity pins it for every block
// remainder.
type scorePlan struct {
	dim   int // feature width
	means []float64
	stds  []float64 // zero/skipped entries normalized to exact identities

	pcaK    int       // 0 when PCA is disabled
	pcaMean []float64 // len dim
	pcaComp []float64 // row-major pcaK×dim

	k, cdim int       // cluster count and cluster-space width
	cents   []float64 // row-major k×cdim

	// Per-cluster user-agent table: cluster c's members are
	// uaList[uaOff[c]:uaOff[c+1]], in ClusterUAs order.
	uaOff  []int32 // len k+1
	uaList []ua.Release

	// What explain would otherwise format per verdict: the feature names
	// (len dim), each member's String (parallel to uaList) and each
	// cluster's Table 3 label (len k, "" for a cluster without members).
	featNames     []string
	uaNames       []string
	clusterLabels []string

	scratch sync.Pool    // of *Scratch
	memo    *verdictMemo // verdicts by class bytes (memo.go)
}

// Scratch holds the per-scorer reusable buffers of the fast path. A
// Scratch is model-agnostic — buffers grow on demand and survive model
// swaps — but must not be shared between concurrent scorers. Obtain one
// with Model.NewScratch and thread it through ScoreStringWith or
// ScoreFrame; ScoreString and ScoreStringBatchContext manage pooled
// scratch internally.
type Scratch struct {
	scaled  []float64        // scaled feature vector (len dim)
	centred []float64        // scaled − pcaMean (len dim), unused when PCA is off
	x       []float64        // PCA projection (len pcaK), unused when PCA is off
	vec     []float64        // a decoded frame's values (ScoreFrame)
	class   []byte           // a scored pair's class bytes, the verdict memo's key (memo.go)
	seen    [memoSeen]uint64 // verdict-memo doorkeeper: hashes of recent misses (memo.go)
}

// NewScratch returns scratch buffers for the allocation-free scoring
// entry points. The receiver only sizes the initial buffers, when it has
// a plan; the scratch works with any model.
func (m *Model) NewScratch() *Scratch {
	s := &Scratch{}
	if p, err := m.readyPlan(); err == nil {
		s.scaled = make([]float64, p.dim)
		s.vec = make([]float64, p.dim)
		if p.pcaK > 0 {
			s.centred = make([]float64, p.dim)
			s.x = make([]float64, p.pcaK)
		}
	}
	return s
}

// readyPlan returns the model's plan, building it on first use, or the
// reason it has none: a model missing a component, or one whose
// components disagree on their dimensions (only a hand-assembled model
// can be either), wrapping ErrNotTrained. Every entry point calls it
// first. Builds are idempotent and deterministic, so a racing double
// build is harmless; CompareAndSwap keeps exactly one, and a failed
// build is not kept. Train and Load Store a fresh plan when the model
// is complete, which also supersedes any plan built mid-training
// (buildClusterTable predicts reference vectors' clusters before the UA
// table exists).
func (m *Model) readyPlan() (*scorePlan, error) {
	if p := m.plan.Load(); p != nil {
		return p, nil
	}
	p, err := buildScorePlan(m)
	if err != nil {
		return nil, err
	}
	m.plan.CompareAndSwap(nil, p)
	return m.plan.Load(), nil
}

// notPlanned is readyPlan's error: the model lacks a component or its
// components disagree, as format and args say.
func notPlanned(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrNotTrained, fmt.Sprintf(format, args...))
}

// missing names a component m lacks: a model that never went through
// Train or Load, or one assembled by hand without it. Neither a plan
// nor a model file can be made of it.
func (m *Model) missing() error {
	switch {
	case m.Scaler == nil:
		return notPlanned("no scaler")
	case m.PCA != nil && m.PCA.Components == nil:
		return notPlanned("no PCA components")
	case m.KMeans == nil || m.KMeans.Centroids == nil:
		return notPlanned("no k-means centroids")
	}
	return nil
}

// buildScorePlan flattens m's components, or names the first one that
// is missing or disagrees with the model's width or with the component
// before it.
func buildScorePlan(m *Model) (*scorePlan, error) {
	if err := m.missing(); err != nil {
		return nil, err
	}
	dim := m.Dim()
	if len(m.Scaler.Means) != dim || len(m.Scaler.Stds) != dim {
		return nil, notPlanned("scaler has %d means and %d stds, model has %d features", len(m.Scaler.Means), len(m.Scaler.Stds), dim)
	}
	p := &scorePlan{dim: dim}
	p.scratch.New = func() any { return &Scratch{} }
	p.means = append([]float64(nil), m.Scaler.Means...)
	p.stds = make([]float64, dim)
	skip := m.Scaler.Skip()
	for j := 0; j < dim; j++ {
		if skip != nil && skip[j] {
			// Pass-through column: x−0 and x/1 are exact, so the fused
			// loop needs no branch.
			p.means[j] = 0
			p.stds[j] = 1
			continue
		}
		sd := m.Scaler.Stds[j]
		if sd <= 0 {
			sd = 1 // center-only column: divide by exactly 1
		}
		p.stds[j] = sd
	}

	cdim := dim
	if m.PCA != nil {
		if len(m.PCA.Mean) != dim {
			return nil, notPlanned("PCA mean has %d entries, model has %d features", len(m.PCA.Mean), dim)
		}
		if m.PCA.K < 1 {
			return nil, notPlanned("PCA keeps %d components", m.PCA.K)
		}
		if rows, cols := m.PCA.Components.Dims(); rows < m.PCA.K || cols != dim {
			return nil, notPlanned("PCA components are %d×%d, want %d×%d", rows, cols, m.PCA.K, dim)
		}
		p.pcaK = m.PCA.K
		p.pcaMean = append([]float64(nil), m.PCA.Mean...)
		p.pcaComp = make([]float64, p.pcaK*dim)
		for c := 0; c < p.pcaK; c++ {
			copy(p.pcaComp[c*dim:(c+1)*dim], m.PCA.Components.RawRow(c))
		}
		cdim = p.pcaK
	}

	km := m.KMeans
	if km.K < 1 || km.Dim != cdim {
		return nil, notPlanned("k-means has %d clusters of dimension %d, want dimension %d", km.K, km.Dim, cdim)
	}
	if rows, cols := km.Centroids.Dims(); rows < km.K || cols != cdim {
		return nil, notPlanned("k-means centroids are %d×%d, want %d×%d", rows, cols, km.K, cdim)
	}
	p.k, p.cdim = km.K, cdim
	p.cents = make([]float64, km.K*cdim)
	for c := 0; c < km.K; c++ {
		copy(p.cents[c*cdim:(c+1)*cdim], km.Centroids.RawRow(c))
	}

	p.uaOff = make([]int32, km.K+1)
	p.clusterLabels = make([]string, km.K)
	for c := 0; c < km.K; c++ {
		p.uaOff[c] = int32(len(p.uaList))
		p.uaList = append(p.uaList, m.ClusterUAs[c]...)
		if members := m.ClusterUAs[c]; len(members) > 0 {
			p.clusterLabels[c] = CompressReleases(members)
		}
	}
	p.uaOff[km.K] = int32(len(p.uaList))
	p.uaNames = make([]string, len(p.uaList))
	for i, r := range p.uaList {
		p.uaNames[i] = r.String()
	}
	p.featNames = make([]string, dim)
	for j, f := range m.Features {
		p.featNames[j] = f.Name()
	}

	p.memo = newVerdictMemo(memoSlots)
	return p, nil
}

func (p *scorePlan) getScratch() *Scratch { return p.scratch.Get().(*Scratch) }
func (p *scorePlan) putScratch(s *Scratch) {
	p.scratch.Put(s)
}

// transform scales vector and, when PCA is enabled, projects it, using
// s's buffers. It returns the cluster-space vector (aliasing s). The
// caller has validated len(vector) == p.dim.
//
// Projection runs four components per pass over j (then two, then one),
// so four independent add chains are in flight instead of one; each
// component's sum still adds the same products in ascending j.
func (p *scorePlan) transform(s *Scratch, vector []float64) []float64 {
	dim := p.dim
	if cap(s.scaled) < dim {
		s.scaled = make([]float64, dim)
	}
	scaled := s.scaled[:dim]
	vector = vector[:dim]
	means, stds := p.means[:dim], p.stds[:dim]
	for j, v := range vector {
		scaled[j] = (v - means[j]) / stds[j]
	}
	pcaK := p.pcaK
	if pcaK == 0 {
		return scaled
	}
	if cap(s.centred) < dim {
		s.centred = make([]float64, dim)
	}
	centred := s.centred[:dim]
	pcaMean := p.pcaMean[:dim]
	for j, v := range scaled {
		centred[j] = v - pcaMean[j]
	}
	if cap(s.x) < pcaK {
		s.x = make([]float64, pcaK)
	}
	x := s.x[:pcaK]
	comp := p.pcaComp[:pcaK*dim]
	c := 0
	for ; c+4 <= pcaK; c += 4 {
		w0 := comp[c*dim:][:dim]
		w1 := comp[(c+1)*dim:][:dim]
		w2 := comp[(c+2)*dim:][:dim]
		w3 := comp[(c+3)*dim:][:dim]
		var s0, s1, s2, s3 float64
		for j, v := range centred {
			s0 += v * w0[j]
			s1 += v * w1[j]
			s2 += v * w2[j]
			s3 += v * w3[j]
		}
		x[c], x[c+1], x[c+2], x[c+3] = s0, s1, s2, s3
	}
	if c+2 <= pcaK {
		w0 := comp[c*dim:][:dim]
		w1 := comp[(c+1)*dim:][:dim]
		var s0, s1 float64
		for j, v := range centred {
			s0 += v * w0[j]
			s1 += v * w1[j]
		}
		x[c], x[c+1] = s0, s1
		c += 2
	}
	if c < pcaK {
		w0 := comp[c*dim:][:dim]
		s0 := 0.0
		for j, v := range centred {
			s0 += v * w0[j]
		}
		x[c] = s0
	}
	return x
}

// sqDist is the squared Euclidean distance from x to centroid c, summed
// in ascending coordinate order: one of assign's chains on its own, for
// explain, which wants every centroid's distance rather than the
// nearest.
func (p *scorePlan) sqDist(x []float64, c int) float64 {
	cent := p.cents[c*p.cdim:][:len(x)]
	d := 0.0
	for j, xv := range x {
		diff := xv - cent[j]
		d += diff * diff
	}
	return d
}

// assign returns the nearest centroid and the Euclidean distance to it.
// Four centroids are summed per pass over x (then two, then one), each
// in ascending coordinate order as sqDist does; the comparisons then
// run in ascending centroid order with a strict <, so a tie goes to the
// lowest index inside a block and across blocks.
func (p *scorePlan) assign(x []float64) (int, float64) {
	k, cdim := p.k, p.cdim
	x = x[:cdim]
	cents := p.cents[:k*cdim]
	best, bestD := 0, math.Inf(1)
	c := 0
	for ; c+4 <= k; c += 4 {
		c0 := cents[c*cdim:][:cdim]
		c1 := cents[(c+1)*cdim:][:cdim]
		c2 := cents[(c+2)*cdim:][:cdim]
		c3 := cents[(c+3)*cdim:][:cdim]
		var d0, d1, d2, d3 float64
		for j, xv := range x {
			t0 := xv - c0[j]
			t1 := xv - c1[j]
			t2 := xv - c2[j]
			t3 := xv - c3[j]
			d0 += t0 * t0
			d1 += t1 * t1
			d2 += t2 * t2
			d3 += t3 * t3
		}
		if d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		if d2 < bestD {
			best, bestD = c+2, d2
		}
		if d3 < bestD {
			best, bestD = c+3, d3
		}
	}
	if c+2 <= k {
		c0 := cents[c*cdim:][:cdim]
		c1 := cents[(c+1)*cdim:][:cdim]
		var d0, d1 float64
		for j, xv := range x {
			t0 := xv - c0[j]
			t1 := xv - c1[j]
			d0 += t0 * t0
			d1 += t1 * t1
		}
		if d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		c += 2
	}
	if c < k {
		if d := p.sqDist(x, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best, math.Sqrt(bestD)
}

// scoreOnPlan is the allocation-free core of scoring: transform, assign,
// novelty check, and the Algorithm 1 risk loop over the flat UA table.
// A claim that did not parse (!parsed) takes the maximum risk.
// VersionDivisor and NoveltyThreshold are read live from the Model.
func (m *Model) scoreOnPlan(p *scorePlan, s *Scratch, vector []float64, claimed ua.Release, parsed bool) Result {
	x := p.transform(s, vector)
	cluster, dist := p.assign(x)
	if !parsed {
		return Result{Cluster: cluster, RiskFactor: ua.MaxDistance}
	}
	res := Result{Cluster: cluster}
	if m.NoveltyThreshold > 0 {
		res.NoveltyScore = dist
		res.Novel = dist > m.NoveltyThreshold
	}
	members := p.uaList[p.uaOff[cluster]:p.uaOff[cluster+1]]
	for _, r := range members {
		if r == claimed {
			res.Matched = true
			if res.Novel {
				// The claim is cluster-consistent but the surface is
				// alien: maximum risk, per the guard's purpose.
				res.RiskFactor = ua.MaxDistance
			}
			return res
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
	return res
}
