package core

import (
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
// The plan is built once (eagerly at the end of Train and Load, lazily
// on first score for hand-assembled models) and never mutated, so it is
// safe to share across goroutines. It deliberately does NOT bake in
// VersionDivisor or NoveltyThreshold: those are plain Model fields that
// experiments tweak after training, and the scoring code reads them live
// so the plan can never go stale against them.
//
// Arithmetic is kept bit-identical to the component paths it replaces:
//   - scaling folds the skip mask and the zero-std guard into the
//     (means, stds) tables as exact identities (mean 0, std 1 — x−0 and
//     x/1 round to x), so the fused loop reproduces
//     scaler.transformInto bit for bit;
//   - projection accumulates (scaled[j]−pcaMean[j])·w in ascending j per
//     component, exactly pca.TransformVecInto's order;
//   - assignment scans centroids in ascending order with a strict <,
//     summing squared diffs in ascending j, exactly kmeans
//     nearestCentroid + sqDist, then takes one sqrt.
//
// The worker-invariance and audit-replay suites pin this equivalence.
type scorePlan struct {
	// valid is false when the model's components are dimensionally
	// inconsistent (possible only for hand-assembled models); scoring
	// then falls back to the component path, which reports the precise
	// component error.
	valid bool

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

	// perItemNs estimates one Score's cost for parallel.PlanFor.
	perItemNs float64

	scratch sync.Pool // of *Scratch
}

// Scratch holds the per-scorer reusable buffers of the fast path. A
// Scratch is model-agnostic — buffers grow on demand and survive model
// swaps — but must not be shared between concurrent scorers. Obtain one
// with Model.NewScratch and thread it through ScoreWith /
// ScoreStringWith; Score and ScoreBatch manage pooled scratch
// internally.
type Scratch struct {
	scaled []float64 // scaled feature vector (len dim)
	x      []float64 // PCA projection (len pcaK), unused when PCA is off
}

// NewScratch returns scratch buffers for the allocation-free scoring
// entry points. The receiver only sizes the initial buffers; the scratch
// works with any model.
func (m *Model) NewScratch() *Scratch {
	s := &Scratch{}
	if p := m.plan.Load(); p != nil && p.valid {
		s.scaled = make([]float64, p.dim)
		s.x = make([]float64, p.pcaK)
	}
	return s
}

// scorePlanNow returns the model's plan, building it on first use.
// Builds are idempotent and deterministic, so a racing double build is
// harmless; CompareAndSwap keeps exactly one. Train and Load Store a
// fresh plan when the model is complete, which also supersedes any plan
// built mid-training (buildClusterTable scores reference vectors before
// the UA table exists).
func (m *Model) scorePlanNow() *scorePlan {
	if p := m.plan.Load(); p != nil {
		return p
	}
	m.plan.CompareAndSwap(nil, buildScorePlan(m))
	return m.plan.Load()
}

// buildScorePlan flattens m's components. Callers have already passed
// checkTrained, so Scaler and KMeans are non-nil.
func buildScorePlan(m *Model) *scorePlan {
	p := &scorePlan{}
	p.scratch.New = func() any { return &Scratch{} }
	dim := m.Dim()
	p.dim = dim
	if len(m.Scaler.Means) != dim || len(m.Scaler.Stds) != dim {
		return p
	}
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
		if len(m.PCA.Mean) != dim || m.PCA.K < 1 {
			return p
		}
		rows, cols := m.PCA.Components.Dims()
		if rows < m.PCA.K || cols != dim {
			return p
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
		return p
	}
	rows, cols := km.Centroids.Dims()
	if rows < km.K || cols != cdim {
		return p
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

	flops := dim + p.pcaK*dim + p.k*p.cdim
	p.perItemNs = 50 + 1.5*float64(flops)
	p.valid = true
	return p
}

func (p *scorePlan) getScratch() *Scratch { return p.scratch.Get().(*Scratch) }
func (p *scorePlan) putScratch(s *Scratch) {
	p.scratch.Put(s)
}

// transform scales vector and, when PCA is enabled, projects it, using
// s's buffers. It returns the cluster-space vector (aliasing s). The
// caller has validated len(vector) == p.dim.
func (p *scorePlan) transform(s *Scratch, vector []float64) []float64 {
	if cap(s.scaled) < p.dim {
		s.scaled = make([]float64, p.dim)
	}
	scaled := s.scaled[:p.dim]
	for j, v := range vector {
		scaled[j] = (v - p.means[j]) / p.stds[j]
	}
	if p.pcaK == 0 {
		return scaled
	}
	if cap(s.x) < p.pcaK {
		s.x = make([]float64, p.pcaK)
	}
	x := s.x[:p.pcaK]
	for c := 0; c < p.pcaK; c++ {
		comp := p.pcaComp[c*p.dim : (c+1)*p.dim]
		sum := 0.0
		for j, w := range comp {
			sum += (scaled[j] - p.pcaMean[j]) * w
		}
		x[c] = sum
	}
	return x
}

// sqDist is the squared Euclidean distance from x to centroid c, summed
// in ascending coordinate order — assign's inner loop for the callers
// that want one centroid (a call per centroid costs the kernel 15 %).
func (p *scorePlan) sqDist(x []float64, c int) float64 {
	cent := p.cents[c*p.cdim : (c+1)*p.cdim]
	d := 0.0
	for j, xv := range x {
		diff := xv - cent[j]
		d += diff * diff
	}
	return d
}

// assign returns the nearest centroid and the Euclidean distance to it.
func (p *scorePlan) assign(x []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c := 0; c < p.k; c++ {
		cent := p.cents[c*p.cdim : (c+1)*p.cdim]
		d := 0.0
		for j, xv := range x {
			diff := xv - cent[j]
			d += diff * diff
		}
		if d < bestD {
			bestD = d
			best = c
		}
	}
	return best, math.Sqrt(bestD)
}

// scoreOnPlan is the allocation-free core of Score: transform, assign,
// novelty check, and the Algorithm 1 risk loop over the flat UA table.
// VersionDivisor and NoveltyThreshold are read live from the Model.
func (m *Model) scoreOnPlan(p *scorePlan, s *Scratch, vector []float64, claimed ua.Release) Result {
	x := p.transform(s, vector)
	cluster, dist := p.assign(x)
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
