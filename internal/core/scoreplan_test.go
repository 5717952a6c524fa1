package core

import (
	"math"
	"sort"
	"strings"
	"testing"

	"polygraph/internal/scaler"
	"polygraph/internal/ua"
)

// planParityClaims returns claim variants that exercise every branch of
// the risk loop: the honest claim (match), a wrong-vendor claim
// (Algorithm 1 mismatch), and a far-future version nothing clusters with.
func planParityClaims(honest ua.Release) []ua.Release {
	return []ua.Release{
		honest,
		{Vendor: ua.Firefox, Version: 48},
		{Vendor: ua.Chrome, Version: 999},
	}
}

// TestPlanParityWithComponentPath pins the tentpole invariant: the
// flattened fast path returns bit-identical Results to the component
// (scaler → PCA → kmeans) path for every vector and claim combination.
func TestPlanParityWithComponentPath(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 8)
	for i, s := range samples {
		for _, claim := range planParityClaims(s.UA) {
			fast, err := m.Score(s.Vector, claim)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := m.scoreSlow(s.Vector, claim)
			if err != nil {
				t.Fatal(err)
			}
			if fast != slow {
				t.Fatalf("sample %d claim %v: plan %+v, component %+v", i, claim, fast, slow)
			}
		}
	}
}

// TestPlanParityWithNoveltyGuard re-runs the parity sweep with the guard
// armed at thresholds that produce both Novel and ordinary outcomes.
// NoveltyThreshold is read live from the Model, so mutating it must take
// effect without rebuilding the plan.
func TestPlanParityWithNoveltyGuard(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 6)

	// Pick a threshold straddling the population so both branches fire.
	dists := make([]float64, 0, len(samples))
	origThr := m.NoveltyThreshold
	defer func() { m.NoveltyThreshold = origThr }()
	m.NoveltyThreshold = 1e308 // armed, nothing novel
	for _, s := range samples {
		slow, _ := m.scoreSlow(s.Vector, s.UA)
		dists = append(dists, slow.NoveltyScore)
	}
	sort.Float64s(dists)
	thresholds := []float64{1e-12, dists[len(dists)/2], 1e308}

	novelSeen, plainSeen := false, false
	for _, thr := range thresholds {
		m.NoveltyThreshold = thr
		for i, s := range samples {
			for _, claim := range planParityClaims(s.UA) {
				fast, err := m.Score(s.Vector, claim)
				if err != nil {
					t.Fatal(err)
				}
				slow, err := m.scoreSlow(s.Vector, claim)
				if err != nil {
					t.Fatal(err)
				}
				if fast != slow {
					t.Fatalf("thr %v sample %d claim %v: plan %+v, component %+v", thr, i, claim, fast, slow)
				}
				if fast.Novel {
					novelSeen = true
				} else {
					plainSeen = true
				}
			}
		}
	}
	if !novelSeen || !plainSeen {
		t.Fatalf("guard sweep did not cover both branches (novel %v, plain %v)", novelSeen, plainSeen)
	}
}

// TestScoreStringUnparseableUAOnPlan: the gibberish-UA path predicts a
// cluster through the plan and reports maximum risk.
func TestScoreStringUnparseableUAOnPlan(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 2)
	scratch := m.NewScratch()
	for i, s := range samples {
		res, err := m.ScoreStringWith(scratch, s.Vector, "definitely not a browser")
		if err != nil {
			t.Fatal(err)
		}
		wantCluster, err := m.PredictCluster(s.Vector)
		if err != nil {
			t.Fatal(err)
		}
		want := Result{Cluster: wantCluster, Matched: false, RiskFactor: ua.MaxDistance}
		if res != want {
			t.Fatalf("sample %d: got %+v, want %+v", i, res, want)
		}
	}
}

// TestHandBuiltModelBuildsPlanLazily: a Model assembled from parts (no
// Train/Load) scores through a lazily built plan, identically to the
// trained original.
func TestHandBuiltModelBuildsPlanLazily(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	hand := &Model{
		Features:         m.Features,
		Scaler:           m.Scaler,
		PCA:              m.PCA,
		KMeans:           m.KMeans,
		ClusterUAs:       m.ClusterUAs,
		UACluster:        m.UACluster,
		VersionDivisor:   m.VersionDivisor,
		NoveltyThreshold: m.NoveltyThreshold,
	}
	if hand.plan.Load() != nil {
		t.Fatal("hand-built model has a plan before first score")
	}
	samples, _ := trainFixture(t, 4)
	for i, s := range samples {
		for _, claim := range planParityClaims(s.UA) {
			got, err := hand.Score(s.Vector, claim)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Score(s.Vector, claim)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sample %d claim %v: hand-built %+v, trained %+v", i, claim, got, want)
			}
		}
	}
	p := hand.plan.Load()
	if p == nil || !p.valid {
		t.Fatal("lazy plan missing or invalid after scoring")
	}
}

// TestInconsistentModelFallsBackWithComponentError: dimensional
// inconsistency (only reachable with hand-assembled models) must produce
// an invalid plan and surface the component's own error text.
func TestInconsistentModelFallsBackWithComponentError(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	narrow := &scaler.Standard{Means: make([]float64, 10), Stds: make([]float64, 10)}
	hand := &Model{
		Features:       m.Features, // claims 28 features...
		Scaler:         narrow,     // ...but the scaler was fitted on 10
		PCA:            m.PCA,
		KMeans:         m.KMeans,
		ClusterUAs:     m.ClusterUAs,
		UACluster:      m.UACluster,
		VersionDivisor: m.VersionDivisor,
	}
	samples, _ := trainFixture(t, 1)
	_, err := hand.Score(samples[0].Vector, samples[0].UA)
	if err == nil {
		t.Fatal("no error from inconsistent model")
	}
	if !strings.Contains(err.Error(), "scaler: vector has 28 entries, fitted on 10") {
		t.Fatalf("error %q lost the component message", err)
	}
	if p := hand.plan.Load(); p == nil || p.valid {
		t.Fatal("inconsistent model should cache an invalid plan")
	}
}

// TestScoreAllocationFree pins the headline acceptance criterion:
// steady-state Score is 0 allocs/op, with and without caller scratch.
func TestScoreAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random, distorting alloc counts")
	}
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 1)
	vec, claim := samples[0].Vector, samples[0].UA

	// Warm the pool, then demand zero.
	if _, err := m.Score(vec, claim); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Score(vec, claim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Score allocates %v objects/op, want 0", allocs)
	}

	scratch := m.NewScratch()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.ScoreWith(scratch, vec, claim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ScoreWith allocates %v objects/op, want 0", allocs)
	}

	// A claim that does not parse takes the same kernel and must cost no
	// more: the hostile frame is not allowed to be the expensive one.
	for _, junk := range []string{"definitely not a browser", "Chrome/999.0.0.0"} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := m.ScoreStringWith(scratch, vec, junk); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("ScoreStringWith(%q) allocates %v objects/op, want 0", junk, allocs)
		}
	}

	// Traffic that never repeats a pair must not pay for the verdict memo:
	// the doorkeeper notes a one-off pair's hash and stores no entry. A
	// memo that inserted on first sight would allocate on every call here.
	distinct := append([]float64(nil), vec...)
	bits := math.Float64bits(distinct[0])
	userAgent := ua.UserAgent(claim, ua.Windows10)
	for _, sc := range []*Scratch{scratch, nil} {
		if allocs := testing.AllocsPerRun(1000, func() {
			bits++
			distinct[0] = math.Float64frombits(bits)
			if _, err := m.ScoreStringWith(sc, distinct, userAgent); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("ScoreStringWith on never-repeated vectors (scratch %v) allocates %v objects/op, want 0", sc != nil, allocs)
		}
	}
}

// TestScoreBatchAllocsSizeIndependent: batching allocates O(1) beyond the
// result slice — per-row work reuses pooled scratch.
func TestScoreBatchAllocsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random, distorting alloc counts")
	}
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 1)
	vec, claim := samples[0].Vector, samples[0].UA

	const big = 4096
	vectors := make([][]float64, big)
	claims := make([]ua.Release, big)
	for i := range vectors {
		vectors[i] = vec
		claims[i] = claim
	}
	measure := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := m.ScoreBatch(vectors[:n], claims[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(64), measure(big)
	// The result slice plus a handful of dispatch-time objects; the gap
	// between sizes must not grow with row count.
	if small > 16 {
		t.Fatalf("ScoreBatch(64) allocates %v objects/op", small)
	}
	if large > small+8 {
		t.Fatalf("ScoreBatch allocs scale with size: %v at 64 rows, %v at %d", small, large, big)
	}
}
