package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"polygraph/internal/fingerprint"
	"polygraph/internal/kmeans"
	"polygraph/internal/matrix"
	"polygraph/internal/scaler"
	"polygraph/internal/ua"
)

// scoreRelease scores a vector against an already-parsed claim on the
// plan, with no memo: the typed row the package's tests pin Algorithm 1
// with. A nil scratch borrows one from the pool.
func (m *Model) scoreRelease(s *Scratch, vector []float64, claimed ua.Release) (Result, error) {
	p, err := m.planFor(len(vector))
	if err != nil {
		return Result{}, err
	}
	if s == nil {
		s = p.getScratch()
		defer p.putScratch(s)
	}
	return m.scoreOnPlan(p, s, vector, claimed, true), nil
}

// mustPlan returns m's plan, failing t when m has none.
func mustPlan(t testing.TB, m *Model) *scorePlan {
	t.Helper()
	p, err := m.readyPlan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// replan stores a fresh plan for m, whose components a test changed
// after its plan was built.
func replan(t testing.TB, m *Model) {
	t.Helper()
	p, err := buildScorePlan(m)
	if err != nil {
		t.Fatal(err)
	}
	m.plan.Store(p)
}

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

// TestPlanParityWithComponentPath: the plan returns bit-identical
// Results to Algorithm 1 computed on the components one by one
// (algorithm1Claim: scaler, then PCA, then k-means) for every vector and
// claim combination of the trained fixture.
func TestPlanParityWithComponentPath(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 8)
	for i, s := range samples {
		for _, claim := range planParityClaims(s.UA) {
			fast, err := m.scoreRelease(nil, s.Vector, claim)
			if err != nil {
				t.Fatal(err)
			}
			if want := algorithm1Claim(m, s.Vector, claim, true); !sameResult(fast, want) {
				t.Fatalf("sample %d claim %v: plan %+v, Algorithm 1 %+v", i, claim, fast, want)
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
		dists = append(dists, algorithm1Claim(m, s.Vector, s.UA, true).NoveltyScore)
	}
	sort.Float64s(dists)
	thresholds := []float64{1e-12, dists[len(dists)/2], 1e308}

	novelSeen, plainSeen := false, false
	for _, thr := range thresholds {
		m.NoveltyThreshold = thr
		for i, s := range samples {
			for _, claim := range planParityClaims(s.UA) {
				fast, err := m.scoreRelease(nil, s.Vector, claim)
				if err != nil {
					t.Fatal(err)
				}
				if want := algorithm1Claim(m, s.Vector, claim, true); !sameResult(fast, want) {
					t.Fatalf("thr %v sample %d claim %v: plan %+v, Algorithm 1 %+v", thr, i, claim, fast, want)
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
			got, err := hand.scoreRelease(nil, s.Vector, claim)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.scoreRelease(nil, s.Vector, claim)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sample %d claim %v: hand-built %+v, trained %+v", i, claim, got, want)
			}
		}
	}
	if hand.plan.Load() == nil {
		t.Fatal("no plan kept after scoring")
	}
}

// TestInconsistentModelFallsBackWithComponentError: a hand-assembled
// model whose scaler disagrees with its feature count has no plan, and
// ScoreString refuses it, for a known and an unknown claimed release,
// with an error that names the component and wraps ErrNotTrained. There
// is no component path left to fall back to; the failed build is not
// kept. TestUnplannableModelFailsClosed covers every other plan check.
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
	for _, userAgent := range []string{ua.UserAgent(samples[0].UA, ua.Windows10), "definitely not a browser"} {
		_, err := hand.ScoreString(samples[0].Vector, userAgent)
		if err == nil {
			t.Fatalf("%q: no error from inconsistent model", userAgent)
		}
		if !errors.Is(err, ErrNotTrained) || errors.Is(err, ErrBadInput) {
			t.Fatalf("%q: error %q does not wrap ErrNotTrained alone", userAgent, err)
		}
		if !strings.Contains(err.Error(), "scaler has 10 means and 10 stds, model has 28 features") {
			t.Fatalf("%q: error %q does not name the scaler", userAgent, err)
		}
	}
	if hand.plan.Load() != nil {
		t.Fatal("inconsistent model kept a plan")
	}
}

// TestUnplannableModelFailsClosed: a hand-built model that lacks a
// component, or whose components disagree on their dimensions, has no
// plan — one row per check buildScorePlan makes. Every entry point
// refuses it with one error, which wraps ErrNotTrained (a server fault,
// not the caller's bad input) and names the component; nothing is
// cached, nothing panics, and the model cannot round-trip: Save refuses
// a model missing a component and Load refuses the file of any other.
func TestUnplannableModelFailsClosed(t *testing.T) {
	trained, _, _ := trainFixtureModel(t, 5)
	samples, _ := trainFixture(t, 1)
	dim, pcaK, k := trained.Dim(), trained.PCA.K, trained.KMeans.K
	dense := func(rows, cols int) *matrix.Dense { return matrix.NewDense(rows, cols) }
	cases := []struct {
		name  string
		spoil func(m *Model)
		want  string
	}{
		{"no scaler", func(m *Model) { m.Scaler = nil }, "no scaler"},
		{"no PCA components", func(m *Model) { m.PCA.Components = nil }, "no PCA components"},
		{"no k-means", func(m *Model) { m.KMeans = nil }, "no k-means centroids"},
		{"no centroids", func(m *Model) { m.KMeans.Centroids = nil }, "no k-means centroids"},
		{"scaler width", func(m *Model) {
			m.Scaler = &scaler.Standard{Means: make([]float64, 10), Stds: make([]float64, 10)}
		}, "scaler has 10 means and 10 stds, model has 28 features"},
		{"scaler stds", func(m *Model) {
			m.Scaler = &scaler.Standard{Means: m.Scaler.Means, Stds: m.Scaler.Stds[:dim-1]}
		}, "scaler has 28 means and 27 stds"},
		{"PCA mean", func(m *Model) { m.PCA.Mean = m.PCA.Mean[:dim-1] }, "PCA mean has 27 entries"},
		{"PCA keeps none", func(m *Model) { m.PCA.K, m.PCA.Components = 0, dense(0, dim) }, "PCA keeps 0 components"},
		{"PCA components short", func(m *Model) { m.PCA.Components = dense(pcaK-1, dim) }, "PCA components are 6×28, want 7×28"},
		{"PCA components wide", func(m *Model) { m.PCA.Components = dense(pcaK, dim+1) }, "PCA components are 7×29, want 7×28"},
		{"k-means dimension", func(m *Model) {
			m.KMeans = &kmeans.Model{K: k, Dim: pcaK + 1, Centroids: dense(k, pcaK+1)}
		}, fmt.Sprintf("k-means has %d clusters of dimension 8, want dimension 7", k)},
		{"k-means clusters", func(m *Model) { m.KMeans = &kmeans.Model{Dim: pcaK, Centroids: dense(0, pcaK)} }, "k-means has 0 clusters"},
		{"centroids short", func(m *Model) {
			m.KMeans = &kmeans.Model{K: k, Dim: pcaK, Centroids: dense(k-1, pcaK)}
		}, fmt.Sprintf("k-means centroids are %d×7, want %d×7", k-1, k)},
		{"centroids wide", func(m *Model) {
			m.KMeans = &kmeans.Model{K: k, Dim: pcaK, Centroids: dense(k, pcaK+1)}
		}, fmt.Sprintf("k-means centroids are %d×8, want %d×7", k, k)},
	}
	vec := samples[0].Vector
	agent := ua.UserAgent(samples[0].UA, ua.Windows10)
	sessionID, class, err := fingerprint.SplitFrame(frameOf(t, vec, agent, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, pca, km := *trained.Scaler, *trained.PCA, *trained.KMeans
			m := &Model{
				Features:       trained.Features,
				Scaler:         &sc,
				PCA:            &pca,
				KMeans:         &km,
				ClusterUAs:     trained.ClusterUAs,
				UACluster:      trained.UACluster,
				VersionDivisor: trained.VersionDivisor,
			}
			tc.spoil(m)
			_, want := m.readyPlan()
			if want == nil || !errors.Is(want, ErrNotTrained) || errors.Is(want, ErrBadInput) || !strings.Contains(want.Error(), tc.want) {
				t.Fatalf("plan error %v, want ErrNotTrained naming %q", want, tc.want)
			}
			var p fingerprint.Payload
			calls := map[string]func() error{
				"ScoreString":     func() error { _, err := m.ScoreString(vec, agent); return err },
				"ScoreStringWith": func() error { _, err := m.ScoreStringWith(m.NewScratch(), vec, "not a browser"); return err },
				"ScoreClass":      func() error { _, _, err := m.ScoreClass(m.NewScratch(), &p, sessionID, class); return err },
				"ScoreStringBatchContext": func() error {
					_, err := m.ScoreStringBatchContext(context.Background(), [][]float64{vec}, []string{agent}, 1)
					return err
				},
				"ExplainResult":  func() error { _, err := m.ExplainResult(vec, agent, Result{}, 0); return err },
				"PredictCluster": func() error { _, err := m.PredictCluster(vec); return err },
			}
			for name, call := range calls {
				if err := call(); err == nil || err.Error() != want.Error() || !errors.Is(err, ErrNotTrained) {
					t.Fatalf("%s: %v, want %v", name, err, want)
				}
			}
			if p.UserAgent != "" || len(p.Values) != 0 {
				t.Fatalf("ScoreClass left the payload %+v, want it empty", p)
			}
			if s := m.NewScratch(); s.scaled != nil || s.vec != nil {
				t.Fatal("NewScratch sized its buffers from a model without a plan")
			}
			if m.plan.Load() != nil {
				t.Fatal("a failed build was kept")
			}
			var saved bytes.Buffer
			if err := m.Save(&saved); err != nil {
				if err.Error() != want.Error() {
					t.Fatalf("Save: %v, want %v", err, want)
				}
				return
			}
			if _, err := Load(&saved); err == nil {
				t.Fatal("Load accepted the saved model")
			}
		})
	}
}

// TestScoreAllocationFree pins the headline acceptance criterion:
// steady-state scoring is 0 allocs/op, with and without caller scratch,
// on the kernel (scoreRelease) and on the served path (ScoreString,
// here a memo hit).
func TestScoreAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random, distorting alloc counts")
	}
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 1)
	vec, claim := samples[0].Vector, samples[0].UA

	// Warm the pool, then demand zero.
	if _, err := m.scoreRelease(nil, vec, claim); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.scoreRelease(nil, vec, claim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("scoreRelease allocates %v objects/op, want 0", allocs)
	}

	scratch := m.NewScratch()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.scoreRelease(scratch, vec, claim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("scoreRelease with scratch allocates %v objects/op, want 0", allocs)
	}

	// The second sighting stores the pair in the memo; from then on
	// ScoreString answers from it.
	userAgent := ua.UserAgent(claim, ua.Windows10)
	for range 2 {
		if _, err := m.ScoreString(vec, userAgent); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.ScoreString(vec, userAgent); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ScoreString allocates %v objects/op, want 0", allocs)
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
	// The vectors stay integral, so each has class bytes and is hashed.
	distinct := append([]float64(nil), vec...)
	for _, sc := range []*Scratch{scratch, nil} {
		if allocs := testing.AllocsPerRun(1000, func() {
			distinct[0]++
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
	vec, userAgent := samples[0].Vector, ua.UserAgent(samples[0].UA, ua.Windows10)

	const big = 4096
	vectors := make([][]float64, big)
	userAgents := make([]string, big)
	for i := range vectors {
		vectors[i] = vec
		userAgents[i] = userAgent
	}
	measure := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := m.ScoreStringBatchContext(context.Background(), vectors[:n], userAgents[:n], 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(64), measure(big)
	// The result slice plus a handful of dispatch-time objects; the gap
	// between sizes must not grow with row count.
	if small > 16 {
		t.Fatalf("ScoreStringBatchContext(64) allocates %v objects/op", small)
	}
	if large > small+8 {
		t.Fatalf("ScoreStringBatchContext allocs scale with size: %v at 64 rows, %v at %d", small, large, big)
	}
}
