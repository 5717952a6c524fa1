package drift

import (
	"testing"

	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

func normals(n int, mean, sd float64, seed uint64) []float64 {
	g := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sd*g.NormFloat64()
	}
	return out
}

// decilePSI measures a current sample of one feature against the
// deciles of a baseline sample, as BaselinePSI does per feature.
func decilePSI(baseline, current []float64) (float64, error) {
	rows := make([][]float64, len(baseline))
	for i := range baseline {
		rows[i] = baseline[i : i+1]
	}
	return binnedPSI(core.BinColumns(rows, 1)[0], current)
}

func TestPSIIdenticalDistributions(t *testing.T) {
	a := normals(5000, 10, 2, 1)
	b := normals(5000, 10, 2, 2)
	psi, err := decilePSI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if psi > 0.02 {
		t.Fatalf("PSI of same distribution = %v", psi)
	}
}

func TestPSIShiftedDistribution(t *testing.T) {
	a := normals(5000, 10, 2, 3)
	b := normals(5000, 14, 2, 4) // 2σ mean shift
	psi, err := decilePSI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if psi < PSIAlert {
		t.Fatalf("PSI of 2σ shift = %v, want > %v", psi, PSIAlert)
	}
}

func TestPSINonNegativeAndSymmetricOrder(t *testing.T) {
	a := normals(2000, 5, 1, 5)
	b := normals(2000, 6, 1.5, 6)
	ab, err := decilePSI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := decilePSI(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if ab < 0 || ba < 0 {
		t.Fatalf("negative PSI: %v %v", ab, ba)
	}
	// PSI is not exactly symmetric (bins follow the baseline), but the
	// two directions must agree on the order of magnitude.
	if ab > 4*ba || ba > 4*ab {
		t.Fatalf("directions wildly inconsistent: %v vs %v", ab, ba)
	}
}

func TestPSILowCardinalityFeature(t *testing.T) {
	// Binary feature: flipping prevalence from 10% to 60% must alert.
	mk := func(n int, p float64, seed uint64) []float64 {
		g := rng.New(seed)
		out := make([]float64, n)
		for i := range out {
			if g.Bool(p) {
				out[i] = 1
			}
		}
		return out
	}
	stable, err := decilePSI(mk(3000, 0.1, 7), mk(3000, 0.11, 8))
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := decilePSI(mk(3000, 0.1, 9), mk(3000, 0.6, 10))
	if err != nil {
		t.Fatal(err)
	}
	if stable > PSIWatch {
		t.Fatalf("stable binary PSI = %v", stable)
	}
	if shifted < PSIAlert {
		t.Fatalf("shifted binary PSI = %v", shifted)
	}
}

func TestPSIErrors(t *testing.T) {
	if _, err := decilePSI([]float64{1}, normals(100, 0, 1, 1)); err == nil {
		t.Fatal("tiny baseline accepted")
	}
	if _, err := decilePSI(normals(100, 0, 1, 1), []float64{1}); err == nil {
		t.Fatal("tiny current accepted")
	}
}

func TestFeaturePSIOnOracleDrift(t *testing.T) {
	// Baseline: Firefox 110 sessions. Current: Firefox 119 (Element
	// rework). The Element feature must top the PSI ranking.
	oracle := browser.NewOracle()
	ext := fingerprint.NewExtractor(oracle, fingerprint.Table8())
	mk := func(v, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Firefox, Version: v}, OS: ua.Windows10})
		}
		return out
	}
	names := fingerprint.Names(fingerprint.Table8())
	results, err := FeaturePSI(names, mk(118, 200), mk(119, 200))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 28 {
		t.Fatalf("%d results", len(results))
	}
	if !AnyAlert(results) {
		t.Fatal("Firefox 119 rework raised no PSI alert")
	}
	// The shifted Element-family features lead the ranking.
	if results[0].Status != "alert" {
		t.Fatalf("top feature status %s", results[0].Status)
	}
	// Stable comparison: two independent draws of the same traffic
	// distribution (the monitor's production input), which must not
	// alert.
	window := func(seed uint64) [][]float64 {
		cfg := dataset.DefaultConfig()
		cfg.Sessions = 4000
		cfg.Seed = seed
		d, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, len(d.Sessions))
		for i, s := range d.Sessions {
			out[i] = s.Vector
		}
		return out
	}
	stable, err := FeaturePSI(names, window(1), window(2))
	if err != nil {
		t.Fatal(err)
	}
	if AnyAlert(stable) {
		for _, r := range stable[:3] {
			t.Logf("%s: %.3f (%s)", r.Feature, r.PSI, r.Status)
		}
		t.Fatal("stable traffic windows raised a PSI alert")
	}
}

func TestFeaturePSIValidation(t *testing.T) {
	if _, err := FeaturePSI([]string{"a"}, nil, [][]float64{{1}}); err == nil {
		t.Fatal("empty baseline accepted")
	}
	if _, err := FeaturePSI([]string{"a"}, [][]float64{{1, 2}}, [][]float64{{1}}); err == nil {
		t.Fatal("ragged baseline accepted")
	}
	base := make([][]float64, 20)
	cur := make([][]float64, 20)
	for i := range base {
		base[i] = []float64{float64(i)}
		cur[i] = []float64{float64(i), 9}
	}
	if _, err := FeaturePSI([]string{"a"}, base, cur); err == nil {
		t.Fatal("ragged current accepted")
	}
}
