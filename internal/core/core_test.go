package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"polygraph/internal/browser"
	"polygraph/internal/fingerprint"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// trainFixture builds a small but structurally faithful training set:
// sessions for a handful of releases spanning several engine eras, with a
// sprinkle of modifier noise.
func trainFixture(t testing.TB, perUA int) ([]Sample, *fingerprint.Extractor) {
	t.Helper()
	oracle := browser.NewOracle()
	ext := fingerprint.NewExtractor(oracle, fingerprint.Table8())
	releases := []ua.Release{
		{Vendor: ua.Chrome, Version: 60}, {Vendor: ua.Chrome, Version: 80},
		{Vendor: ua.Chrome, Version: 95}, {Vendor: ua.Chrome, Version: 105},
		{Vendor: ua.Chrome, Version: 112}, {Vendor: ua.Chrome, Version: 114},
		{Vendor: ua.Edge, Version: 112}, {Vendor: ua.Edge, Version: 105},
		{Vendor: ua.Firefox, Version: 48}, {Vendor: ua.Firefox, Version: 78},
		{Vendor: ua.Firefox, Version: 95}, {Vendor: ua.Firefox, Version: 110},
		{Vendor: ua.Edge, Version: 18},
	}
	gen := rng.New(99)
	var samples []Sample
	for _, r := range releases {
		for i := 0; i < perUA; i++ {
			p := browser.Profile{Release: r, OS: ua.Windows10}
			if gen.Bool(0.02) && r.Vendor == ua.Chrome {
				p.Mods = []browser.Modifier{browser.ChromeExtensionDuckDuckGo()}
			}
			samples = append(samples, Sample{Vector: ext.Extract(p), UA: r})
		}
	}
	return samples, ext
}

func trainFixtureModel(t testing.TB, perUA int) (*Model, *TrainReport, *fingerprint.Extractor) {
	t.Helper()
	samples, ext := trainFixture(t, perUA)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0 // tiny fixture: keep everything
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}
	m, rep, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep, ext
}

func TestTrainValidation(t *testing.T) {
	cfg := DefaultTrainConfig()
	if _, _, err := Train(nil, cfg); err == nil {
		t.Fatal("no error for empty samples")
	}
	samples, _ := trainFixture(t, 3)
	bad := cfg
	bad.Features = nil
	if _, _, err := Train(samples, bad); err == nil {
		t.Fatal("no error for empty features")
	}
	bad = cfg
	bad.K = 0
	if _, _, err := Train(samples, bad); err == nil {
		t.Fatal("no error for K=0")
	}
	bad = cfg
	bad.PCAComponents = 99
	if _, _, err := Train(samples, bad); err == nil {
		t.Fatal("no error for oversized PCA")
	}
	short := []Sample{{Vector: []float64{1, 2}, UA: ua.Release{Vendor: ua.Chrome, Version: 100}}}
	if _, _, err := Train(short, cfg); err == nil {
		t.Fatal("no error for wrong-width sample")
	}
}

func TestTrainProducesCoherentModel(t *testing.T) {
	m, rep, _ := trainFixtureModel(t, 60)
	if m.Accuracy < 0.95 {
		t.Fatalf("training accuracy = %v", m.Accuracy)
	}
	if rep.InputRows != 13*60 {
		t.Fatalf("input rows = %d", rep.InputRows)
	}
	if len(rep.CumulativeVariance) != 28 {
		t.Fatalf("variance spectrum length %d", len(rep.CumulativeVariance))
	}
	// Every trained UA has a cluster.
	if len(m.UACluster) != 13 {
		t.Fatalf("UA table has %d entries", len(m.UACluster))
	}
	// Chrome 112 and Edge 112 share a Chromium surface: same cluster.
	if m.UACluster[ua.Release{Vendor: ua.Chrome, Version: 112}] !=
		m.UACluster[ua.Release{Vendor: ua.Edge, Version: 112}] {
		t.Fatal("Chrome 112 and Edge 112 in different clusters")
	}
	// Firefox 110 must not share with modern Chrome.
	if m.UACluster[ua.Release{Vendor: ua.Firefox, Version: 110}] ==
		m.UACluster[ua.Release{Vendor: ua.Chrome, Version: 112}] {
		t.Fatal("Firefox 110 clustered with Chrome 112")
	}
}

func TestScoreHonestSession(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	r := ua.Release{Vendor: ua.Chrome, Version: 112}
	vec := ext.Extract(browser.Profile{Release: r, OS: ua.Windows10})
	res, err := m.scoreRelease(nil, vec, r)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched || res.Flagged() || res.RiskFactor != 0 {
		t.Fatalf("honest session flagged: %+v", res)
	}
}

func TestScoreLyingSession(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	// Fingerprint of Chrome 112, claiming Firefox 110 (category-2 fraud
	// browser behaviour).
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	res, err := m.scoreRelease(nil, vec, ua.Release{Vendor: ua.Firefox, Version: 110})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched || !res.Flagged() {
		t.Fatal("cross-vendor lie not flagged")
	}
	if res.RiskFactor != ua.MaxDistance {
		t.Fatalf("cross-vendor risk = %d, want %d", res.RiskFactor, ua.MaxDistance)
	}
}

func TestScoreNearVersionLieLowRisk(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	// Fingerprint of Chrome 112 claiming Chrome 60: same vendor, huge
	// version gap => flagged with moderate risk (distance to nearest
	// cluster member).
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	res, err := m.scoreRelease(nil, vec, ua.Release{Vendor: ua.Chrome, Version: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatal("version lie not flagged")
	}
	// Cluster contains Chrome 112 (and likely Edge 112): distance =
	// floor(52/4) = 13 if 112 is nearest.
	if res.RiskFactor < 10 || res.RiskFactor > ua.MaxDistance {
		t.Fatalf("risk factor = %d", res.RiskFactor)
	}
}

// TestScoreDimensionError: a vector of the wrong width is the caller's
// fault at every entry point — ErrBadInput, with one message whether or
// not the user-agent parses.
func TestScoreDimensionError(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	narrow := []float64{1, 2, 3}
	want := fmt.Sprintf("vector has 3 features, model expects %d", m.Dim())
	entries := []struct {
		name string
		call func(userAgent string) error
	}{
		{"ScoreString", func(userAgent string) error {
			_, err := m.ScoreString(narrow, userAgent)
			return err
		}},
		{"ScoreStringWith", func(userAgent string) error {
			_, err := m.ScoreStringWith(m.NewScratch(), narrow, userAgent)
			return err
		}},
		{"ScoreStringBatchContext", func(userAgent string) error {
			_, err := m.ScoreStringBatchContext(context.Background(), [][]float64{narrow}, []string{userAgent}, 0)
			return err
		}},
		{"ExplainResult", func(userAgent string) error {
			_, err := m.ExplainResult(narrow, userAgent, Result{}, 0)
			return err
		}},
		{"PredictCluster", func(string) error {
			_, err := m.PredictCluster(narrow)
			return err
		}},
	}
	agents := map[string]string{
		"parseable": ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10),
		"junk":      "definitely-not-a-browser",
	}
	for _, e := range entries {
		for kind, userAgent := range agents {
			err := e.call(userAgent)
			if !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with a %s user-agent: %v, want ErrBadInput naming %q", e.name, kind, err, want)
			}
		}
	}
}

func TestScoreStringUnparseableIsMaxRisk(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 20)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	res, err := m.ScoreString(vec, "definitely-not-a-browser")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() || res.RiskFactor != ua.MaxDistance {
		t.Fatalf("junk UA result: %+v", res)
	}
	// A real UA string goes through Parse.
	res, err = m.ScoreString(vec, ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched {
		t.Fatal("valid UA string not matched")
	}
}

func TestEvaluateAccuracyHeldOut(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	var heldOut []Sample
	for _, r := range []ua.Release{
		{Vendor: ua.Chrome, Version: 113}, // same era as 112
		{Vendor: ua.Firefox, Version: 109},
	} {
		for i := 0; i < 20; i++ {
			heldOut = append(heldOut, Sample{
				Vector: ext.Extract(browser.Profile{Release: r, OS: ua.Windows10}),
				UA:     r,
			})
		}
	}
	acc, err := m.EvaluateAccuracy(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.99 {
		t.Fatalf("held-out accuracy = %v", acc)
	}
	if _, err := m.EvaluateAccuracy(nil); err == nil {
		t.Fatal("no error for empty evaluation")
	}
}

func TestOutlierFilterDrops(t *testing.T) {
	samples, ext := trainFixture(t, 40)
	// Inject gross outliers.
	for i := 0; i < 3; i++ {
		vec := make([]float64, 28)
		for j := range vec {
			vec[j] = 99999
		}
		samples = append(samples, Sample{Vector: vec, UA: ua.Release{Vendor: ua.Chrome, Version: 112}})
	}
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 3.0 / float64(len(samples))
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}
	_, rep, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutliersFiltered != 3 {
		t.Fatalf("filtered %d outliers, want 3", rep.OutliersFiltered)
	}
}

func TestDisablePCA(t *testing.T) {
	samples, _ := trainFixture(t, 30)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0
	cfg.DisablePCA = true
	m, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PCA != nil {
		t.Fatal("PCA present despite DisablePCA")
	}
	if m.Accuracy < 0.9 {
		t.Fatalf("no-PCA accuracy = %v", m.Accuracy)
	}
}

func TestRareUAAlignment(t *testing.T) {
	// A user-agent with very few, heavily perturbed rows would get a
	// wrong majority cluster; the reference alignment fixes it.
	samples, ext := trainFixture(t, 80)
	rare := ua.Release{Vendor: ua.Chrome, Version: 96} // same era as 95
	for i := 0; i < 3; i++ {
		// Heavily modified sessions: zeroed vector lands nowhere near
		// the blink-mid cluster.
		samples = append(samples, Sample{Vector: make([]float64, 28), UA: rare})
	}
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0
	cfg.RareUAThreshold = 10
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}
	m, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.UACluster[rare] != m.UACluster[ua.Release{Vendor: ua.Chrome, Version: 95}] {
		t.Fatalf("rare UA not aligned with its era peer: %d vs %d",
			m.UACluster[rare], m.UACluster[ua.Release{Vendor: ua.Chrome, Version: 95}])
	}

	// Without the reference, the zero-vector majority wins (control).
	cfg.Reference = nil
	m2, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.UACluster[rare] == m2.UACluster[ua.Release{Vendor: ua.Chrome, Version: 95}] {
		t.Skip("majority coincidentally matched era peer; alignment untestable here")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 40)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Accuracy != m.Accuracy || loaded.TrainedRows != m.TrainedRows ||
		loaded.VersionDivisor != m.VersionDivisor {
		t.Fatal("metadata not preserved")
	}
	if len(loaded.Features) != len(m.Features) {
		t.Fatal("features not preserved")
	}
	// Scoring parity on a spread of sessions.
	for _, r := range []ua.Release{
		{Vendor: ua.Chrome, Version: 112},
		{Vendor: ua.Firefox, Version: 110},
		{Vendor: ua.Edge, Version: 18},
	} {
		vec := ext.Extract(browser.Profile{Release: r, OS: ua.Windows10})
		a, err := m.scoreRelease(nil, vec, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.scoreRelease(nil, vec, r)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("score mismatch after reload: %+v vs %+v", a, b)
		}
	}
}

func TestLoadRejectsJunk(t *testing.T) {
	cases := []string{
		"",
		"{}",
		`{"version": 99}`,
		`{"version":1,"features":[{"kind":"deviation-based","proto":"Element"}],"centroids":[[1]],"scaler_means":[0,0],"scaler_stds":[1,1]}`,
		`{"version":1,"features":[{"kind":"nonsense","proto":"Element"}],"centroids":[[1]],"scaler_means":[0],"scaler_stds":[1]}`,
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestCompressReleases(t *testing.T) {
	rels := []ua.Release{
		{Vendor: ua.Chrome, Version: 110}, {Vendor: ua.Chrome, Version: 111},
		{Vendor: ua.Chrome, Version: 112}, {Vendor: ua.Chrome, Version: 114},
		{Vendor: ua.Edge, Version: 110},
		{Vendor: ua.Firefox, Version: 50},
	}
	got := compressReleases(rels)
	want := "Chrome 110-112, Chrome 114, Edge 110, Firefox 50"
	if got != want {
		t.Fatalf("compressReleases = %q, want %q", got, want)
	}
	if compressReleases(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	// Duplicates collapse.
	dup := []ua.Release{{Vendor: ua.Chrome, Version: 5}, {Vendor: ua.Chrome, Version: 5}}
	if compressReleases(dup) != "Chrome 5" {
		t.Fatalf("dup compress = %q", compressReleases(dup))
	}
}

func TestClusterTableSorted(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 30)
	rows := m.ClusterTable()
	for i := 1; i < len(rows); i++ {
		if rows[i].Cluster <= rows[i-1].Cluster {
			t.Fatal("cluster table not sorted")
		}
	}
	for _, row := range rows {
		if row.UserAgents == "" {
			t.Fatal("empty UA cell")
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	samples, ext := trainFixture(t, 30)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}
	a, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy {
		t.Fatal("training not deterministic")
	}
	if math.Abs(a.KMeans.WCSS-b.KMeans.WCSS) > 0 {
		t.Fatal("WCSS not deterministic")
	}
}

func BenchmarkScore(b *testing.B) {
	m, _, ext := trainFixtureModel(b, 40)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	claimed := ua.Release{Vendor: ua.Chrome, Version: 112}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.scoreRelease(nil, vec, claimed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreString is the served entry point on the two kinds of
// traffic the verdict memo sees. repeat cycles the fixture's 65 (vector,
// user-agent) pairs, so after two rounds every call is a memo hit.
// all-distinct moves one coordinate of the same pairs by the call's count
// in ulps, so no pair ever repeats: every call parses, runs the kernel
// and is kept out of the memo by its doorkeeper. scripts/benchgate.sh pins both at 0 allocs/op.
func BenchmarkScoreString(b *testing.B) {
	m, _, _ := trainFixtureModel(b, 40)
	samples, _ := trainFixture(b, 5)
	uas := make([]string, len(samples))
	for i, s := range samples {
		uas[i] = ua.UserAgent(s.UA, ua.Windows10)
	}
	s := m.NewScratch()
	b.Run("repeat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(samples)
			if _, err := m.ScoreStringWith(s, samples[j].Vector, uas[j]); err != nil {
				b.Fatal(err)
			}
		}
	})
	vecs := make([][]float64, len(samples))
	for j := range samples {
		vecs[j] = append([]float64(nil), samples[j].Vector...)
	}
	calls := uint64(0) // across the rounds testing.B runs, so no round repeats another
	b.Run("all-distinct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(samples)
			calls++
			vecs[j][0] = samples[j].Vector[0] + float64(calls) // integral: the memo hashes it
			if _, err := m.ScoreStringWith(s, vecs[j], uas[j]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScoreKernel times the two loops of the score plan on their
// own: scale + project, and nearest centroid. scripts/benchgate.sh pins
// both at 0 allocs/op.
func BenchmarkScoreKernel(b *testing.B) {
	m, _, ext := trainFixtureModel(b, 40)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	p := mustPlan(b, m)
	s := m.NewScratch()
	b.Run("transform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelSink = p.transform(s, vec)[0]
		}
	})
	x := append([]float64(nil), p.transform(s, vec)...)
	b.Run("assign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, kernelSink = p.assign(x)
		}
	})
}

var kernelSink float64

func BenchmarkTrain(b *testing.B) {
	samples, ext := trainFixture(b, 100)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(samples, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
