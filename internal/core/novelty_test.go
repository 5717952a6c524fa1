package core_test

import (
	"bytes"
	"testing"

	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fraud"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// noveltyFixture trains on realistic traffic with the guard enabled.
func noveltyFixture(t testing.TB) (*core.Model, *fingerprint.Extractor) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Sessions = 20000
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.NoveltyGuard = true
	tc.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
	m, _, err := core.Train(d.Samples(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if m.NoveltyThreshold <= 0 {
		t.Fatal("novelty guard not trained in")
	}
	return m, d.Extractor
}

func TestNoveltyGuardHonestTrafficClean(t *testing.T) {
	m, ext := noveltyFixture(t)
	// A spread of honest sessions: none may trip the guard (the
	// threshold clears every kept training row).
	for _, r := range []ua.Release{
		{Vendor: ua.Chrome, Version: 112}, {Vendor: ua.Chrome, Version: 95},
		{Vendor: ua.Firefox, Version: 110}, {Vendor: ua.Edge, Version: 105},
		{Vendor: ua.Firefox, Version: 95}, {Vendor: ua.Chrome, Version: 64},
	} {
		vec := ext.Extract(browser.Profile{Release: r, OS: ua.Windows10})
		res, err := m.ScoreString(vec, ua.UserAgent(r, ua.Windows10))
		if err != nil {
			t.Fatal(err)
		}
		if res.Novel || res.Flagged() {
			t.Fatalf("honest %s tripped the guard: %+v", r, res)
		}
	}
}

func TestNoveltyGuardCatchesClusterConsistentCategory1(t *testing.T) {
	m, ext := noveltyFixture(t)
	tool, _ := fraud.ToolByName("Linken Sphere-8.93")
	gen := rng.New(5)
	// Find the category-1 fingerprint's landing cluster, then claim a
	// user-agent FROM that cluster — the blind spot of the pure cluster
	// check.
	spoof := tool.Spoof(ua.Release{Vendor: ua.Chrome, Version: 110}, ua.Windows10, gen)
	vec := ext.Extract(spoof.Profile)
	cluster, err := m.PredictCluster(vec)
	if err != nil {
		t.Fatal(err)
	}
	members := m.ClusterUAs[cluster]
	if len(members) == 0 {
		t.Skip("category-1 fingerprint landed in a noise cluster; no cluster-consistent claim exists")
	}
	res, err := m.ScoreString(vec, ua.UserAgent(members[0], ua.Windows10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Novel {
		t.Fatalf("alien fingerprint not novel (score %.3f, threshold %.3f)",
			res.NoveltyScore, m.NoveltyThreshold)
	}
	if !res.Flagged() || res.RiskFactor != ua.MaxDistance {
		t.Fatalf("cluster-consistent category-1 claim not flagged at max risk: %+v", res)
	}
}

func TestNoveltyGuardSurvivesSerialization(t *testing.T) {
	m, ext := noveltyFixture(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NoveltyThreshold != m.NoveltyThreshold {
		t.Fatal("guard lost in serialization")
	}
	// Scoring parity incl. novelty fields.
	tool, _ := fraud.ToolByName("ClonBrowser-4.6.6")
	spoof := tool.Spoof(ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Windows10, rng.New(9))
	vec := ext.Extract(spoof.Profile)
	a, err := m.ScoreString(vec, ua.UserAgent(spoof.Claimed, ua.Windows10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.ScoreString(vec, ua.UserAgent(spoof.Claimed, ua.Windows10))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("score mismatch after reload: %+v vs %+v", a, b)
	}
}

func TestNoveltyGuardOffByDefault(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = 5000
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.Train(d.Samples(), core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.NoveltyThreshold != 0 {
		t.Fatal("guard enabled without opt-in")
	}
}

func TestNoveltyGuardFlagRegimeUnchanged(t *testing.T) {
	// With the guard on, honest traffic's flag volume stays in the
	// calibrated regime: the guard adds only alien-surface flags.
	cfg := dataset.DefaultConfig()
	cfg.Sessions = 20000
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcOff := core.DefaultTrainConfig()
	tcOff.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
	off, _, err := core.Train(d.Samples(), tcOff)
	if err != nil {
		t.Fatal(err)
	}
	tcOn := tcOff
	tcOn.NoveltyGuard = true
	on, _, err := core.Train(d.Samples(), tcOn)
	if err != nil {
		t.Fatal(err)
	}
	flagsOff, flagsOn := 0, 0
	for _, s := range d.Sessions {
		a, err := off.ScoreString(s.Vector, s.UAString)
		if err != nil {
			t.Fatal(err)
		}
		b, err := on.ScoreString(s.Vector, s.UAString)
		if err != nil {
			t.Fatal(err)
		}
		if a.Flagged() {
			flagsOff++
		}
		if b.Flagged() {
			flagsOn++
		}
		if a.Flagged() && !b.Flagged() {
			t.Fatal("guard removed a flag")
		}
	}
	if flagsOn < flagsOff {
		t.Fatalf("guard reduced flags: %d vs %d", flagsOn, flagsOff)
	}
	// And it must not explode the flag count (the threshold clears all
	// kept training rows; only filtered-outlier-like sessions add).
	if flagsOn > flagsOff+int(0.003*float64(len(d.Sessions))) {
		t.Fatalf("guard added too many flags: %d vs %d", flagsOn, flagsOff)
	}
}
