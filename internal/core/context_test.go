package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"polygraph/internal/ua"
)

func TestTrainReportStages(t *testing.T) {
	samples, ext := trainFixture(t, 40)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0.01
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}

	model, rep, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{StageScale, StageFilter, StagePCA, StageKMeans, StageClusterTable}
	if len(rep.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d: %+v", len(rep.Stages), len(want), rep.Stages)
	}
	for i, s := range rep.Stages {
		if s.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, want[i])
		}
		if s.Duration < 0 {
			t.Errorf("stage %q has negative duration", s.Name)
		}
	}
	if in := rep.Stages[0].RowsIn; in != len(samples) {
		t.Errorf("scale rows in = %d, want %d", in, len(samples))
	}
	if out := rep.Stages[1].RowsOut; out != model.TrainedRows {
		t.Errorf("filter rows out = %d, want TrainedRows %d", out, model.TrainedRows)
	}
	if out := rep.Stages[len(rep.Stages)-1].RowsOut; out != len(model.UACluster) {
		t.Errorf("cluster-table rows out = %d, want %d UA entries", out, len(model.UACluster))
	}
}

func TestTrainReportStagesNovelty(t *testing.T) {
	samples, ext := trainFixture(t, 40)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0
	cfg.NoveltyGuard = true
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}

	_, rep, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(rep.Stages))
	for i, s := range rep.Stages {
		names[i] = s.Name
	}
	found := false
	for _, n := range names {
		if n == StageNovelty {
			found = true
		}
	}
	if !found {
		t.Fatalf("novelty stage missing from %v", names)
	}
}

func TestTrainBadInput(t *testing.T) {
	cfg := DefaultTrainConfig()
	cfg.Features = nil
	if _, _, err := Train(nil, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no features: want ErrBadInput, got %v", err)
	}
	cfg = DefaultTrainConfig()
	if _, _, err := Train(nil, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no samples: want ErrBadInput, got %v", err)
	}
	cfg.K = 0
	samples, _ := trainFixture(t, 2)
	if _, _, err := Train(samples, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("K=0: want ErrBadInput, got %v", err)
	}
}

// TestTrainErrorNamesStage: a stage that fails names itself in the
// error. One sample loses its only row to the outlier cut, which leaves
// PCA nothing to fit.
func TestTrainErrorNamesStage(t *testing.T) {
	samples, _ := trainFixture(t, 1)
	m, rep, err := Train(samples[:1], DefaultTrainConfig())
	if err == nil || m != nil || rep != nil || !strings.Contains(err.Error(), "stage "+StagePCA+":") {
		t.Fatalf("model %v, report %v, err %v; want an error naming stage %s", m, rep, err, StagePCA)
	}
}

// TestTrainRejectsBadForestSizes: a negative isolation-forest size is
// ErrBadInput, whether or not the filter stage would run, and never a
// makeslice panic.
func TestTrainRejectsBadForestSizes(t *testing.T) {
	samples, _ := trainFixture(t, 5)
	for _, tc := range []struct {
		name string
		edit func(*TrainConfig)
	}{
		{"trees-minus-one", func(c *TrainConfig) { c.IsolationTrees = -1 }},
		{"trees-very-negative", func(c *TrainConfig) { c.IsolationTrees = -1 << 40 }},
		{"filter-disabled", func(c *TrainConfig) { c.IsolationTrees, c.DisableOutlierFilter = -1, true }},
		{"no-contamination", func(c *TrainConfig) { c.IsolationTrees, c.Contamination = -1, 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultTrainConfig()
			cfg.K = 4
			tc.edit(&cfg)
			m, rep, err := Train(samples, cfg)
			if !errors.Is(err, ErrBadInput) || m != nil || rep != nil {
				t.Fatalf("model %v, report %v, err %v; want ErrBadInput", m, rep, err)
			}
		})
	}
}

func TestScoreNotTrained(t *testing.T) {
	var m Model
	chrome := ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 100}, ua.Windows10)
	if _, err := m.ScoreString(make([]float64, 3), chrome); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("ScoreString on zero model: want ErrNotTrained, got %v", err)
	}
	if _, err := m.PredictCluster(make([]float64, 3)); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("PredictCluster on zero model: want ErrNotTrained, got %v", err)
	}
	if _, err := m.ScoreStringBatchContext(context.Background(), nil, nil, 0); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("ScoreStringBatchContext on zero model: want ErrNotTrained, got %v", err)
	}
	if _, err := m.ExplainResult(make([]float64, 3), chrome, Result{}, 0); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("ExplainResult on zero model: want ErrNotTrained, got %v", err)
	}
}

func TestScoreBatchContextCancel(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 20)
	samples, _ := trainFixture(t, 20)
	_ = ext
	vectors := make([][]float64, len(samples))
	userAgents := make([]string, len(samples))
	for i, s := range samples {
		vectors[i] = s.Vector
		userAgents[i] = ua.UserAgent(s.UA, ua.Windows10)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ScoreStringBatchContext(ctx, vectors, userAgents, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The same batch completes under a live context and matches
	// ScoreString row by row.
	got, err := m.ScoreStringBatchContext(context.Background(), vectors, userAgents, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vectors {
		want, err := m.ScoreString(vectors[i], userAgents[i])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("row %d differs: %+v vs %+v", i, got[i], want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	var cfg TrainConfig
	d := cfg.WithDefaults()
	if d.IsolationTrees != 100 || d.KMeansRestarts != 4 || d.VersionDivisor != ua.DefaultVersionDivisor {
		t.Fatalf("defaults not filled: %+v", d)
	}
	cfg.IsolationTrees = 7
	cfg.KMeansRestarts = 2
	cfg.VersionDivisor = 9
	d = cfg.WithDefaults()
	if d.IsolationTrees != 7 || d.KMeansRestarts != 2 || d.VersionDivisor != 9 {
		t.Fatalf("explicit values overwritten: %+v", d)
	}
}
