package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"polygraph/internal/pipeline"
	"polygraph/internal/pipeline/pipelinetest"
	"polygraph/internal/ua"
)

func TestTrainContextPreCancelled(t *testing.T) {
	samples, ext := trainFixture(t, 40)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := TrainContext(ctx, samples, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		t.Fatalf("want a StageError in the chain, got %v", err)
	}
	if se.Stage != StageScale {
		t.Fatalf("pre-cancelled run should die in the first stage, got %q", se.Stage)
	}
}

// stageEnds is a pipeline.SpanRecorder that notes, as each training stage
// finishes, how many context checks the run has made so far.
type stageEnds struct {
	ctx    *pipelinetest.CountingCtx
	names  []string
	checks []int
}

func (s *stageEnds) RecordSpan(name string, _ time.Time, _ time.Duration) {
	s.names = append(s.names, name)
	s.checks = append(s.checks, s.ctx.Calls())
}

// TestTrainContextCancelMidTrain cancels a training run at every one of
// the context checks a full run performs and requires, each time,
// ErrCanceled attributed to the stage that check belongs to, and no
// model. The checks sit at points fixed by the input (per stage, per
// tree, per k-means++ pick and Lloyd iteration), so this is the same
// sweep on every machine.
func TestTrainContextCancelMidTrain(t *testing.T) {
	samples, ext := trainFixture(t, 40)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0.01
	cfg.IsolationTrees = 10
	cfg.KMeansRestarts = 2
	cfg.NoveltyGuard = true
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}

	ends := &stageEnds{}
	ends.ctx = pipelinetest.NewCountingCtx(pipeline.WithSpanRecorder(context.Background(), ends), math.MaxInt)
	under, _, err := TrainContext(ends.ctx, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := ends.ctx.Calls()
	if len(ends.names) != 6 || total != ends.checks[5] {
		t.Fatalf("stages %v ended at checks %v of %d", ends.names, ends.checks, total)
	}
	// Every stage starts with a check; the forest adds one per tree and
	// k-means one per pick and iteration.
	if least := 6 + cfg.IsolationTrees + cfg.KMeansRestarts*(cfg.K-1+2); total < least {
		t.Fatalf("training performed %d ctx checks, want at least %d", total, least)
	}

	stage := 0
	for i := 1; i <= total; i++ {
		for i > ends.checks[stage] {
			stage++
		}
		m, rep, err := TrainContext(pipelinetest.NewCountingCtx(context.Background(), i-1), samples, cfg)
		if m != nil || rep != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancel at check %d of %d: model %v, report %v, err %v", i, total, m, rep, err)
		}
		var se *pipeline.StageError
		if !errors.As(err, &se) || se.Stage != ends.names[stage] {
			t.Fatalf("cancel at check %d of %d: %v, want stage %q", i, total, err, ends.names[stage])
		}
	}

	// A run that completes under a context is the run without one.
	plain, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := under.Hash(); err != nil || got != want {
		t.Fatalf("model trained under a context hashes %s (%v), without one %s", got, err, want)
	}
}

func TestTrainReportStages(t *testing.T) {
	samples, ext := trainFixture(t, 40)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0.01
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}

	model, rep, err := TrainContext(context.Background(), samples, cfg)
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

	_, rep, err := TrainContext(context.Background(), samples, cfg)
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
	if _, _, err := TrainContext(context.Background(), nil, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no features: want ErrBadInput, got %v", err)
	}
	cfg = DefaultTrainConfig()
	if _, _, err := TrainContext(context.Background(), nil, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no samples: want ErrBadInput, got %v", err)
	}
	cfg.K = 0
	samples, _ := trainFixture(t, 2)
	if _, _, err := TrainContext(context.Background(), samples, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("K=0: want ErrBadInput, got %v", err)
	}
}

func TestScoreNotTrained(t *testing.T) {
	var m Model
	if _, err := m.Score(make([]float64, 3), ua.Release{Vendor: ua.Chrome, Version: 100}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("Score on zero model: want ErrNotTrained, got %v", err)
	}
	if _, err := m.PredictCluster(make([]float64, 3)); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("PredictCluster on zero model: want ErrNotTrained, got %v", err)
	}
	if _, err := m.ScoreBatch(nil, nil); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("ScoreBatch on zero model: want ErrNotTrained, got %v", err)
	}
}

func TestScoreBatchContextCancel(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 20)
	samples, _ := trainFixture(t, 20)
	_ = ext
	vectors := make([][]float64, len(samples))
	claims := make([]ua.Release, len(samples))
	for i, s := range samples {
		vectors[i] = s.Vector
		claims[i] = s.UA
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ScoreBatchContext(ctx, vectors, claims, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The same batch completes under a live context and matches ScoreBatch.
	got, err := m.ScoreBatchContext(context.Background(), vectors, claims, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.ScoreBatch(vectors, claims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, got[i], want[i])
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
