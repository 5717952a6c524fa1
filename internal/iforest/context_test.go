package iforest

import (
	"context"
	"errors"
	"math"
	"testing"

	"polygraph/internal/matrix/matrixtest"
	"polygraph/internal/pipeline/pipelinetest"
)

// TestFitContextStopsBetweenTrees: a fit looks at its context once per
// tree, and a cancellation seen before tree t builds neither it nor any
// later tree.
func TestFitContextStopsBetweenTrees(t *testing.T) {
	m, _ := clusterWithOutliers(300, 3, 6)
	rows := m.DistinctRows()
	cfg := Config{Trees: 12, SampleSize: 64, Seed: 5}

	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	under, err := FitContext(probe, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Calls() != cfg.Trees {
		t.Fatalf("fit of %d trees checked its context %d times", cfg.Trees, probe.Calls())
	}
	for i := 1; i <= cfg.Trees; i++ {
		ctx := pipelinetest.NewCountingCtx(context.Background(), i-1)
		f, err := FitContext(ctx, rows, cfg)
		if !errors.Is(err, context.Canceled) || f != nil {
			t.Fatalf("cancel before tree %d: forest %v, err %v", i-1, f, err)
		}
		if ctx.Calls() != i {
			t.Fatalf("cancel before tree %d: fit went on to check %d", i-1, ctx.Calls())
		}
	}

	// A fit that completes under a context is the fit without one.
	plain, err := Fit(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := plain.ScoreAll(m)
	got, _ := under.ScoreAll(m)
	matrixtest.RequireSameBits(t, "scores under a context", got, want)
}

// TestScoreAllContextStopsBetweenBlocks: the scoring pass looks at its
// context once per block of rows, and so does the contamination cut's,
// over the blocks of its table.
func TestScoreAllContextStopsBetweenBlocks(t *testing.T) {
	const n = 2*scoreBlock + 50
	data := matrixtest.FewDistinct(8, n, 6, n, false) // all distinct
	f, err := Fit(data, Config{Trees: 5, SampleSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	if _, err := f.ScoreAllContext(probe, data); err != nil {
		t.Fatal(err)
	}
	if probe.Calls() != 3 {
		t.Fatalf("%d rows scored under %d context checks, want 3", n, probe.Calls())
	}
	for i := 1; i <= 3; i++ {
		drop, err := f.Outliers(pipelinetest.NewCountingCtx(context.Background(), i-1), data.DistinctRows(), 0.01)
		if !errors.Is(err, context.Canceled) || drop != nil {
			t.Fatalf("cancel before block %d: dropped %v, err %v", i-1, drop, err)
		}
	}
}
