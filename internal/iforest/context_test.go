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
	cfg := Config{Trees: 12, SampleSize: 64, Seed: 5}

	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	under, err := FitContext(probe, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Calls() != cfg.Trees {
		t.Fatalf("fit of %d trees checked its context %d times", cfg.Trees, probe.Calls())
	}
	for i := 1; i <= cfg.Trees; i++ {
		ctx := pipelinetest.NewCountingCtx(context.Background(), i-1)
		f, err := FitContext(ctx, m, cfg)
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
// context once per block of distinct rows.
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
		t.Fatalf("%d distinct rows scored under %d context checks, want 3", n, probe.Calls())
	}
	for i := 1; i <= 3; i++ {
		keep, _, err := f.FilterContaminationContext(pipelinetest.NewCountingCtx(context.Background(), i-1), data, 0.01)
		if !errors.Is(err, context.Canceled) || keep != nil {
			t.Fatalf("cancel before block %d: kept %v, err %v", i-1, keep, err)
		}
	}
}
