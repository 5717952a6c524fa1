package pca

import (
	"context"
	"errors"
	"math"
	"testing"

	"polygraph/internal/pipeline/pipelinetest"
)

// TestContextCancelsAtEveryCheck: FitContext looks at its context before
// the covariance product and before the eigendecomposition,
// TransformContext before the projection; cancelling at any of them
// yields the context's error and nothing else.
func TestContextCancelsAtEveryCheck(t *testing.T) {
	m := corrData(200, 3)

	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	p, err := FitContext(probe, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	fitChecks := probe.Calls()
	if fitChecks != 2 {
		t.Fatalf("fit checked its context %d times, want 2", fitChecks)
	}
	for i := 1; i <= fitChecks; i++ {
		got, err := FitContext(pipelinetest.NewCountingCtx(context.Background(), i-1), m, 2)
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("fit cancelled at check %d: pca %v, err %v", i, got, err)
		}
	}

	if _, err := p.TransformContext(probe, m); err != nil {
		t.Fatal(err)
	}
	if probe.Calls() != fitChecks+1 {
		t.Fatalf("transform checked its context %d times, want 1", probe.Calls()-fitChecks)
	}
	out, err := p.TransformContext(pipelinetest.NewCountingCtx(context.Background(), 0), m)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("transform under a done context: out %v, err %v", out, err)
	}
}
