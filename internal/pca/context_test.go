package pca

import (
	"context"
	"errors"
	"math"
	"testing"

	"polygraph/internal/pipeline/pipelinetest"
)

// TestContextCancelsAtEveryCheck: FitContext looks at its context before
// the covariance product and before the eigendecomposition; cancelling at
// either yields the context's error and nothing else.
func TestContextCancelsAtEveryCheck(t *testing.T) {
	rows := corrData(200, 3).DistinctRows()

	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	if _, err := FitContext(probe, rows, 2); err != nil {
		t.Fatal(err)
	}
	fitChecks := probe.Calls()
	if fitChecks != 2 {
		t.Fatalf("fit checked its context %d times, want 2", fitChecks)
	}
	for i := 1; i <= fitChecks; i++ {
		got, err := FitContext(pipelinetest.NewCountingCtx(context.Background(), i-1), rows, 2)
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("fit cancelled at check %d: pca %v, err %v", i, got, err)
		}
	}
}
