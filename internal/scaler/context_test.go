package scaler

import (
	"context"
	"errors"
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/pipeline/pipelinetest"
)

// TestContextRefusesToStart: FitContext looks at its context once, before
// the pass over the table.
func TestContextRefusesToStart(t *testing.T) {
	rows := matrix.FromRows([][]float64{{1, 2}, {3, 5}, {4, 9}}).DistinctRows()

	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	if _, err := FitContext(probe, rows, Config{}); err != nil {
		t.Fatal(err)
	}
	if probe.Calls() != 1 {
		t.Fatalf("fit checked its context %d times, want 1", probe.Calls())
	}

	done := pipelinetest.NewCountingCtx(context.Background(), 0)
	if got, err := FitContext(done, rows, Config{}); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("fit under a done context: scaler %v, err %v", got, err)
	}
}
