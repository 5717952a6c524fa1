package scaler

import (
	"context"
	"errors"
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/pipeline/pipelinetest"
)

// TestContextRefusesToStart: FitContext and TransformContext each look
// at their context once, before the pass over the rows.
func TestContextRefusesToStart(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2}, {3, 5}, {4, 9}})

	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	s, err := FitContext(probe, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransformContext(probe, m); err != nil {
		t.Fatal(err)
	}
	if probe.Calls() != 2 {
		t.Fatalf("fit and transform checked their context %d times, want 2", probe.Calls())
	}

	done := pipelinetest.NewCountingCtx(context.Background(), 0)
	if got, err := FitContext(done, m, Config{}); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("fit under a done context: scaler %v, err %v", got, err)
	}
	if out, err := s.TransformContext(done, m); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("transform under a done context: out %v, err %v", out, err)
	}
}
