package kmeans

import (
	"context"
	"errors"
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/pipeline/pipelinetest"
	"polygraph/internal/rng"
)

// TestFitContextCancelsMidLloyd cancels a fit at each of the context
// checks a full run performs — before every k-means++ pick and every
// Lloyd iteration of every restart — and requires context.Canceled and
// no model each time.
func TestFitContextCancelsMidLloyd(t *testing.T) {
	data := blobsMatrix(2000, 5, rng.New(3)).DistinctRows()
	cfg := Config{K: 8, Seed: 1, Restarts: 2, PlusPlus: true}

	probe := pipelinetest.NewCountingCtx(context.Background(), math.MaxInt)
	if _, err := FitContext(probe, data, cfg); err != nil {
		t.Fatal(err)
	}
	total := probe.Calls()
	// Two restarts of seven picks and at least two iterations each.
	if total < 2*(7+2) {
		t.Fatalf("fit performed only %d ctx checks", total)
	}
	for i := 1; i <= total; i++ {
		model, err := FitContext(pipelinetest.NewCountingCtx(context.Background(), i-1), data, cfg)
		if !errors.Is(err, context.Canceled) || model != nil {
			t.Fatalf("cancel at check %d of %d: model %v, err %v", i, total, model, err)
		}
	}
}

func TestFitContextCompletedRunMatchesFit(t *testing.T) {
	p := rng.New(4)
	data := blobsMatrix(500, 4, p)
	cfg := Config{K: 6, Seed: 9, Restarts: 2, PlusPlus: true}

	plain, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	underCtx, err := FitContext(context.Background(), data.DistinctRows(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.WCSS != underCtx.WCSS {
		t.Fatalf("WCSS differs: %v vs %v", plain.WCSS, underCtx.WCSS)
	}
	for c := 0; c < cfg.K; c++ {
		a, b := plain.Centroids.RawRow(c), underCtx.Centroids.RawRow(c)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("centroid %d[%d] differs: %v vs %v", c, j, a[j], b[j])
			}
		}
	}
}

// blobsMatrix builds an n×d matrix of mild Gaussian noise — enough rows
// to make multiple Lloyd iterations happen.
func blobsMatrix(n, d int, p *rng.PCG) *matrix.Dense {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = p.NormFloat64() + float64((i%8))*3
		}
		rows[i] = row
	}
	return matrix.FromRows(rows)
}
