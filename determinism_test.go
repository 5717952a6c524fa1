package polygraph

// determinism_test.go pins the hard guarantee of internal/parallel: the
// worker-pool layer must never change results, only wall-clock time.
// Training and scoring with Workers:1 (serial) and Workers:8 must yield
// bit-identical models, cluster assignments, and flag counts — chunk
// boundaries and reduction order are functions of the input size alone,
// never of scheduling (see DESIGN.md, "Parallel execution model").

import (
	"context"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/ua"
)

// trainAt trains the default pipeline on a small deterministic traffic
// sample with the given worker-pool size.
func trainAt(t *testing.T, workers int) (*dataset.Dataset, *core.Model, *core.TrainReport) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.Sessions = 9000
	traffic, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	tc.Workers = workers
	model, report, err := core.Train(traffic.Samples(), tc)
	if err != nil {
		t.Fatal(err)
	}
	return traffic, model, report
}

func TestTrainWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twice; skipped in -short")
	}
	traffic, serial, serialReport := trainAt(t, 1)
	_, wide, wideReport := trainAt(t, 8)

	// The trained models must be bit-identical, not merely close.
	if serial.Accuracy != wide.Accuracy {
		t.Errorf("Accuracy diverged: Workers:1 %v vs Workers:8 %v", serial.Accuracy, wide.Accuracy)
	}
	if serialReport.OutliersFiltered != wideReport.OutliersFiltered {
		t.Errorf("OutliersFiltered diverged: %d vs %d",
			serialReport.OutliersFiltered, wideReport.OutliersFiltered)
	}
	if serial.TrainedRows != wide.TrainedRows {
		t.Errorf("TrainedRows diverged: %d vs %d", serial.TrainedRows, wide.TrainedRows)
	}
	if serial.NoveltyThreshold != wide.NoveltyThreshold {
		t.Errorf("NoveltyThreshold diverged: %v vs %v", serial.NoveltyThreshold, wide.NoveltyThreshold)
	}
	if serial.KMeans.WCSS != wide.KMeans.WCSS {
		t.Errorf("WCSS diverged: %v vs %v", serial.KMeans.WCSS, wide.KMeans.WCSS)
	}
	sr, sc := serial.KMeans.Centroids.Dims()
	wr, wc := wide.KMeans.Centroids.Dims()
	if sr != wr || sc != wc {
		t.Fatalf("centroid shape diverged: %dx%d vs %dx%d", sr, sc, wr, wc)
	}
	for i := 0; i < sr; i++ {
		for j := 0; j < sc; j++ {
			if a, b := serial.KMeans.Centroids.At(i, j), wide.KMeans.Centroids.At(i, j); a != b {
				t.Fatalf("centroid[%d][%d] diverged: %v vs %v", i, j, a, b)
			}
		}
	}

	// Scoring every session must agree row for row — same cluster
	// assignments, same flags — whichever model scores and whatever pool
	// size the batch uses.
	n := len(traffic.Sessions)
	vectors := make([][]float64, n)
	claims := make([]ua.Release, n)
	for i, s := range traffic.Sessions {
		vectors[i] = s.Vector
		claims[i] = s.Claimed
	}
	serialRes, err := serial.ScoreBatchContext(context.Background(), vectors, claims, 1)
	if err != nil {
		t.Fatal(err)
	}
	wideRes, err := wide.ScoreBatchContext(context.Background(), vectors, claims, 8)
	if err != nil {
		t.Fatal(err)
	}
	serialFlagged, wideFlagged := 0, 0
	for i := range serialRes {
		if serialRes[i] != wideRes[i] {
			t.Fatalf("session %d diverged: Workers:1 %+v vs Workers:8 %+v", i, serialRes[i], wideRes[i])
		}
		if serialRes[i].Flagged() {
			serialFlagged++
		}
		if wideRes[i].Flagged() {
			wideFlagged++
		}
	}
	if serialFlagged != wideFlagged {
		t.Errorf("flagged count diverged: %d vs %d", serialFlagged, wideFlagged)
	}
	if serialFlagged == 0 {
		t.Error("no sessions flagged; invariance check is vacuous")
	}
}
