package polygraph

// determinism_test.go pins the two reproducibility guarantees of the
// train/score stack: training the same samples twice yields the same
// model, bit for bit, and the batch scorer's goroutine bound changes
// wall-clock time, never a result.

import (
	"context"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/ua"
)

func TestTrainAndBatchScoreDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twice; skipped in -short")
	}
	dcfg := dataset.DefaultConfig()
	dcfg.Sessions = 9000
	traffic, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	train := func() (*core.Model, string) {
		model, _, err := core.Train(traffic.Samples(), tc)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := model.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return model, hash
	}
	model, first := train()
	if _, second := train(); first != second {
		t.Fatalf("two trainings of the same samples hash %s and %s", first, second)
	}

	// Scoring every session must agree row for row — same cluster
	// assignments, same flags — on one goroutine and on eight.
	n := len(traffic.Sessions)
	vectors := make([][]float64, n)
	claims := make([]ua.Release, n)
	for i, s := range traffic.Sessions {
		vectors[i] = s.Vector
		claims[i] = s.Claimed
	}
	serialRes, err := model.ScoreBatchContext(context.Background(), vectors, claims, 1)
	if err != nil {
		t.Fatal(err)
	}
	wideRes, err := model.ScoreBatchContext(context.Background(), vectors, claims, 8)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for i := range serialRes {
		if serialRes[i] != wideRes[i] {
			t.Fatalf("session %d diverged: workers 1 %+v vs workers 8 %+v", i, serialRes[i], wideRes[i])
		}
		if serialRes[i].Flagged() {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("no sessions flagged; the parity check is vacuous")
	}
}
