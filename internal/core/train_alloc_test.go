package core_test

import (
	"runtime"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/ua"
)

// benchShape is the training set bench/ fits at set-up: 60 000 sessions of
// the calibrated population up to release 114, trained with the
// extractor's reference fingerprints for the rare-UA alignment.
func benchShape(tb testing.TB) ([]core.Sample, core.TrainConfig) {
	tb.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.Sessions = 60000
	dcfg.MaxVersion = 114
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Reference = core.ExtractorReference{Extractor: ds.Extractor, OS: ua.Windows10}
	return ds.Samples(), cfg
}

// trainAllocCeiling bounds what one Train of the bench shape allocates.
// Training reads a table of the ~150 distinct vectors, so what remains
// per row is integer bookkeeping: the class of each row, the isolation
// forest's shuffled row indices and its ψ-row samples. Allocated bytes
// do not depend on the machine.
const trainAllocCeiling = 10 << 20

// TestTrainAllocations pins training memory: an n-row float matrix (one
// is 13.4 MB at this shape) coming back into the pipeline fails it.
func TestTrainAllocations(t *testing.T) {
	samples, cfg := benchShape(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := core.Train(samples, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > trainAllocCeiling {
		t.Fatalf("Train allocated %.1f MB on %d sessions, ceiling %.1f MB",
			float64(got)/(1<<20), len(samples), float64(trainAllocCeiling)/(1<<20))
	}
}

// BenchmarkTrain60000 is Train on the bench shape; scripts/benchgate.sh
// gates its B/op at trainAllocCeiling.
func BenchmarkTrain60000(b *testing.B) {
	samples, cfg := benchShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Train(samples, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
