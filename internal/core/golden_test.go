package core_test

import (
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/ua"
)

// TestModelGolden pins the serialized model the §6.4 pipeline trains on
// the calibrated generator: any change to a training kernel, a reduction
// order or the model format moves one of these hashes, and must only come
// with a deliberate model-format or algorithm change. They moved when
// the scaler moments, the PCA covariance and the k-means centroid sums and
// WCSS became count-weighted sums over the distinct-row table: the float
// association order changed, and with it the low bits of the scaler, PCA
// and centroid values. Nothing discrete moved — the same rows dropped,
// the same initial centroids, the same UA→cluster table — and
// TestVerdictGolden, which pins the decisions those values make, did not
// change. They last moved when the model began carrying its drift
// baseline: the file gained the drift_baseline key and nothing else.
func TestModelGolden(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.Sessions = 8000
	dcfg.MaxVersion = 114
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := ds.Samples()

	cases := []struct {
		name string
		edit func(*core.TrainConfig)
		want string
	}{
		{"default", func(*core.TrainConfig) {}, "dc468b9a4da8b4e88dfa32aed20c0b1e"},
		{"novelty-guard", func(c *core.TrainConfig) { c.NoveltyGuard = true }, "662093f6bb70207e408a3daf088a9b6e"},
		{"disable-pca", func(c *core.TrainConfig) { c.DisablePCA = true }, "69ce1c56cdfe5cff5e9830ae552c7695"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultTrainConfig()
			cfg.Reference = core.ExtractorReference{Extractor: ds.Extractor, OS: ua.Windows10}
			tc.edit(&cfg)
			m, _, err := core.Train(samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("model hash %s, want %s", got, tc.want)
			}
		})
	}
}
