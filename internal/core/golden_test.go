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
// with a deliberate model-format or algorithm change. They last moved when
// the scaler moments, the PCA covariance and the k-means centroid sums and
// WCSS became count-weighted sums over the distinct-row table: the float
// association order changed, and with it the low bits of the scaler, PCA
// and centroid values. Nothing discrete moved — the same rows dropped,
// the same initial centroids, the same UA→cluster table — and
// TestVerdictGolden, which pins the decisions those values make, did not
// change.
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
		{"default", func(*core.TrainConfig) {}, "3f0f5d4f7881884dc0369750a6a41536"},
		{"novelty-guard", func(c *core.TrainConfig) { c.NoveltyGuard = true }, "5cc2daaa35bf10d12ae7347e206d91ea"},
		{"disable-pca", func(c *core.TrainConfig) { c.DisablePCA = true }, "c4fd0853c6a970e4060de3b75b3d2624"},
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
