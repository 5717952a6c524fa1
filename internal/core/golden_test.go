package core_test

import (
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/ua"
)

// TestModelGolden pins the serialized model the §6.4 pipeline trains on
// the calibrated generator: any change to a training kernel, a reduction
// order or the model format moves one of these hashes. The values were
// measured at the commit before training moved onto distinct rows and
// must only change together with a deliberate model-format or algorithm
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
		{"default", func(*core.TrainConfig) {}, "29810d1176c2365d36e2fb5ffb68836c"},
		{"novelty-guard", func(c *core.TrainConfig) { c.NoveltyGuard = true }, "1ffec00e17a2a12cf44a08c19f2bd908"},
		{"disable-pca", func(c *core.TrainConfig) { c.DisablePCA = true }, "ad6e040a90bf9061b046906a3251f339"},
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
