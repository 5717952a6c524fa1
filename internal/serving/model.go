package serving

import (
	"fmt"
	"log/slog"
	"os"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/ua"
)

// ObtainModel produces a serving model: either by loading the file at
// path or, when train is set, by generating traffic and training
// in-process. The report and baseline (the training feature vectors, for
// the drift monitor) are nil when the model came from a file.
func ObtainModel(train bool, path string, sessions int, novelty bool, logger *slog.Logger) (*core.Model, *core.TrainReport, [][]float64, error) {
	if !train {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("open %s (use -train to train in-process): %w", path, err)
		}
		defer f.Close()
		m, err := core.Load(f)
		return m, nil, nil, err
	}
	logger.Info("training in-process", "sessions", sessions)
	cfg := dataset.DefaultConfig()
	cfg.Sessions = sessions
	traffic, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	samples := traffic.Samples()
	tc := core.DefaultTrainConfig()
	tc.NoveltyGuard = novelty
	tc.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	m, rep, err := core.Train(samples, tc)
	if err != nil {
		return nil, nil, nil, err
	}
	baseline := make([][]float64, len(samples))
	for i := range samples {
		baseline[i] = samples[i].Vector
	}
	return m, rep, baseline, nil
}
