// Package experiments regenerates every table and figure of the paper's
// evaluation (§7, Appendices 2, 4, 5) against the synthetic substrates.
// Each experiment returns structured rows plus a text renderer;
// cmd/reproduce prints them and bench_test.go wraps them as benchmarks.
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"context"
	"fmt"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
)

// Env bundles the shared state most experiments need: the synthetic
// FinOrg training traffic and the production-configured model trained on
// it.
type Env struct {
	Traffic *dataset.Dataset
	Model   *core.Model
	Report  *core.TrainReport
}

// NewEnv generates traffic and trains the default model. sessions <= 0
// keeps dataset.DefaultConfig's session count, the paper's training
// volume (§6.2: 205k rows).
func NewEnv(sessions int, seed uint64) (*Env, error) {
	cfg := dataset.DefaultConfig()
	if sessions > 0 {
		cfg.Sessions = sessions
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	traffic, model, report, err := dataset.Train(cfg, core.DefaultTrainConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Env{Traffic: traffic, Model: model, Report: report}, nil
}

// scoreAll scores every session once and caches the results.
type scoredSession struct {
	dataset.Session
	Result core.Result
}

func (e *Env) scoreAll() ([]scoredSession, error) {
	sessions := e.Traffic.Sessions
	vectors := make([][]float64, len(sessions))
	userAgents := make([]string, len(sessions))
	for i, s := range sessions {
		vectors[i] = s.Vector
		userAgents[i] = s.UAString
	}
	results, err := e.Model.ScoreStringBatchContext(context.Background(), vectors, userAgents, 0)
	if err != nil {
		return nil, err
	}
	out := make([]scoredSession, len(sessions))
	for i, s := range sessions {
		out[i] = scoredSession{Session: s, Result: results[i]}
	}
	return out, nil
}
