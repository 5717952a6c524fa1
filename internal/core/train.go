package core

import (
	"context"
	"fmt"
	"sort"

	"polygraph/internal/fingerprint"
	"polygraph/internal/iforest"
	"polygraph/internal/kmeans"
	"polygraph/internal/matrix"
	"polygraph/internal/pca"
	"polygraph/internal/pipeline"
	"polygraph/internal/scaler"
	"polygraph/internal/ua"
)

// The error taxonomy of the train/score stack, re-exported from
// internal/pipeline so callers classify failures with errors.Is without
// importing the pipeline layer. Stage attribution travels alongside via
// pipeline.StageError (errors.As).
var (
	// ErrCanceled: the context was cancelled or timed out mid-pipeline.
	ErrCanceled = pipeline.ErrCanceled
	// ErrBadInput: the caller's samples or configuration are invalid.
	ErrBadInput = pipeline.ErrBadInput
	// ErrNotTrained: the model is missing its trained components.
	ErrNotTrained = pipeline.ErrNotTrained
)

// Stage names of the §6.4 training pipeline, in execution order. They key
// TrainReport.Stages, StageError attribution and the /metrics
// stage-duration export.
const (
	StageScale        = "scale"
	StageFilter       = "iforest-filter"
	StagePCA          = "pca"
	StageKMeans       = "kmeans"
	StageNovelty      = "novelty-guard" // only with TrainConfig.NoveltyGuard
	StageClusterTable = "cluster-table"
)

// TrainConfig carries every knob of the §6.4 pipeline. The zero value is
// not usable; start from DefaultTrainConfig.
type TrainConfig struct {
	// Features describes the columns of the sample vectors.
	Features []fingerprint.Feature
	// PCAComponents is the retained dimensionality (paper: 7).
	PCAComponents int
	// K is the cluster count (paper: 11).
	K int
	// Seed drives all stochastic stages.
	Seed uint64
	// Contamination is the Isolation Forest filter fraction. The paper
	// quotes a "0.002%" threshold while reporting 172 dropped rows of
	// 205k (≈0.084%); we default to the observed drop rate.
	Contamination float64
	// IsolationTrees sizes the forest (default 100).
	IsolationTrees int
	// KMeansRestarts guards against unlucky initializations (default 4).
	KMeansRestarts int
	// DisablePCA clusters on the scaled features directly (ablation).
	DisablePCA bool
	// DisableOutlierFilter skips the Isolation Forest stage (ablation).
	DisableOutlierFilter bool
	// NoveltyGuard arms the centroid-distance novelty check: the model
	// records the largest distance any kept training row has to its
	// assigned centroid, and serving-time fingerprints beyond that
	// distance are flagged even when their claim is cluster-consistent
	// — an extension beyond the paper that catches spoofing-engine
	// surfaces the pure cluster check would excuse.
	NoveltyGuard bool
	// RareUAThreshold: user-agents with fewer training rows than this
	// get their cluster assignment from reference fingerprints instead
	// of their (unreliable) majority — the paper's §6.4.3 manual
	// alignment for sparse old versions ("in some cases less than 100
	// instances").
	RareUAThreshold int
	// Reference supplies pristine per-release fingerprints for the rare
	// user-agent alignment; nil disables the adjustment.
	Reference ReferenceProvider
	// VersionDivisor is Algorithm 1's divisor (default 4).
	VersionDivisor int
}

// ReferenceProvider returns the legitimate fingerprint vector of a
// release, as collected during Candidate Fingerprint Generation (§6.1).
type ReferenceProvider interface {
	ReferenceVector(r ua.Release) ([]float64, bool)
}

// DefaultTrainConfig returns the paper's production configuration.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Features:        fingerprint.Table8(),
		PCAComponents:   7,
		K:               11,
		Seed:            1,
		Contamination:   172.0 / 205000.0,
		IsolationTrees:  100,
		KMeansRestarts:  4,
		RareUAThreshold: 100,
		VersionDivisor:  ua.DefaultVersionDivisor,
	}
}

// TrainReport captures training diagnostics.
type TrainReport struct {
	InputRows          int
	OutliersFiltered   int
	Accuracy           float64
	WCSS               float64
	CumulativeVariance []float64 // full PCA spectrum (Figure 2)
	// PerUAMajority maps each user-agent to the fraction of its rows in
	// its majority cluster.
	PerUAMajority map[ua.Release]float64
	// Stages records the executed pipeline stages in order: name, wall
	// time, rows in/out.
	Stages []pipeline.Timing
}

// WithDefaults returns a copy of cfg with every zero-valued knob that
// has a documented default filled in (IsolationTrees 100, KMeansRestarts
// 4, VersionDivisor ua.DefaultVersionDivisor). It is the single source
// of truth for those defaults — Train applies it, and cmd/reproduce and
// cmd/polygraph can call it to display the effective configuration.
func (cfg TrainConfig) WithDefaults() TrainConfig {
	if cfg.IsolationTrees == 0 {
		cfg.IsolationTrees = 100
	}
	if cfg.KMeansRestarts == 0 {
		cfg.KMeansRestarts = 4
	}
	if cfg.VersionDivisor == 0 {
		cfg.VersionDivisor = ua.DefaultVersionDivisor
	}
	return cfg
}

// Train fits a Browser Polygraph model on the samples.
func Train(samples []Sample, cfg TrainConfig) (*Model, *TrainReport, error) {
	return TrainContext(context.Background(), samples, cfg)
}

// TrainContext is Train under a context: every stage of the §6.4
// pipeline (scale → iforest filter → PCA → k-means → cluster-table) runs
// through an internal/pipeline Runner that records wall time and rows
// in/out into TrainReport.Stages. Training is one goroutine; the stages
// check ctx between their passes over the rows (per isolation tree, per
// k-means++ pick and Lloyd iteration), so cancelling mid-train aborts
// within one such pass and returns an error matching
// errors.Is(err, ErrCanceled) with the failing stage attached
// (pipeline.StageError). Invalid samples or configuration return
// ErrBadInput. A run that completes is bit-identical to Train's.
func TrainContext(ctx context.Context, samples []Sample, cfg TrainConfig) (*Model, *TrainReport, error) {
	cfg = cfg.WithDefaults()
	if len(cfg.Features) == 0 {
		return nil, nil, fmt.Errorf("core: %w: config has no features", ErrBadInput)
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("core: %w: no training samples", ErrBadInput)
	}
	dim := len(cfg.Features)
	for i, s := range samples {
		if len(s.Vector) != dim {
			return nil, nil, fmt.Errorf("core: %w: sample %d has %d features, want %d", ErrBadInput, i, len(s.Vector), dim)
		}
	}
	if cfg.K < 1 {
		return nil, nil, fmt.Errorf("core: %w: K=%d", ErrBadInput, cfg.K)
	}
	if !cfg.DisablePCA && (cfg.PCAComponents < 1 || cfg.PCAComponents > dim) {
		return nil, nil, fmt.Errorf("core: %w: PCA components %d out of [1,%d]", ErrBadInput, cfg.PCAComponents, dim)
	}

	run := pipeline.New(ctx)
	report := &TrainReport{InputRows: len(samples)}

	// Assemble the raw matrix.
	raw := matrix.NewDense(len(samples), dim)
	for i, s := range samples {
		copy(raw.RawRow(i), s.Vector)
	}

	// Stage 1: standard scaling; binary time-based columns pass through
	// (§6.4.1).
	var sc *scaler.Standard
	var scaled *matrix.Dense
	err := run.Run(StageScale, len(samples), func(ctx context.Context) (int, error) {
		var err error
		sc, err = scaler.FitContext(ctx, raw, scaler.Config{Skip: fingerprint.SkipScaleMask(cfg.Features)})
		if err != nil {
			return 0, err
		}
		scaled, err = sc.TransformContext(ctx, raw)
		if err != nil {
			return 0, err
		}
		return len(samples), nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	// The stage closures capture these matrices, which keeps them
	// reachable to the end of training; dropping each n-row matrix after
	// its last reader keeps the collector's heap goal, and with it the
	// process's peak RSS, at what the remaining stages need.
	raw = nil

	// Stage 2: Isolation Forest outlier filtering (§6.4.1).
	kept := samples
	keptScaled := scaled
	if !cfg.DisableOutlierFilter && cfg.Contamination > 0 {
		err := run.Run(StageFilter, len(samples), func(ctx context.Context) (int, error) {
			forest, err := iforest.FitContext(ctx, scaled, iforest.Config{
				Trees: cfg.IsolationTrees, Seed: cfg.Seed,
			})
			if err != nil {
				return 0, err
			}
			keepIdx, dropIdx, err := forest.FilterContaminationContext(ctx, scaled, cfg.Contamination)
			if err != nil {
				return 0, err
			}
			report.OutliersFiltered = len(dropIdx)
			kept = make([]Sample, len(keepIdx))
			keptScaled = matrix.NewDense(len(keepIdx), dim)
			for newI, oldI := range keepIdx {
				kept[newI] = samples[oldI]
				copy(keptScaled.RawRow(newI), scaled.RawRow(oldI))
			}
			return len(kept), nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	scaled = nil

	// Stage 3: PCA (§6.4.2).
	var p *pca.PCA
	clusterInput := keptScaled
	if !cfg.DisablePCA {
		err := run.Run(StagePCA, len(kept), func(ctx context.Context) (int, error) {
			var err error
			p, err = pca.FitContext(ctx, keptScaled, cfg.PCAComponents)
			if err != nil {
				return 0, err
			}
			report.CumulativeVariance = p.CumulativeVariance()
			clusterInput, err = p.TransformContext(ctx, keptScaled)
			if err != nil {
				return 0, err
			}
			return len(kept), nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	keptScaled = nil

	// Stage 4: k-means (§6.4.3).
	var km *kmeans.Model
	err = run.Run(StageKMeans, len(kept), func(ctx context.Context) (int, error) {
		var err error
		km, err = kmeans.FitContext(ctx, clusterInput, kmeans.Config{
			K:        cfg.K,
			Seed:     cfg.Seed,
			Restarts: cfg.KMeansRestarts,
			PlusPlus: true,
		})
		if err != nil {
			return 0, err
		}
		report.WCSS = km.WCSS
		return len(kept), nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}

	model := &Model{
		Features:       append([]fingerprint.Feature(nil), cfg.Features...),
		Scaler:         sc,
		PCA:            p,
		KMeans:         km,
		VersionDivisor: cfg.VersionDivisor,
		TrainedRows:    len(kept),
	}

	// Optional novelty guard: the threshold clears every *kept* training
	// row's centroid distance with a margin, so legitimate traffic never
	// trips it and surfaces beyond the training population's territory
	// do.
	if cfg.NoveltyGuard {
		err := run.Run(StageNovelty, len(kept), func(context.Context) (int, error) {
			// The largest distance over the rows is the largest over
			// the distinct rows.
			maxDist := 0.0
			for _, i := range clusterInput.DistinctRows().First {
				// One-pass nearest + distance; bit-identical to
				// Distance(row, Predict(row)) at half the work.
				if _, d := km.AssignDistance(clusterInput.RawRow(i)); d > maxDist {
					maxDist = d
				}
			}
			model.NoveltyThreshold = maxDist * 1.15
			return len(kept), nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}

	// Stage 5: label clusters by user-agent majority and align rare
	// user-agents with reference fingerprints (§6.4.3). Rows out is the
	// size of the UA→cluster table the stage distills.
	err = run.Run(StageClusterTable, len(kept), func(context.Context) (int, error) {
		assign, err := km.PredictAll(clusterInput)
		if err != nil {
			return 0, err
		}
		model.buildClusterTable(kept, assign, cfg, report)
		return len(model.UACluster), nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}

	// Flatten the finished model for the scoring fast path. The Store
	// also supersedes any plan built lazily mid-training (the rare-UA
	// alignment scores reference vectors before the UA table exists).
	model.plan.Store(buildScorePlan(model))

	report.Stages = run.Timings()
	return model, report, nil
}

// buildClusterTable computes the UA→cluster majority assignment, applies
// the rare-UA reference alignment, and evaluates Formula 1 accuracy.
func (m *Model) buildClusterTable(samples []Sample, assign []int, cfg TrainConfig, report *TrainReport) {
	type uaStat struct {
		total     int
		byCluster map[int]int
	}
	stats := map[ua.Release]*uaStat{}
	for i, s := range samples {
		st := stats[s.UA]
		if st == nil {
			st = &uaStat{byCluster: map[int]int{}}
			stats[s.UA] = st
		}
		st.total++
		st.byCluster[assign[i]]++
	}

	m.UACluster = make(map[ua.Release]int, len(stats))
	report.PerUAMajority = make(map[ua.Release]float64, len(stats))
	for rel, st := range stats {
		bestCluster, bestCount := 0, -1
		// Deterministic tie-break: lowest cluster wins.
		clusters := make([]int, 0, len(st.byCluster))
		for c := range st.byCluster {
			clusters = append(clusters, c)
		}
		sort.Ints(clusters)
		for _, c := range clusters {
			if st.byCluster[c] > bestCount {
				bestCount = st.byCluster[c]
				bestCluster = c
			}
		}
		cluster := bestCluster
		// Rare-UA alignment: too few rows to trust the majority; use
		// the pristine reference fingerprint instead.
		if cfg.Reference != nil && st.total < cfg.RareUAThreshold {
			if vec, ok := cfg.Reference.ReferenceVector(rel); ok && len(vec) == m.Dim() {
				if c, err := m.predictCluster(vec); err == nil {
					cluster = c
				}
			}
		}
		m.UACluster[rel] = cluster
		report.PerUAMajority[rel] = float64(bestCount) / float64(st.total)
	}

	m.ClusterUAs = make(map[int][]ua.Release)
	for rel, c := range m.UACluster {
		m.ClusterUAs[c] = append(m.ClusterUAs[c], rel)
	}
	for c := range m.ClusterUAs {
		rels := m.ClusterUAs[c]
		sort.Slice(rels, func(i, j int) bool {
			if rels[i].Vendor != rels[j].Vendor {
				return rels[i].Vendor < rels[j].Vendor
			}
			return rels[i].Version < rels[j].Version
		})
	}

	// Formula 1 accuracy over the training rows.
	correct := 0
	for i, s := range samples {
		if assign[i] == m.UACluster[s.UA] {
			correct++
		}
	}
	m.Accuracy = float64(correct) / float64(len(samples))
	report.Accuracy = m.Accuracy
}

// EvaluateAccuracy computes Formula 1 accuracy of the model on held-out
// samples: the fraction assigned to their user-agent's corresponding
// cluster. User-agents absent from the training table are scored against
// the majority cluster *within the evaluation set* (the drift detector's
// convention for brand-new releases).
func (m *Model) EvaluateAccuracy(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("core: no evaluation samples")
	}
	// First pass: cluster everything, find majorities for unseen UAs.
	assign := make([]int, len(samples))
	majority := map[ua.Release]map[int]int{}
	for i, s := range samples {
		c, err := m.predictCluster(s.Vector)
		if err != nil {
			return 0, err
		}
		assign[i] = c
		if _, known := m.UACluster[s.UA]; !known {
			if majority[s.UA] == nil {
				majority[s.UA] = map[int]int{}
			}
			majority[s.UA][c]++
		}
	}
	expected := map[ua.Release]int{}
	for rel, counts := range majority {
		best, bestN := 0, -1
		clusters := make([]int, 0, len(counts))
		for c := range counts {
			clusters = append(clusters, c)
		}
		sort.Ints(clusters)
		for _, c := range clusters {
			if counts[c] > bestN {
				bestN = counts[c]
				best = c
			}
		}
		expected[rel] = best
	}
	correct := 0
	for i, s := range samples {
		want, known := m.UACluster[s.UA]
		if !known {
			want = expected[s.UA]
		}
		if assign[i] == want {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}
