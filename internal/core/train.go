package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"polygraph/internal/fingerprint"
	"polygraph/internal/iforest"
	"polygraph/internal/kmeans"
	"polygraph/internal/matrix"
	"polygraph/internal/pca"
	"polygraph/internal/scaler"
	"polygraph/internal/ua"
)

// The error taxonomy of the train/score stack; callers classify failures
// with errors.Is.
var (
	// ErrCanceled: a batch score's context was cancelled or timed out.
	ErrCanceled = errors.New("canceled")
	// ErrBadInput: the caller's samples, configuration or vector are
	// invalid.
	ErrBadInput = errors.New("bad input")
	// ErrNotTrained: the model is missing a trained component, or its
	// components disagree on their dimensions, so it has no score plan.
	ErrNotTrained = errors.New("model not trained")
)

// Stage names of the §6.4 training pipeline, in execution order. They key
// TrainReport.Stages, a failed stage's error and the /metrics
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
	Stages []StageTiming
}

// StageTiming records one executed training stage: what ran, how long it
// took, and how many rows flowed in and out.
type StageTiming struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	RowsIn   int           `json:"rows_in"`
	RowsOut  int           `json:"rows_out"`
}

// WithDefaults returns a copy of cfg with every zero-valued knob that
// has a documented default filled in (KMeansRestarts 4, VersionDivisor
// ua.DefaultVersionDivisor). It is the single source
// of truth for those defaults — Train applies it, and cmd/reproduce and
// cmd/polygraph can call it to display the effective configuration.
func (cfg TrainConfig) WithDefaults() TrainConfig {
	if cfg.KMeansRestarts == 0 {
		cfg.KMeansRestarts = 4
	}
	if cfg.VersionDivisor == 0 {
		cfg.VersionDivisor = ua.DefaultVersionDivisor
	}
	return cfg
}

// Train fits a Browser Polygraph model on the samples: the §6.4 stages
// (scale → iforest filter → PCA → k-means → cluster-table) run in order
// on one goroutine, and each one's wall time and rows in/out land in
// TrainReport.Stages. The model carries its drift baseline, binned from
// every ⌈n/512⌉-th sample's vector. Invalid samples or configuration
// return ErrBadInput.
func Train(samples []Sample, cfg TrainConfig) (*Model, *TrainReport, error) {
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

	// Every stage reads one table: the distinct (claim, vector) pairs of
	// the samples, each with its row count. A sum over the rows is a
	// count-weighted sum over the table; what depends on row order — the
	// isolation forest's ψ-samples, the contamination cut's tie-break,
	// the k-means++ pick — reads the rows' classes in row order. No n-row
	// float matrix is built.
	rows := matrix.GroupRows(len(samples), dim, func(i int) (uint64, []float64) {
		return claimKey(samples[i].UA), samples[i].Vector
	})

	baseline := trainingBaseline(samples, dim)
	report := &TrainReport{InputRows: len(samples)}
	start := time.Now()
	// done closes a stage: it records the stage's wall time since start
	// and its rows in/out, and starts the next stage's clock.
	done := func(name string, rowsIn, rowsOut int) {
		now := time.Now()
		report.Stages = append(report.Stages, StageTiming{Name: name, Duration: now.Sub(start), RowsIn: rowsIn, RowsOut: rowsOut})
		start = now
	}
	failed := func(name string, err error) (*Model, *TrainReport, error) {
		return nil, nil, fmt.Errorf("core: stage %s: %w", name, err)
	}

	// Stage 1: standard scaling; binary time-based columns pass through
	// (§6.4.1).
	sc, err := scaler.FitGroups(rows, scaler.Config{Skip: fingerprint.SkipScaleMask(cfg.Features)})
	if err == nil {
		rows.Rows, err = sc.Transform(rows.Rows)
	}
	if err != nil {
		return failed(StageScale, err)
	}
	done(StageScale, len(samples), len(samples))

	// Stage 2: Isolation Forest outlier filtering (§6.4.1).
	if !cfg.DisableOutlierFilter && cfg.Contamination > 0 {
		forest, err := iforest.FitGroups(rows, iforest.Config{Seed: cfg.Seed})
		if err != nil {
			return failed(StageFilter, err)
		}
		drop, err := forest.Outliers(rows, cfg.Contamination)
		if err != nil {
			return failed(StageFilter, err)
		}
		report.OutliersFiltered = len(drop)
		rows = rows.Drop(drop)
		done(StageFilter, len(samples), len(rows.Group))
	}
	kept := len(rows.Group)

	// Stage 3: PCA (§6.4.2).
	var p *pca.PCA
	if !cfg.DisablePCA {
		if p, err = pca.FitGroups(rows, cfg.PCAComponents); err == nil {
			report.CumulativeVariance = p.CumulativeVariance()
			rows.Rows, err = p.Transform(rows.Rows)
		}
		if err != nil {
			return failed(StagePCA, err)
		}
		done(StagePCA, kept, kept)
	}

	// Stage 4: k-means (§6.4.3).
	km, err := kmeans.FitGroups(rows, kmeans.Config{
		K:        cfg.K,
		Seed:     cfg.Seed,
		Restarts: cfg.KMeansRestarts,
		PlusPlus: true,
	})
	if err != nil {
		return failed(StageKMeans, err)
	}
	report.WCSS = km.WCSS
	done(StageKMeans, kept, kept)

	model := &Model{
		Features:       append([]fingerprint.Feature(nil), cfg.Features...),
		Scaler:         sc,
		PCA:            p,
		KMeans:         km,
		VersionDivisor: cfg.VersionDivisor,
		TrainedRows:    kept,
		Baseline:       baseline,
	}

	// Optional novelty guard: the threshold clears every *kept* training
	// row's centroid distance with a margin, so legitimate traffic never
	// trips it and surfaces beyond the training population's territory
	// do.
	if cfg.NoveltyGuard {
		// The largest distance over the rows is the largest over the
		// table.
		maxDist := 0.0
		for g := range rows.Count {
			// One-pass nearest + distance; bit-identical to
			// Distance(row, Predict(row)) at half the work.
			if _, d := km.AssignDistance(rows.Rows.RawRow(g)); d > maxDist {
				maxDist = d
			}
		}
		model.NoveltyThreshold = maxDist * 1.15
		done(StageNovelty, kept, kept)
	}

	// Stage 5: label clusters by user-agent majority and align rare
	// user-agents with reference fingerprints (§6.4.3). Rows out is the
	// size of the UA→cluster table the stage distills.
	model.buildClusterTable(rows, cfg, report)
	done(StageClusterTable, kept, len(model.UACluster))

	// Flatten the finished model for scoring. The Store also supersedes
	// any plan built lazily mid-training (the rare-UA alignment predicts
	// reference vectors' clusters before the UA table exists).
	plan, err := buildScorePlan(model)
	if err != nil {
		return nil, nil, err
	}
	model.plan.Store(plan)
	return model, report, nil
}

// claimKey packs a claimed release into the grouping key, so the table's
// classes are (claim, vector) pairs and the cluster table is a sum over
// them; claimOf unpacks it.
func claimKey(r ua.Release) uint64 { return uint64(r.Vendor)<<32 | uint64(uint32(r.Version)) }

func claimOf(key uint64) ua.Release {
	return ua.Release{Vendor: ua.Vendor(key >> 32), Version: int(int32(uint32(key)))}
}

// buildClusterTable computes the UA→cluster majority assignment, applies
// the rare-UA reference alignment, and evaluates Formula 1 accuracy, all
// as count-weighted sums over the table of kept (claim, cluster-space
// vector) classes.
func (m *Model) buildClusterTable(rows matrix.RowGroups, cfg TrainConfig, report *TrainReport) {
	byCluster := map[ua.Release][]int{} // rows per cluster, per claim
	assign := make([]int, len(rows.Count))
	for g, n := range rows.Count {
		assign[g] = m.KMeans.Predict(rows.Rows.RawRow(g))
		rel := claimOf(rows.Key[g])
		if byCluster[rel] == nil {
			byCluster[rel] = make([]int, m.KMeans.K)
		}
		byCluster[rel][assign[g]] += n
	}

	m.UACluster = make(map[ua.Release]int, len(byCluster))
	report.PerUAMajority = make(map[ua.Release]float64, len(byCluster))
	for rel, counts := range byCluster {
		cluster, bestCount := majority(counts)
		total := 0
		for _, n := range counts {
			total += n
		}
		// Rare-UA alignment: too few rows to trust the majority; use
		// the pristine reference fingerprint instead.
		if cfg.Reference != nil && total < cfg.RareUAThreshold {
			if vec, ok := cfg.Reference.ReferenceVector(rel); ok && len(vec) == m.Dim() {
				if c, err := m.PredictCluster(vec); err == nil {
					cluster = c
				}
			}
		}
		m.UACluster[rel] = cluster
		report.PerUAMajority[rel] = float64(bestCount) / float64(total)
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
	for g, n := range rows.Count {
		if assign[g] == m.UACluster[claimOf(rows.Key[g])] {
			correct += n
		}
	}
	m.Accuracy = float64(correct) / float64(len(rows.Group))
	report.Accuracy = m.Accuracy
}

// majority returns the cluster holding the most rows, the lowest on a
// tie, and its row count.
func majority(rowsByCluster []int) (cluster, rows int) {
	for c, n := range rowsByCluster {
		if n > rows {
			cluster, rows = c, n
		}
	}
	return cluster, rows
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
	// First pass: cluster everything, count unseen UAs' clusters.
	assign := make([]int, len(samples))
	unseen := map[ua.Release][]int{}
	for i, s := range samples {
		c, err := m.PredictCluster(s.Vector)
		if err != nil {
			return 0, err
		}
		assign[i] = c
		if _, known := m.UACluster[s.UA]; !known {
			if unseen[s.UA] == nil {
				unseen[s.UA] = make([]int, m.KMeans.K)
			}
			unseen[s.UA][c]++
		}
	}
	correct := 0
	for i, s := range samples {
		want, known := m.UACluster[s.UA]
		if !known {
			want, _ = majority(unseen[s.UA])
		}
		if assign[i] == want {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}
