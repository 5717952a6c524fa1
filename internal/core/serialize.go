package core

import (
	"encoding/json"
	"fmt"
	"io"

	"polygraph/internal/fingerprint"
	"polygraph/internal/kmeans"
	"polygraph/internal/matrix"
	"polygraph/internal/pca"
	"polygraph/internal/scaler"
	"polygraph/internal/ua"
)

// modelJSON is the stable on-disk schema. Training runs offline (paper
// §6.5); the serialized model is what the online scoring tier loads.
type modelJSON struct {
	Version        int                 `json:"version"`
	Features       []featureJSON       `json:"features"`
	ScalerMeans    []float64           `json:"scaler_means"`
	ScalerStds     []float64           `json:"scaler_stds"`
	ScalerSkip     []bool              `json:"scaler_skip,omitempty"`
	PCAMean        []float64           `json:"pca_mean,omitempty"`
	PCAComponents  [][]float64         `json:"pca_components,omitempty"`
	PCAVariances   []float64           `json:"pca_variances,omitempty"`
	Centroids      [][]float64         `json:"centroids"`
	ClusterUAs     map[string][]string `json:"cluster_uas"`
	Accuracy       float64             `json:"accuracy"`
	VersionDivisor int                 `json:"version_divisor"`
	TrainedRows    int                 `json:"trained_rows"`

	NoveltyThreshold float64  `json:"novelty_threshold,omitempty"`
	DriftBaseline    Baseline `json:"drift_baseline,omitempty"`
}

type featureJSON struct {
	Kind  string `json:"kind"`
	Proto string `json:"proto"`
	Prop  string `json:"prop,omitempty"`
}

const modelSchemaVersion = 1

// Save writes the model as JSON, or refuses a model missing a component
// with an error wrapping ErrNotTrained.
func (m *Model) Save(w io.Writer) error {
	if err := m.missing(); err != nil {
		return err
	}
	mj := modelJSON{
		Version:        modelSchemaVersion,
		ScalerMeans:    m.Scaler.Means,
		ScalerStds:     m.Scaler.Stds,
		ScalerSkip:     m.Scaler.Skip(),
		Accuracy:       m.Accuracy,
		VersionDivisor: m.VersionDivisor,
		TrainedRows:    m.TrainedRows,
	}
	for _, f := range m.Features {
		mj.Features = append(mj.Features, featureJSON{Kind: f.Kind.String(), Proto: f.Proto, Prop: f.Prop})
	}
	if m.PCA != nil {
		mj.PCAMean = m.PCA.Mean
		mj.PCAVariances = m.PCA.Variances
		k, d := m.PCA.Components.Dims()
		mj.PCAComponents = make([][]float64, k)
		for i := 0; i < k; i++ {
			mj.PCAComponents[i] = m.PCA.Components.Row(i)
		}
		_ = d
	}
	kr, _ := m.KMeans.Centroids.Dims()
	mj.Centroids = make([][]float64, kr)
	for i := 0; i < kr; i++ {
		mj.Centroids[i] = m.KMeans.Centroids.Row(i)
	}
	mj.NoveltyThreshold = m.NoveltyThreshold
	mj.DriftBaseline = m.Baseline
	mj.ClusterUAs = map[string][]string{}
	for c, rels := range m.ClusterUAs {
		key := fmt.Sprintf("%d", c)
		for _, r := range rels {
			mj.ClusterUAs[key] = append(mj.ClusterUAs[key], r.String())
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&mj)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if mj.Version != modelSchemaVersion {
		return nil, fmt.Errorf("core: unsupported model schema version %d", mj.Version)
	}
	if len(mj.Features) == 0 || len(mj.Centroids) == 0 {
		return nil, fmt.Errorf("core: model missing features or centroids")
	}
	if len(mj.ScalerMeans) != len(mj.Features) || len(mj.ScalerStds) != len(mj.Features) {
		return nil, fmt.Errorf("core: scaler size mismatch")
	}

	m := &Model{
		Accuracy:       mj.Accuracy,
		VersionDivisor: mj.VersionDivisor,
		TrainedRows:    mj.TrainedRows,
	}
	for _, fj := range mj.Features {
		var f fingerprint.Feature
		switch fj.Kind {
		case fingerprint.DeviationBased.String():
			f = fingerprint.Deviation(fj.Proto)
		case fingerprint.TimeBased.String():
			f = fingerprint.Time(fj.Proto, fj.Prop)
		default:
			return nil, fmt.Errorf("core: unknown feature kind %q", fj.Kind)
		}
		m.Features = append(m.Features, f)
	}

	m.Scaler = &scaler.Standard{
		Means: mj.ScalerMeans,
		Stds:  mj.ScalerStds,
	}
	if err := m.Scaler.SetSkip(mj.ScalerSkip); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if len(mj.PCAComponents) > 0 {
		if len(mj.PCAMean) != len(mj.Features) {
			return nil, fmt.Errorf("core: pca mean size mismatch")
		}
		if err := checkWidths("pca_components", mj.PCAComponents, len(mj.Features)); err != nil {
			return nil, err
		}
		comps := matrix.FromRows(mj.PCAComponents)
		m.PCA = &pca.PCA{
			Mean:       mj.PCAMean,
			Components: comps,
			Variances:  mj.PCAVariances,
			K:          len(mj.PCAComponents),
		}
	}

	wantDim := len(mj.Features)
	if m.PCA != nil {
		wantDim = m.PCA.K
	}
	if err := checkWidths("centroids", mj.Centroids, wantDim); err != nil {
		return nil, err
	}
	cents := matrix.FromRows(mj.Centroids)
	kr, kd := cents.Dims()
	m.KMeans = &kmeans.Model{Centroids: cents, K: kr, Dim: kd}

	m.ClusterUAs = map[int][]ua.Release{}
	m.UACluster = map[ua.Release]int{}
	for key, names := range mj.ClusterUAs {
		var c int
		if _, err := fmt.Sscanf(key, "%d", &c); err != nil {
			return nil, fmt.Errorf("core: bad cluster key %q", key)
		}
		if c < 0 || c >= kr {
			return nil, fmt.Errorf("core: cluster %d out of range", c)
		}
		for _, name := range names {
			rel, err := ua.ParseName(name)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			m.ClusterUAs[c] = append(m.ClusterUAs[c], rel)
			m.UACluster[rel] = c
		}
	}
	m.NoveltyThreshold = mj.NoveltyThreshold
	if mj.DriftBaseline != nil {
		if err := mj.DriftBaseline.Validate(len(mj.Features)); err != nil {
			return nil, err
		}
		m.Baseline = mj.DriftBaseline
	}
	if m.VersionDivisor <= 0 {
		m.VersionDivisor = ua.DefaultVersionDivisor
	}
	// Flatten for scoring once, at load time, so the serving tier never
	// pays the build on a request and a loaded model always has a plan.
	p, err := buildScorePlan(m)
	if err != nil {
		return nil, err
	}
	m.plan.Store(p)
	return m, nil
}

// checkWidths rejects a matrix whose rows are not all want wide, before
// matrix.FromRows would panic on a ragged one.
func checkWidths(name string, rows [][]float64, want int) error {
	for i, row := range rows {
		if len(row) != want {
			return fmt.Errorf("core: %s row %d has width %d, want %d", name, i, len(row), want)
		}
	}
	return nil
}
