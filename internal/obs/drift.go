package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/drift"
	"polygraph/internal/rng"
)

// DriftMonitor closes the gap between the offline internal/drift PSI
// machinery and live traffic: the serving tier feeds every accepted
// feature vector into a deterministic reservoir sample, and a
// background loop (or an explicit Evaluate call) periodically compares
// the reservoir against the training baseline with drift.FeaturePSI,
// exporting polygraph_feature_psi{feature=...} and
// polygraph_drift_alert gauges and logging a structured alert when any
// feature crosses drift.PSIAlert. §6.6's "actively identifies shifts in
// data patterns" thus becomes an operational signal instead of an
// offline experiment.

// ErrDriftNotReady reports an Evaluate before the reservoir holds
// enough samples for a meaningful PSI.
var ErrDriftNotReady = errors.New("obs: drift reservoir not ready")

// DriftConfig parameterizes a DriftMonitor.
type DriftConfig struct {
	// Features names the vector columns; required.
	Features []string
	// Baseline is the training-time sample the live reservoir is
	// compared against. Nil arms self-baseline mode: the first
	// Evaluate with a warm reservoir adopts the reservoir as baseline
	// (useful against a loaded model file whose training vectors are
	// gone).
	Baseline [][]float64
	// BaselineSize caps the retained baseline rows (deterministically
	// subsampled); 0 keeps 512.
	BaselineSize int
	// Reservoir is the live sample size; 0 uses 512.
	Reservoir int
	// MinSamples gates evaluation; 0 uses 32 (PSI itself needs ≥10).
	MinSamples int
	// Seed drives the deterministic reservoir-replacement stream.
	Seed uint64
	// Logger receives drift alerts; nil discards.
	Logger *slog.Logger
}

// DriftMonitor is safe for concurrent Observe/Evaluate/WriteMetrics.
// Observe costs an accepted request one atomic add and one atomic load:
// the reservoir is sampled by skip-ahead (Li's Algorithm L, TOMS 1994),
// which draws how many observations to pass over instead of a number
// per observation, so mu is taken only by the vectors that enter the
// reservoir — the first Reservoir of a window, then about
// Reservoir·ln(N/Reservoir) of the next N.
type DriftMonitor struct {
	// seen counts every accepted vector since the monitor was built.
	// next is the value of seen at which the next vector enters the
	// reservoir: 0 while a window fills, so that every vector does.
	seen atomic.Uint64
	next atomic.Uint64

	mu       sync.Mutex
	features []string
	baseline [][]float64
	// baselineAt is when the current baseline was installed (SetBaseline
	// or self-baseline adoption); zero while unset. Exported as
	// polygraph_drift_baseline_timestamp_seconds so the support-bundle
	// analyzers can tell "drift alert against a baseline newer than the
	// deployed model" (stale model) apart from ordinary drift.
	baselineAt time.Time
	res        [][]float64
	rng        *rng.PCG
	// w is Algorithm L's running maximum of the keys it never
	// materialises; the next skip is drawn from it.
	w       float64
	resSize int
	minEval int
	log     *slog.Logger

	evals   uint64
	latest  []drift.PSIResult
	alerted bool
}

// NewDriftMonitor validates the config and builds the monitor.
func NewDriftMonitor(cfg DriftConfig) (*DriftMonitor, error) {
	if len(cfg.Features) == 0 {
		return nil, errors.New("obs: DriftConfig.Features is required")
	}
	resSize := cfg.Reservoir
	if resSize <= 0 {
		resSize = 512
	}
	minEval := cfg.MinSamples
	if minEval <= 0 {
		minEval = 32
	}
	if minEval < 10 {
		minEval = 10 // drift.PSI's own floor
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	m := &DriftMonitor{
		features: append([]string(nil), cfg.Features...),
		res:      make([][]float64, 0, resSize),
		rng:      rng.New(cfg.Seed),
		resSize:  resSize,
		minEval:  minEval,
		log:      logger,
	}
	if cfg.Baseline != nil {
		if err := m.SetBaseline(cfg.Baseline, cfg.BaselineSize); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SetBaseline replaces the comparison baseline, deterministically
// subsampling to maxRows (0 keeps 512), and restarts the sampling
// window: the reservoir empties and fills again from the traffic that
// follows, so the new baseline is never compared against vectors seen
// before it. polygraphd calls this after a successful SIGHUP retrain so
// drift is always measured against the deployed model's training
// distribution. Seen keeps counting across windows.
func (m *DriftMonitor) SetBaseline(rows [][]float64, maxRows int) error {
	dim := len(m.features)
	for i, r := range rows {
		if len(r) != dim {
			return fmt.Errorf("obs: baseline row %d has %d features, want %d", i, len(r), dim)
		}
	}
	if maxRows <= 0 {
		maxRows = 512
	}
	copied := make([][]float64, 0, min(len(rows), maxRows))
	if len(rows) <= maxRows {
		for _, r := range rows {
			copied = append(copied, append([]float64(nil), r...))
		}
	} else {
		// Every ⌈n/max⌉-th row: deterministic, order-independent of any
		// RNG state, and spread across the input.
		stride := (len(rows) + maxRows - 1) / maxRows
		for i := 0; i < len(rows) && len(copied) < maxRows; i += stride {
			copied = append(copied, append([]float64(nil), rows[i]...))
		}
	}
	m.mu.Lock()
	m.baseline = copied
	m.baselineAt = time.Now()
	m.res = m.res[:0]
	m.next.Store(0)
	m.mu.Unlock()
	return nil
}

// Observe feeds one accepted feature vector into the reservoir (the
// vector is copied, so callers may reuse their buffer). Vectors of the
// wrong width are dropped — the scoring path already rejected them
// upstream. The sample is uniform over the window, and for one seed and
// one serial order of calls it is always the same sample.
func (m *DriftMonitor) Observe(v []float64) {
	if len(v) != len(m.features) {
		return
	}
	if n := m.seen.Add(1); n >= m.next.Load() {
		m.enter(n, v)
	}
}

// enter is Observe's slow path: v, the n-th vector seen, fills the
// window or replaces a uniformly drawn row, and the index of the next
// vector to do so is drawn. Concurrent callers reach the lock in any
// order, so the row goes to the first of them at or past next and the
// others find next already moved on.
func (m *DriftMonitor) enter(n uint64, v []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.next.Load()
	switch {
	case len(m.res) < m.resSize:
		m.res = append(m.res, append([]float64(nil), v...))
		if len(m.res) < m.resSize {
			return
		}
		m.w, next = 1, n
	case n < next:
		return
	default:
		copy(m.res[m.rng.Uint64n(uint64(m.resSize))], v)
	}
	// 1 − Float64() is in (0, 1]: its logarithm is finite.
	m.w *= math.Exp(math.Log(1-m.rng.Float64()) / float64(m.resSize))
	skip := math.Floor(math.Log(1-m.rng.Float64()) / math.Log1p(-m.w))
	m.next.Store(next + uint64(skip) + 1)
}

// Seen returns how many vectors Observe has accepted.
func (m *DriftMonitor) Seen() uint64 { return m.seen.Load() }

// Evaluate computes per-feature PSI of the current reservoir against
// the baseline, retaining the results for WriteMetrics and logging a
// structured alert when any feature crosses drift.PSIAlert. In
// self-baseline mode the first warm evaluation adopts the reservoir as
// baseline and reports ErrDriftNotReady (there is nothing to compare
// yet).
func (m *DriftMonitor) Evaluate() ([]drift.PSIResult, error) {
	m.mu.Lock()
	if n := len(m.res); n < m.minEval {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %d/%d samples", ErrDriftNotReady, n, m.minEval)
	}
	current := make([][]float64, len(m.res))
	for i, r := range m.res {
		current[i] = append([]float64(nil), r...)
	}
	if m.baseline == nil {
		m.baseline = current
		m.baselineAt = time.Now()
		m.mu.Unlock()
		m.log.Info("drift baseline captured from live traffic", "rows", len(current))
		return nil, fmt.Errorf("%w: baseline captured, comparison starts next cycle", ErrDriftNotReady)
	}
	baseline := m.baseline
	features := m.features
	m.mu.Unlock()

	results, err := drift.FeaturePSI(features, baseline, current)
	if err != nil {
		return nil, err
	}
	alert := drift.AnyAlert(results)

	m.mu.Lock()
	m.evals++
	m.latest = results
	m.alerted = alert
	m.mu.Unlock()

	if alert {
		for _, r := range results {
			if r.Status != "alert" {
				continue
			}
			m.log.Warn("feature drift alert",
				"feature", r.Feature, "psi", r.PSI, "threshold", drift.PSIAlert)
		}
	}
	return results, nil
}

// Run evaluates every interval until ctx is done — polygraphd's
// background drift loop. Not-ready cycles are silent; other evaluation
// errors are logged.
func (m *DriftMonitor) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := m.Evaluate(); err != nil && !errors.Is(err, ErrDriftNotReady) {
				m.log.Warn("drift evaluation failed", "err", err.Error())
			}
		}
	}
}

// Latest returns the most recent evaluation's results (nil before the
// first successful one) and whether it alerted.
func (m *DriftMonitor) Latest() ([]drift.PSIResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest, m.alerted
}

// WriteMetrics appends the drift families to a /metrics exposition.
func (m *DriftMonitor) WriteMetrics(w io.Writer) {
	m.mu.Lock()
	latest := m.latest
	alerted := m.alerted
	evals := m.evals
	resLen := len(m.res)
	seen := m.seen.Load()
	baselineAt := m.baselineAt
	m.mu.Unlock()

	WriteMetric(w, "polygraph_drift_evaluations_total",
		"Completed PSI evaluations of live traffic vs the training baseline.", "counter", float64(evals))
	WriteMetric(w, "polygraph_drift_reservoir_size",
		"Feature vectors currently held in the drift reservoir.", "gauge", float64(resLen))
	WriteMetric(w, "polygraph_drift_observed_total",
		"Accepted feature vectors offered to the drift reservoir.", "counter", float64(seen))
	alertVal := 0.0
	if alerted {
		alertVal = 1
	}
	WriteMetric(w, "polygraph_drift_alert",
		"1 when the last evaluation found a feature above the PSI alert threshold.", "gauge", alertVal)
	baselineTs := 0.0
	if !baselineAt.IsZero() {
		baselineTs = float64(baselineAt.Unix())
	}
	WriteMetric(w, "polygraph_drift_baseline_timestamp_seconds",
		"Unix time the current drift baseline was installed (0 while unset).", "gauge", baselineTs)
	if len(latest) == 0 {
		return
	}
	series := make([]LabeledValue, len(latest))
	for i, r := range latest {
		series[i] = LabeledValue{Label: r.Feature, Value: r.PSI}
	}
	WriteLabeledFamily(w, "polygraph_feature_psi",
		"Population Stability Index of each feature, live traffic vs training baseline.",
		"gauge", "feature", series)
}
