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

	"polygraph/internal/core"
	"polygraph/internal/drift"
	"polygraph/internal/rng"
)

// DriftMonitor closes the gap between the offline internal/drift PSI
// machinery and live traffic: the serving tier feeds every accepted
// feature vector into a deterministic reservoir sample, and a
// background loop (or an explicit Evaluate call) periodically compares
// the reservoir against the deployed model's drift baseline
// (core.Model.Baseline) with drift.BaselinePSI, exporting
// polygraph_feature_psi{feature=...} and polygraph_drift_alert gauges
// and logging a structured alert when any feature crosses
// drift.PSIAlert. §6.6's "actively identifies shifts in data patterns"
// thus becomes an operational signal instead of an offline experiment.

// ErrDriftNotReady reports an Evaluate with nothing to compare: no
// baseline is installed, or the reservoir holds too few samples for a
// meaningful PSI.
var ErrDriftNotReady = errors.New("obs: drift reservoir not ready")

// driftMinSamples is how many sampled vectors a window needs before it
// is evaluated (drift.PSI itself needs 10).
const driftMinSamples = 32

// DriftConfig parameterizes a DriftMonitor.
type DriftConfig struct {
	// Features names the vector columns; required.
	Features []string
	// Reservoir is the live sample size; 0 uses 512. Evaluation waits
	// for driftMinSamples of them.
	Reservoir int
	// Seed drives the deterministic reservoir-replacement stream.
	Seed uint64
	// Logger receives drift alerts; nil discards.
	Logger *slog.Logger
}

// DriftMonitor is safe for concurrent Observe/Evaluate/WriteMetrics.
// Observe costs a block of accepted vectors — one HTTP request's, one
// TCP batch's — one atomic add and one atomic load: the reservoir is
// sampled by skip-ahead (Li's Algorithm L, TOMS 1994), which draws how
// many observations to pass over instead of a number per observation,
// so mu is taken only by the vectors that enter the
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
	baseline core.Baseline
	// baselineAt is when the current baseline was installed; zero while
	// none is. Exported as polygraph_drift_baseline_timestamp_seconds.
	baselineAt time.Time
	res        [][]float64
	rng        *rng.PCG
	// w is Algorithm L's running maximum of the keys it never
	// materialises; the next skip is drawn from it.
	w       float64
	resSize int
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
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	return &DriftMonitor{
		features: append([]string(nil), cfg.Features...),
		res:      make([][]float64, 0, resSize),
		rng:      rng.New(cfg.Seed),
		resSize:  resSize,
		log:      logger,
	}, nil
}

// SetBaseline installs the baseline drift is measured against and
// restarts the sampling window: the reservoir empties and fills again
// from the traffic that follows, so a baseline is never compared against
// vectors seen before it, and the last results, measured against the
// previous baseline, are dropped. serving.Replica calls it with each
// model it deploys. A nil baseline disarms the monitor, and so does one
// that does not fit its features, which is also reported: Evaluate
// answers ErrDriftNotReady until the next baseline. Seen keeps counting
// across windows.
func (m *DriftMonitor) SetBaseline(b core.Baseline) error {
	var err error
	if b != nil {
		if err = b.Validate(len(m.features)); err != nil {
			b, err = nil, fmt.Errorf("obs: %w", err)
		}
	}
	m.mu.Lock()
	m.baseline = b
	m.baselineAt = time.Time{}
	if b != nil {
		m.baselineAt = time.Now()
	}
	m.latest, m.alerted = nil, false
	m.res = m.res[:0]
	m.next.Store(0)
	m.mu.Unlock()
	return err
}

// Observe feeds a block of accepted feature vectors into the reservoir,
// in order (each vector is copied, so callers may reuse their buffers).
// Vectors of the wrong width are dropped — the scoring path already
// rejected them upstream. The block is counted with one atomic add, and
// its vectors take the numbers one call per vector would have given
// them, so for one seed and one serial order of vectors the sample is
// the same however they are split into blocks. The sample is uniform
// over the window.
func (m *DriftMonitor) Observe(vs ...[]float64) {
	var n uint64
	for _, v := range vs {
		if len(v) == len(m.features) {
			n++
		}
	}
	if n == 0 {
		return
	}
	last := m.seen.Add(n)
	if last < m.next.Load() {
		return
	}
	i := last - n
	for _, v := range vs {
		if len(v) != len(m.features) {
			continue
		}
		if i++; i >= m.next.Load() {
			m.enter(i, v)
		}
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
// structured alert when any feature crosses drift.PSIAlert.
func (m *DriftMonitor) Evaluate() ([]drift.PSIResult, error) {
	m.mu.Lock()
	if m.baseline == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: no baseline", ErrDriftNotReady)
	}
	if n := len(m.res); n < driftMinSamples {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %d/%d samples", ErrDriftNotReady, n, driftMinSamples)
	}
	current := make([][]float64, len(m.res))
	for i, r := range m.res {
		current[i] = append([]float64(nil), r...)
	}
	baseline := m.baseline
	features := m.features
	m.mu.Unlock()

	results, err := drift.BaselinePSI(features, baseline, current)
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

	FamDriftEvaluations.Write(w, float64(evals))
	FamDriftReservoir.Write(w, float64(resLen))
	FamDriftObserved.Write(w, float64(seen))
	alertVal := 0.0
	if alerted {
		alertVal = 1
	}
	FamDriftAlert.Write(w, alertVal)
	baselineTs := 0.0
	if !baselineAt.IsZero() {
		baselineTs = float64(baselineAt.Unix())
	}
	FamDriftBaselineAt.Write(w, baselineTs)
	series := make([]LabeledValue, len(latest))
	for i, r := range latest {
		series[i] = LabeledValue{Label: r.Feature, Value: r.PSI}
	}
	FamFeaturePSI.WriteSeries(w, series)
}
