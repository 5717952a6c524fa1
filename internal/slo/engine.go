package slo

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"polygraph/internal/obs"
)

// Burn-window roles: the four windows of the two SRE-workbook pairs.
// Roles (not durations) label the exported burn-rate series so alert
// routing stays stable when a spec tunes its window lengths.
const (
	WindowFastShort = "fast_short"
	WindowFastLong  = "fast_long"
	WindowSlowShort = "slow_short"
	WindowSlowLong  = "slow_long"
)

// Config configures an Engine.
type Config struct {
	Spec *Spec
	// IntervalS is the logical tick period in seconds the ring windows
	// are denominated in (default 10). The engine itself never reads a
	// clock — callers tick it, on a wall timer (Run) or deterministically
	// (tests, the loadgen harness).
	IntervalS int
	// Source produces the exposition each TickNow snapshots. Optional:
	// a rollup that sums counters itself drives TickCounters directly.
	Source func() *obs.Exposition
	// Logger receives structured alert transitions (nil = silent).
	Logger *slog.Logger
	// Scope names this engine in alert logs and the JSON page
	// ("replica r0", "fleet").
	Scope string
}

// snapshot is one tick's cumulative counters for every objective.
type snapshot struct {
	tick int64
	c    []Counters
}

// Engine evaluates a spec over a ring of deterministic snapshots.
type Engine struct {
	spec      *Spec
	win       Windows
	intervalS int
	source    func() *obs.Exposition
	logger    *slog.Logger
	scope     string
	maxTicks  int

	mu   sync.Mutex
	tick int64
	ring []snapshot
	page Page
}

// NewEngine builds an engine and evaluates the implicit zero baseline
// (tick 0, all counters zero — exact, because exported counters are
// cumulative since process start), so the SLO families are
// present and vacuously green before the first tick fires.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("slo: engine needs a spec")
	}
	if err := cfg.Spec.validate(); err != nil {
		return nil, err
	}
	if cfg.IntervalS == 0 {
		cfg.IntervalS = 10
	}
	if cfg.IntervalS < 0 {
		return nil, fmt.Errorf("slo: interval %ds must be positive", cfg.IntervalS)
	}
	e := &Engine{
		spec:      cfg.Spec,
		win:       cfg.Spec.Windows.withDefaults(),
		intervalS: cfg.IntervalS,
		source:    cfg.Source,
		logger:    cfg.Logger,
		scope:     cfg.Scope,
	}
	longest := e.win.SlowLongS
	if e.win.FastLongS > longest {
		longest = e.win.FastLongS
	}
	for _, o := range cfg.Spec.Objectives {
		if o.WindowS > longest {
			longest = o.WindowS
		}
	}
	e.maxTicks = e.windowTicks(longest)
	if e.maxTicks > 1<<20 {
		return nil, fmt.Errorf("slo: window %ds at interval %ds needs %d ring slots (cap %d); raise the interval",
			longest, e.intervalS, e.maxTicks, 1<<20)
	}
	e.mu.Lock()
	e.ring = []snapshot{{tick: 0, c: make([]Counters, len(cfg.Spec.Objectives))}}
	e.evaluateLocked()
	e.mu.Unlock()
	return e, nil
}

// Spec returns the engine's spec.
func (e *Engine) Spec() *Spec { return e.spec }

// windowTicks converts a window length to whole ticks (minimum 1).
func (e *Engine) windowTicks(ws int) int {
	t := (ws + e.intervalS - 1) / e.intervalS
	if t < 1 {
		t = 1
	}
	return t
}

// TickNow scrapes the configured source and advances one tick.
func (e *Engine) TickNow() error {
	if e.source == nil {
		return fmt.Errorf("slo: engine has no source")
	}
	ex := e.source()
	if ex == nil {
		return fmt.Errorf("slo: source returned no exposition")
	}
	e.TickCounters(e.spec.Extract(ex))
	return nil
}

// TickCounters appends one cumulative counter snapshot and re-evaluates
// every objective. This is the engine's only mutation path; everything
// downstream (JSON page, metric families, alert transitions) is a pure
// function of the snapshot sequence.
func (e *Engine) TickCounters(c []Counters) {
	e.mu.Lock()
	e.tick++
	e.ring = append(e.ring, snapshot{tick: e.tick, c: c})
	if len(e.ring) > e.maxTicks+1 {
		e.ring = e.ring[len(e.ring)-(e.maxTicks+1):]
	}
	prev := make([]bool, len(e.page.Objectives))
	for i, o := range e.page.Objectives {
		prev[i] = o.Alerting
	}
	e.evaluateLocked()
	page := e.page
	e.mu.Unlock()

	if e.logger == nil {
		return
	}
	for i, o := range page.Objectives {
		if o.Alerting == prev[i] {
			continue
		}
		attrs := []any{
			"scope", e.scope, "objective", o.Name, "tick", page.Tick,
			"sli", o.SLI, "budget_remaining", o.BudgetRemaining,
			"fast_burn", o.FastBurn, "slow_burn", o.SlowBurn,
		}
		if o.Alerting {
			e.logger.Warn("slo: burn-rate alert firing", attrs...)
		} else {
			e.logger.Info("slo: burn-rate alert cleared", attrs...)
		}
	}
}

// Run ticks the engine from its source every interval until ctx ends —
// the live loop a serving replica runs. Wall time only schedules the
// ticks; the evaluation itself stays a function of the snapshots.
func (e *Engine) Run(ctx context.Context, interval time.Duration) {
	if e.source == nil || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := e.TickNow(); err != nil && e.logger != nil {
				e.logger.Warn("slo: tick failed", "scope", e.scope, "err", err)
			}
		}
	}
}

// BurnWindow is one evaluated burn-rate window.
type BurnWindow struct {
	// Window is the role (fast_short, fast_long, slow_short, slow_long).
	Window  string  `json:"window"`
	WindowS int     `json:"window_s"`
	Good    float64 `json:"good"`
	Total   float64 `json:"total"`
	// Rate is the burn rate: (bad fraction in the window) / (1-target).
	// 1.0 burns the budget exactly at the sustainable pace; the pair
	// thresholds (14.4 fast, 6 slow) page well before exhaustion.
	Rate float64 `json:"rate"`
}

// ObjectiveStatus is one objective's current evaluation.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Endpoint    string  `json:"endpoint,omitempty"`
	Target      float64 `json:"target"`
	ThresholdUs float64 `json:"threshold_us,omitempty"`
	WindowS     int     `json:"window_s"`
	// Good/Total/SLI cover the rolling compliance window.
	Good            float64      `json:"good"`
	Total           float64      `json:"total"`
	SLI             float64      `json:"sli"`
	BudgetRemaining float64      `json:"budget_remaining"`
	Burn            []BurnWindow `json:"burn"`
	FastBurn        bool         `json:"fast_burn"`
	SlowBurn        bool         `json:"slow_burn"`
	Alerting        bool         `json:"alerting"`
}

// Page is the full /debug/slo document. For a fixed snapshot sequence
// its JSON rendering is byte-identical across runs and worker counts.
type Page struct {
	Spec       string            `json:"spec"`
	Scope      string            `json:"scope,omitempty"`
	Tick       int64             `json:"tick"`
	IntervalS  int               `json:"interval_s"`
	Windows    Windows           `json:"windows"`
	Alerting   bool              `json:"alerting"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// evaluateLocked recomputes the page from the ring. Callers hold e.mu.
func (e *Engine) evaluateLocked() {
	page := Page{
		Spec:      e.spec.Name,
		Scope:     e.scope,
		Tick:      e.tick,
		IntervalS: e.intervalS,
		Windows:   e.win,
	}
	roles := []struct {
		name    string
		windowS int
		burn    float64
		fast    bool
	}{
		{WindowFastShort, e.win.FastShortS, e.win.FastBurn, true},
		{WindowFastLong, e.win.FastLongS, e.win.FastBurn, true},
		{WindowSlowShort, e.win.SlowShortS, e.win.SlowBurn, false},
		{WindowSlowLong, e.win.SlowLongS, e.win.SlowBurn, false},
	}
	for i, o := range e.spec.Objectives {
		st := ObjectiveStatus{
			Name: o.Name, Kind: o.Kind, Endpoint: o.Endpoint,
			Target: o.Target, ThresholdUs: o.ThresholdUs, WindowS: o.WindowS,
		}
		st.Good, st.Total = e.deltaLocked(i, e.windowTicks(o.WindowS))
		sliV, _ := sli(st.Good, st.Total)
		st.SLI = sliV
		st.BudgetRemaining = 1 - (1-sliV)/(1-o.Target)

		fastOver, slowOver := 0, 0
		for _, role := range roles {
			g, t := e.deltaLocked(i, e.windowTicks(role.windowS))
			bw := BurnWindow{Window: role.name, WindowS: role.windowS, Good: g, Total: t}
			if t > 0 {
				bw.Rate = (1 - g/t) / (1 - o.Target)
			}
			if bw.Rate >= role.burn {
				if role.fast {
					fastOver++
				} else {
					slowOver++
				}
			}
			st.Burn = append(st.Burn, bw)
		}
		// A pair alerts only when BOTH its windows burn over threshold:
		// the short window proves the problem is current, the long one
		// proves it is material.
		st.FastBurn = fastOver == 2
		st.SlowBurn = slowOver == 2
		st.Alerting = st.FastBurn || st.SlowBurn
		if st.Alerting {
			page.Alerting = true
		}
		page.Objectives = append(page.Objectives, st)
	}
	e.page = page
}

// deltaLocked returns objective idx's good/total event deltas over the
// last windowTicks ticks: newest snapshot minus the newest snapshot at
// or before (now - window). Histories shorter than the window fall back
// to the oldest snapshot — a partial window, the standard rolling-SLI
// warm-up behavior.
func (e *Engine) deltaLocked(idx, windowTicks int) (good, total float64) {
	cur := e.ring[len(e.ring)-1]
	base := e.ring[0]
	cutoff := cur.tick - int64(windowTicks)
	for i := len(e.ring) - 1; i >= 0; i-- {
		if e.ring[i].tick <= cutoff {
			base = e.ring[i]
			break
		}
	}
	good = cur.c[idx].Good - base.c[idx].Good
	total = cur.c[idx].Total - base.c[idx].Total
	if good < 0 {
		good = 0
	}
	if total < 0 {
		total = 0
	}
	return good, total
}

// Status returns a copy of the current page.
func (e *Engine) Status() Page {
	e.mu.Lock()
	defer e.mu.Unlock()
	page := e.page
	page.Objectives = append([]ObjectiveStatus(nil), e.page.Objectives...)
	return page
}

// WriteJSON renders the /debug/slo page. Deterministic: same snapshot
// sequence, same bytes.
func (e *Engine) WriteJSON(w io.Writer) error {
	page := e.Status()
	data, err := json.MarshalIndent(&page, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ServeHTTP serves the JSON page (mounted at GET /debug/slo).
func (e *Engine) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	e.WriteJSON(w)
}

// WriteMetrics emits the replica's SLO families (obs.ReplicaSLO).
func (e *Engine) WriteMetrics(w io.Writer) { e.WriteMetricsAs(w, obs.ReplicaSLO) }

// WriteMetricsAs emits the engine's gauges as the given families (the
// fleet rollup writes obs.FleetSLO so its families can share an
// exposition with a replica's own).
func (e *Engine) WriteMetricsAs(w io.Writer, fams obs.SLOFamilies) {
	page := e.Status()
	per := func(value func(ObjectiveStatus) float64) []obs.LabeledValue {
		out := make([]obs.LabeledValue, len(page.Objectives))
		for i, o := range page.Objectives {
			out[i] = obs.LabeledValue{Label: o.Name, Value: value(o)}
		}
		return out
	}
	var burn []obs.MultiSeries
	for _, o := range page.Objectives {
		for _, b := range o.Burn {
			burn = append(burn, obs.MultiSeries{Values: []string{o.Name, b.Window}, Value: b.Rate})
		}
	}
	fams.Target.WriteSeries(w, per(func(o ObjectiveStatus) float64 { return o.Target }))
	fams.SLI.WriteSeries(w, per(func(o ObjectiveStatus) float64 { return o.SLI }))
	fams.BudgetRemaining.WriteSeries(w, per(func(o ObjectiveStatus) float64 { return o.BudgetRemaining }))
	fams.BurnRate.WriteMulti(w, burn)
	fams.Alert.WriteSeries(w, per(func(o ObjectiveStatus) float64 {
		if o.Alerting {
			return 1
		}
		return 0
	}))
}
