package slo

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"polygraph/internal/obs"
)

// tightSpec is a 1-second-tick spec small enough to exercise every
// window within a handful of ticks: fast pair 1s/2s at 5x, slow pair
// 2s/4s at 2x, one availability objective at 99% over 4s.
func tightSpec() *Spec {
	return &Spec{
		Name:    "tight",
		Windows: Windows{FastShortS: 1, FastLongS: 2, FastBurn: 5, SlowShortS: 2, SlowLongS: 4, SlowBurn: 2},
		Objectives: []Objective{
			{Name: "avail", Kind: KindAvailability, Target: 0.99, WindowS: 4},
		},
	}
}

func tightEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Spec: tightSpec(), IntervalS: 1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestEngineVacuousBaseline(t *testing.T) {
	e := tightEngine(t)
	st := e.Status()
	if st.Tick != 0 || st.Alerting {
		t.Fatalf("baseline page = %+v", st)
	}
	o := st.Objectives[0]
	if o.SLI != 1 || o.BudgetRemaining != 1 || o.Total != 0 {
		t.Fatalf("baseline objective = %+v, want vacuous green", o)
	}
	// Families are present before any tick so `polygraphctl lint`'s required list
	// holds even on a replica that has not completed its first interval.
	var b strings.Builder
	e.WriteMetrics(&b)
	for _, fam := range []string{"polygraph_slo_target", "polygraph_slo_sli",
		"polygraph_slo_error_budget_remaining", "polygraph_slo_burn_rate", "polygraph_slo_alert"} {
		if !strings.Contains(b.String(), fam) {
			t.Fatalf("baseline metrics missing %s:\n%s", fam, b.String())
		}
	}
}

// TestEngineBurnRateMath pins the burn-rate arithmetic: 10% bad traffic
// against a 99% objective burns at (0.10)/(0.01) = 10x.
func TestEngineBurnRateMath(t *testing.T) {
	e := tightEngine(t)
	e.TickCounters([]Counters{{Good: 900, Total: 1000}})
	st := e.Status()
	o := st.Objectives[0]
	if o.SLI != 0.9 {
		t.Fatalf("SLI = %v, want 0.9", o.SLI)
	}
	// Budget remaining: 1 - 0.1/0.01 = -9 (overspent 9 budgets).
	if got := o.BudgetRemaining; got < -9.0001 || got > -8.9999 {
		t.Fatalf("budget remaining = %v, want -9", got)
	}
	for _, bw := range o.Burn {
		if bw.Rate < 9.9999 || bw.Rate > 10.0001 {
			t.Fatalf("window %s rate = %v, want 10", bw.Window, bw.Rate)
		}
	}
	// 10x exceeds the fast threshold (5) and the slow one (2): both
	// pairs over in both windows → alert fires.
	if !o.FastBurn || !o.SlowBurn || !o.Alerting || !st.Alerting || !e.Status().Alerting {
		t.Fatalf("objective not alerting: %+v", o)
	}
}

func TestEngineAlertClearsAfterCleanTraffic(t *testing.T) {
	e := tightEngine(t)
	e.TickCounters([]Counters{{Good: 900, Total: 1000}})
	if !e.Status().Alerting {
		t.Fatal("breach did not trip the alert")
	}
	// Clean traffic: each tick adds 1000 good events. The fast pair
	// clears as soon as its short window holds only clean deltas; the
	// slow pair keeps firing until the 4s slow-long window rolls the
	// bad tick out entirely.
	cum := Counters{Good: 900, Total: 1000}
	for i := 0; i < 3; i++ {
		cum.Good += 1000
		cum.Total += 1000
		e.TickCounters([]Counters{cum})
		st := e.Status().Objectives[0]
		if st.FastBurn {
			t.Fatalf("tick %d: fast pair still firing: %+v", i, st)
		}
	}
	if e.Status().Alerting {
		t.Fatalf("alert still firing after bad tick rolled out: %+v", e.Status().Objectives[0])
	}
}

// TestEngineDeterministicJSON is the acceptance pin: the same snapshot
// sequence yields byte-identical /debug/slo JSON across independent
// engines, including while concurrent readers hammer the page.
func TestEngineDeterministicJSON(t *testing.T) {
	seq := [][]Counters{
		{{Good: 500, Total: 500}},
		{{Good: 900, Total: 1000}},
		{{Good: 1850, Total: 2000}},
		{{Good: 2850, Total: 3000}},
	}
	render := func(concurrent bool) string {
		e := tightEngine(t)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if concurrent {
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var b bytes.Buffer
						e.WriteJSON(&b)
						e.WriteMetrics(&b)
						e.Status()
					}
				}()
			}
		}
		for _, c := range seq {
			e.TickCounters(c)
		}
		close(stop)
		wg.Wait()
		var b bytes.Buffer
		if err := e.WriteJSON(&b); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return b.String()
	}
	solo := render(false)
	for i := 0; i < 3; i++ {
		if got := render(true); got != solo {
			t.Fatalf("run %d JSON differs:\n%s\nvs\n%s", i, got, solo)
		}
	}
	if !strings.Contains(solo, `"tick": 4`) {
		t.Fatalf("page missing tick count:\n%s", solo)
	}
}

func TestEngineMetricsLintClean(t *testing.T) {
	e := tightEngine(t)
	e.TickCounters([]Counters{{Good: 900, Total: 1000}})
	var b strings.Builder
	e.WriteMetrics(&b)
	problems, err := obs.Lint(strings.NewReader(b.String()),
		"polygraph_slo_target", "polygraph_slo_sli",
		"polygraph_slo_error_budget_remaining", "polygraph_slo_burn_rate", "polygraph_slo_alert")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, p := range problems {
		t.Errorf("slo metrics lint dirty: %s", p)
	}
	if !strings.Contains(b.String(), `polygraph_slo_alert{objective="avail"} 1`) {
		t.Fatalf("alert gauge not 1 after breach:\n%s", b.String())
	}

	// The fleet prefix renders the same families under fleet names.
	var fb strings.Builder
	e.WriteMetricsAs(&fb, obs.FleetSLO)
	if !strings.Contains(fb.String(), "polygraph_fleet_slo_burn_rate") {
		t.Fatalf("fleet prefix missing:\n%s", fb.String())
	}
}

func TestEngineTickExpositionAndSource(t *testing.T) {
	spec := &Spec{
		Name:    "src",
		Windows: Windows{FastShortS: 1, FastLongS: 2, FastBurn: 5, SlowShortS: 2, SlowLongS: 4, SlowBurn: 2},
		Objectives: []Objective{
			{Name: "lat", Kind: KindLatency, Endpoint: "/v1/collect", Target: 0.95, ThresholdUs: 2048, WindowS: 4},
		},
	}
	e, err := NewEngine(Config{Spec: spec, IntervalS: 1, Source: func() *obs.Exposition {
		return obs.ParseExpositionString(fixtureExposition)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.TickNow(); err != nil {
		t.Fatalf("TickNow: %v", err)
	}
	o := e.Status().Objectives[0]
	if o.Good != 90 || o.Total != 100 {
		t.Fatalf("objective after source tick = %+v, want 90/100", o)
	}

	noSrc := tightEngine(t)
	if err := noSrc.TickNow(); err == nil {
		t.Fatal("TickNow without a source succeeded")
	}
}

func TestEngineServeHTTP(t *testing.T) {
	e := tightEngine(t)
	e.TickCounters([]Counters{{Good: 10, Total: 10}})
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"spec": "tight"`) {
		t.Fatalf("body missing spec name:\n%s", rec.Body.String())
	}
}

func TestEngineRingBounded(t *testing.T) {
	e := tightEngine(t)
	cum := Counters{}
	for i := 0; i < 100; i++ {
		cum.Good += 10
		cum.Total += 10
		e.TickCounters([]Counters{cum})
	}
	e.mu.Lock()
	n := len(e.ring)
	e.mu.Unlock()
	// Longest window is 4s at 1s ticks → 4 ticks + 1 baseline slot.
	if n > 5 {
		t.Fatalf("ring grew to %d entries, want <= 5", n)
	}
	if got := e.Status().Tick; got != 100 {
		t.Fatalf("tick = %d, want 100", got)
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("engine without spec built clean")
	}
	if _, err := NewEngine(Config{Spec: &Spec{}}); err == nil {
		t.Fatal("engine with invalid spec built clean")
	}
	huge := tightSpec()
	huge.Objectives[0].WindowS = 1 << 22
	if _, err := NewEngine(Config{Spec: huge, IntervalS: 1}); err == nil {
		t.Fatal("engine with oversized ring built clean")
	}
}

func TestEngineScopeInPage(t *testing.T) {
	e, err := NewEngine(Config{Spec: tightSpec(), IntervalS: 1, Scope: "replica r0"})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	e.WriteJSON(&b)
	if !strings.Contains(b.String(), `"scope": "replica r0"`) {
		t.Fatalf("scope missing:\n%s", b.String())
	}
}

func TestEnginePartialWindowWarmup(t *testing.T) {
	// With only one tick of history, every window falls back to the
	// zero baseline — the delta is the lifetime total, not zero.
	e := tightEngine(t)
	e.TickCounters([]Counters{{Good: 100, Total: 100}})
	for _, bw := range e.Status().Objectives[0].Burn {
		if bw.Total != 100 {
			t.Fatalf("window %s total = %v, want 100 (partial-window fallback)", bw.Window, bw.Total)
		}
	}
}

func ExampleEngine_WriteJSON() {
	e, _ := NewEngine(Config{Spec: &Spec{
		Name:    "example",
		Windows: Windows{FastShortS: 1, FastLongS: 1, FastBurn: 5, SlowShortS: 1, SlowLongS: 1, SlowBurn: 2},
		Objectives: []Objective{
			{Name: "avail", Kind: KindAvailability, Target: 0.99, WindowS: 1},
		},
	}, IntervalS: 1})
	e.TickCounters([]Counters{{Good: 99, Total: 100}})
	st := e.Status().Objectives[0]
	fmt.Printf("sli=%.2f burn(fast_short)=%.0f alerting=%v\n", st.SLI, st.Burn[0].Rate, st.Alerting)
	// Output: sli=0.99 burn(fast_short)=1 alerting=false
}
