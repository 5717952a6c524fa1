package collect

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polygraph/internal/obs"
	"polygraph/internal/slo"
	"polygraph/internal/ua"
)

// collectSLOSpec is a tight spec over the HTTP ingest path: 99%
// availability and 95% of scored requests under thresholdUs, evaluated
// over tiny windows so one tick is decisive.
func collectSLOSpec(thresholdUs float64) *slo.Spec {
	return &slo.Spec{
		Name:    "collect-test",
		Windows: slo.Windows{FastShortS: 1, FastLongS: 2, FastBurn: 5, SlowShortS: 2, SlowLongS: 4, SlowBurn: 2},
		Objectives: []slo.Objective{
			{Name: "avail", Kind: slo.KindAvailability, Target: 0.99, WindowS: 4},
			{Name: "lat", Kind: slo.KindLatency, Endpoint: EndpointBinary, Target: 0.95, ThresholdUs: thresholdUs, WindowS: 4},
		},
	}
}

// TestDebugSLOEndpoint pins the wiring contract: /debug/slo is 404
// until SetSLO attaches an engine, then serves the engine's JSON page,
// and the engine's self-scrape source reads MetricsText without a
// loopback round trip.
func TestDebugSLOEndpoint(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no engine attached: status = %d, want 404", resp.StatusCode)
	}

	eng, err := slo.NewEngine(slo.Config{
		Spec:      collectSLOSpec(1 << 30),
		IntervalS: 1,
		Scope:     "test-server",
		Source: func() *obs.Exposition {
			return obs.ParseExpositionString(srv.MetricsText())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetSLO(eng)
	if srv.SLO() != eng {
		t.Fatal("SLO() does not return the attached engine")
	}

	client := NewClient(ts.URL)
	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	for i := 0; i < 5; i++ {
		if _, err := client.Submit(context.Background(), honest); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.TickNow(); err != nil {
		t.Fatalf("TickNow over live exposition: %v", err)
	}

	resp, err = http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo status = %d", resp.StatusCode)
	}
	page := string(body)
	for _, want := range []string{`"spec": "collect-test"`, `"scope": "test-server"`, `"tick": 1`} {
		if !strings.Contains(page, want) {
			t.Fatalf("/debug/slo missing %s:\n%s", want, page)
		}
	}
	st := eng.Status().Objectives[0]
	if st.Total != 5 || st.Good != 5 || st.Alerting {
		t.Fatalf("availability after clean traffic = %+v, want 5/5 green", st)
	}
}

// TestMetricsIncludesSLOFamilies requires the /metrics page of a server
// with an attached engine to carry the polygraph_slo_* families, the
// runtime self-telemetry families, and the uptime gauges — and to pass
// the exposition linter with all of them on the required list.
func TestMetricsIncludesSLOFamilies(t *testing.T) {
	m, _ := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.NewEngine(slo.Config{Spec: collectSLOSpec(1 << 30), IntervalS: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetSLO(eng)
	expo := srv.MetricsText()
	problems, err := obs.Lint(strings.NewReader(expo),
		"polygraph_uptime_seconds",
		"polygraph_process_start_timestamp_seconds",
		"polygraph_go_goroutines",
		"polygraph_go_heap_live_bytes",
		"polygraph_go_gc_cycles_total",
		"polygraph_go_gc_pause_seconds",
		"polygraph_go_sched_latency_seconds",
		"polygraph_slo_target",
		"polygraph_slo_sli",
		"polygraph_slo_error_budget_remaining",
		"polygraph_slo_burn_rate",
		"polygraph_slo_alert",
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("/metrics with SLO engine fails lint: %s", p)
	}
}

// TestScoreDelayFaultDrill is the in-package seed of the acceptance
// fault test: Config.ScoreDelay pushes measured ingest latency past a
// tight latency objective, and one engine tick over the live exposition
// trips the multi-window burn-rate alert and flips the alert gauge.
func TestScoreDelayFaultDrill(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m, ScoreDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 1024µs sits well under the injected 2ms delay: every
	// scored request lands in a bucket above the threshold.
	eng, err := slo.NewEngine(slo.Config{Spec: collectSLOSpec(1024), IntervalS: 1, Source: func() *obs.Exposition {
		return obs.ParseExpositionString(srv.MetricsText())
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetSLO(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := NewClient(ts.URL)
	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	for i := 0; i < 8; i++ {
		if _, err := client.Submit(context.Background(), honest); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.TickNow(); err != nil {
		t.Fatal(err)
	}

	lat := eng.Status().Objectives[1]
	if lat.Total != 8 || lat.Good != 0 {
		t.Fatalf("latency SLI counters = %+v, want 0/8 under a 2ms injected delay", lat)
	}
	if !lat.Alerting || !eng.Status().Alerting {
		t.Fatalf("fault drill did not trip the burn-rate alert: %+v", lat)
	}
	if !strings.Contains(srv.MetricsText(), `polygraph_slo_alert{objective="lat"} 1`) {
		t.Fatalf("alert gauge not exported:\n%s", srv.MetricsText())
	}
}
