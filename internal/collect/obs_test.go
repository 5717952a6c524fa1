package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// scrapeMetrics fetches the /metrics page of a test server.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExpositionLints serves real traffic (HTTP + TCP + drift +
// train stages) and requires the full /metrics page to pass the
// exposition linter with every contract family present.
func TestMetricsExpositionLints(t *testing.T) {
	m, d := testModel(t)
	driftMon, err := obs.NewDriftMonitor(obs.DriftConfig{
		Features: fingerprint.Names(m.Features),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := driftMon.SetBaseline(m.Baseline); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Model: m, Drift: driftMon, TraceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetModelTrainedAt(time.Unix(1700000000, 0))
	tcpSrv, err := NewTCPServer(Config{Model: m, Tracer: srv.Tracer(), Drift: driftMon})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachTCP(tcpSrv)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Enough scored requests for a drift evaluation, so that histogram,
	// counters and the drift sample move.
	client := NewClient(ts.URL)
	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	for i := 0; i < 32; i++ {
		if _, err := client.Submit(context.Background(), honest); err != nil {
			t.Fatal(err)
		}
	}
	// One reject so polygraph_rejected_total moves.
	resp, err := http.Post(ts.URL+"/v1/collect", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A drift evaluation against the model's baseline populates the PSI
	// family.
	if _, err := driftMon.Evaluate(); err != nil {
		t.Fatal(err)
	}

	expo := scrapeMetrics(t, ts.URL)
	problems, err := obs.Lint(strings.NewReader(expo),
		"polygraph_build_info",
		"polygraph_collections_total",
		"polygraph_rejected_total",
		"polygraph_score_duration_microseconds",
		"polygraph_model_trained_timestamp_seconds",
		"polygraph_feature_psi",
		"polygraph_drift_alert",
		"polygraph_tcp_scored_total",
		"polygraph_tcp_flagged_total",
		"polygraph_tcp_bad_handshakes_total",
		"polygraph_tcp_bad_frames_total",
		"polygraph_tcp_batch_size",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("/metrics fails lint:\n%v\n--- exposition ---\n%s", problems, expo)
	}
	if !strings.Contains(expo, `polygraph_rejected_total{reason="decode"} 1`) {
		t.Fatalf("decode reject not counted:\n%s", expo)
	}
	if !strings.Contains(expo, "polygraph_model_trained_timestamp_seconds 1.7e+09") {
		t.Fatalf("trained timestamp missing:\n%s", expo)
	}
}

// TestTraceIDPropagation pins the deterministic trace-ID contract: the
// ID in the slow-request log, the ID in /debug/traces, and the ID
// predicted by an independent tracer with the same seed must all
// agree.
func TestTraceIDPropagation(t *testing.T) {
	m, d := testModel(t)
	var logBuf bytes.Buffer
	const seed = 42
	srv, err := NewServer(Config{
		Model:       m,
		Logger:      obs.NewLogger(&syncWriter{w: &logBuf}, true),
		TraceSeed:   seed,
		SlowRequest: time.Nanosecond, // every request logs as slow
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := NewClient(ts.URL)
	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	if _, err := client.Submit(context.Background(), honest); err != nil {
		t.Fatal(err)
	}

	want := traceIDs(seed, 1)[0]

	// /debug/traces must report the same ID with its spans.
	resp, err := http.Get(ts.URL + "/debug/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Last []struct {
			ID       string `json:"id"`
			Endpoint string `json:"endpoint"`
			Status   string `json:"status"`
			Spans    []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"last"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Last) != 1 {
		t.Fatalf("expected 1 trace, got %d", len(page.Last))
	}
	tr := page.Last[0]
	if tr.ID != want {
		t.Fatalf("/debug/traces ID %s, predicted %s", tr.ID, want)
	}
	if tr.Endpoint != EndpointBinary || tr.Status != "ok" {
		t.Fatalf("trace %+v", tr)
	}
	spanNames := map[string]bool{}
	for _, sp := range tr.Spans {
		spanNames[sp.Name] = true
	}
	if !spanNames["decode"] || !spanNames["score"] {
		t.Fatalf("trace spans %v missing decode/score", tr.Spans)
	}

	// The slow-request log line carries the same trace_id.
	var rec struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "slow request" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no slow-request record in log: %q", logBuf.String())
	}
	if rec.TraceID != want {
		t.Fatalf("slow log trace_id %s, predicted %s", rec.TraceID, want)
	}
}

// syncWriter serializes concurrent slog writes in tests.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestRejectReasonTaxonomy drives each reject cause and checks the
// labeled counter moves on the right series.
func TestRejectReasonTaxonomy(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("/v1/collect", "garbage")    // decode
	post("/v1/collect-json", "{nope") // bad_json
	// bad_version: a valid frame with a bumped version byte.
	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	enc, err := honest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	enc[2] = 99
	post("/v1/collect", string(enc))

	expo := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`polygraph_rejected_total{reason="decode"} 1`,
		`polygraph_rejected_total{reason="bad_json"} 1`,
		`polygraph_rejected_total{reason="bad_version"} 1`,
		`polygraph_rejected_total{reason="rate_limit"} 0`,
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("missing %q in:\n%s", want, expo)
		}
	}
}

// TestAvgGaugeZeroTraffic pins the torn-stats fix: with zero scored
// requests the latency histogram's sum and count on /metrics are exactly
// 0, so a mean derived from them is 0/0 for the reader to guard, never
// garbage. The retired /v1/stats route answers 404.
func TestAvgGaugeZeroTraffic(t *testing.T) {
	m, _ := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ex := obs.ParseExpositionString(scrapeMetrics(t, ts.URL))
	name := obs.FamScoreDuration.Name
	if sum, count := ex.Sum(name+"_sum"), ex.Sum(name+"_count"); sum != 0 || count != 0 {
		t.Fatalf("zero-traffic %s: sum=%v count=%v", name, sum, count)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/stats status %d, want 404", resp.StatusCode)
	}
}

// TestTraceRingSwapModelHammer runs concurrent scoring traffic,
// /debug/traces readers, /metrics scrapes, and SwapModel calls; run
// with -race this is the data-race gate for the observability paths.
func TestTraceRingSwapModelHammer(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m, TraceRingSize: 8, TraceSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	body, err := honest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	iters := 50
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*3+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(ts.URL+"/v1/collect", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("score returned %d", resp.StatusCode)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/debug/traces")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := srv.SwapModel(m); err != nil {
				errs <- err
				return
			}
			srv.SetModelTrainedAt(time.Now())
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tracePageOf(t, srv, 1).Count == 0 {
		t.Fatal("no traces retained after hammer")
	}
}
