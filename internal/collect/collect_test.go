package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/scaler"
	"polygraph/internal/ua"
)

// testModel trains a small model once for the whole package.
func testModel(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Sessions = 20000
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
	m, _, err := core.Train(d.Samples(), tc)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func payloadFor(d *dataset.Dataset, rel ua.Release, claimed ua.Release) *fingerprint.Payload {
	vec := d.Extractor.Extract(browser.Profile{Release: rel, OS: ua.Windows10})
	p := &fingerprint.Payload{
		UserAgent: ua.UserAgent(claimed, ua.Windows10),
		Values:    fingerprint.VectorToValues(vec),
	}
	copy(p.SessionID[:], []byte("0123456789abcdef"))
	return p
}

func TestNewServerRequiresModel(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestEndToEndHonestAndLying(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	dec, err := client.Submit(context.Background(), honest)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Flagged {
		t.Fatalf("honest session flagged: %+v", dec)
	}

	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	dec, err = client.Submit(context.Background(), lying)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Flagged || dec.RiskFactor != ua.MaxDistance {
		t.Fatalf("cross-vendor lie decision: %+v", dec)
	}
	if dec.SessionID != "30313233343536373839616263646566" {
		t.Fatalf("session id = %s", dec.SessionID)
	}

	ex := obs.ParseExpositionString(scrapeMetrics(t, ts.URL))
	if received, flagged := ex.Sum(obs.FamCollections.Name), ex.Sum(obs.FamFlagged.Name); received != 2 || flagged != 1 {
		t.Fatalf("received %g flagged %g, want 2 and 1", received, flagged)
	}
	// The 100 ms budget (§3) with enormous headroom.
	name := obs.FamScoreDuration.Name
	if avg := ex.Sum(name+"_sum") / ex.Sum(name+"_count"); avg > 100000 {
		t.Fatalf("avg scoring latency %v µs exceeds 100 ms", avg)
	}
}

func TestJSONEndpoint(t *testing.T) {
	m, d := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	vec := d.Extractor.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Firefox, Version: 110}, OS: ua.Windows10})
	body, _ := json.Marshal(map[string]any{
		"sid": "00112233445566778899aabbccddeeff",
		"ua":  ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Windows10),
		"v":   fingerprint.VectorToValues(vec),
	})
	resp, err := http.Post(ts.URL+"/v1/collect-json", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dec Decision
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if dec.Flagged {
		t.Fatalf("honest JSON session flagged: %+v", dec)
	}
}

func TestServerRejectsMalformed(t *testing.T) {
	m, _ := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		path string
		body string
		ct   string
	}{
		{"/v1/collect", "garbage", "application/octet-stream"},
		{"/v1/collect-json", "{not json", "application/json"},
		{"/v1/collect-json", `{"ua":"x","v":[1,2]}`, "application/json"}, // wrong width
	}
	for i, c := range cases {
		resp, err := http.Post(ts.URL+c.path, c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("case %d accepted", i)
		}
	}
	if got := obs.ParseExpositionString(srv.MetricsText()).Sum(obs.FamRejected.Name); got != 3 {
		t.Fatalf("rejected counter = %g", got)
	}
}

// unplannable is m with a scaler fitted on 10 of its features: a model
// whose components disagree, which core refuses to score.
func unplannable(m *core.Model) *core.Model {
	return &core.Model{
		Features:       m.Features,
		Scaler:         &scaler.Standard{Means: make([]float64, 10), Stds: make([]float64, 10)},
		PCA:            m.PCA,
		KMeans:         m.KMeans,
		ClusterUAs:     m.ClusterUAs,
		UACluster:      m.UACluster,
		VersionDivisor: m.VersionDivisor,
	}
}

// TestUnplannableModelIs500Score: core refuses a model it cannot plan
// with ErrNotTrained, which is the server's fault, so both routes answer
// a payload of the model's width with 500 and count a score reject,
// never a 400 bad_dim that blames the client.
func TestUnplannableModelIs500Score(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: unplannable(m)})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)
	binary, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(jsonPayload{SessionID: fmt.Sprintf("%x", p.SessionID[:]), UserAgent: p.UserAgent, Values: p.Values})
	if err != nil {
		t.Fatal(err)
	}
	for route, body := range map[string][]byte{EndpointBinary: binary, EndpointJSON: jsonBody} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "scaler") {
			t.Fatalf("%s: %d %q, want 500 naming the scaler", route, rec.Code, rec.Body.String())
		}
	}
	if score, badDim := srv.rejects[reasonScore].Load(), srv.rejects[reasonBadDim].Load(); score != 2 || badDim != 0 {
		t.Fatalf("rejects: score %d, bad_dim %d; want 2 and 0", score, badDim)
	}
}

// TestUnplannableModelChecksFramingFirst: a body that is not a payload
// is refused for what it is before the model is asked for its plan, on
// both routes — a frame whose header is malformed is 400 decode, as a
// body that is not JSON is 400 bad_json — while a frame whose header
// checks out reaches the model, which refuses it 500 score even when its
// class bytes would not decode.
func TestUnplannableModelChecksFramingFirst(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: unplannable(m)})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	frame, err := payloadFor(d, chrome, chrome).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, endpoint string
		body           []byte
		code           int
		reason         string
	}{
		{"bad magic", EndpointBinary, append([]byte("xx"), frame[2:]...), http.StatusBadRequest, "decode"},
		{"not JSON", EndpointJSON, []byte("{"), http.StatusBadRequest, "bad_json"},
		{"a trailing byte", EndpointBinary, append(frame[:len(frame):len(frame)], 0), http.StatusInternalServerError, "score"},
	} {
		if code, reason, reply := routeAnswer(srv, c.endpoint, c.body); code != c.code || reason != c.reason {
			t.Fatalf("%s: %d %q %q, want %d %q", c.name, code, reason, reply, c.code, c.reason)
		}
	}
}

func TestServerRejectsOversized(t *testing.T) {
	m, _ := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/collect", "application/octet-stream",
		bytes.NewReader(make([]byte, maxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestUnparseableUAIsMaxRisk(t *testing.T) {
	m, d := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	p := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	p.UserAgent = "curl/8.0"
	dec, err := NewClient(ts.URL).Submit(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Flagged || dec.RiskFactor != ua.MaxDistance {
		t.Fatalf("junk UA decision: %+v", dec)
	}
}

func TestScriptEndpoint(t *testing.T) {
	m, _ := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	script, err := NewClient(ts.URL).FetchScript(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		"Object.getOwnPropertyNames",
		"Element",
		"hasOwnProperty",
		"deviceMemory",
		"sendBeacon",
		"/v1/collect-json",
	} {
		if !strings.Contains(script, needle) {
			t.Fatalf("script missing %q", needle)
		}
	}
	// Every Table 8 feature must be probed.
	for _, f := range fingerprint.Table8() {
		if !strings.Contains(script, f.Proto) {
			t.Fatalf("script missing prototype %s", f.Proto)
		}
	}
}

func TestHealthz(t *testing.T) {
	m, _ := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestCollectionScriptShape(t *testing.T) {
	script := CollectionScript(fingerprint.Table8(), "/ingest")
	if len(script) > 4096 {
		t.Fatalf("script is %d bytes; the whole collection story is about being tiny", len(script))
	}
	if !strings.Contains(script, "/ingest") {
		t.Fatal("endpoint not embedded")
	}
}

func BenchmarkServerScore(b *testing.B) {
	m, d := testModel(b)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	p := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Submit(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestServerRateLimiting(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m, RateLimitPerSec: 1.5}) // a burst of 3
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	p := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	ok, limited := 0, 0
	for i := 0; i < 10; i++ {
		if _, err := client.Submit(context.Background(), p); err == nil {
			ok++
		} else if strings.Contains(err.Error(), "429") {
			limited++
		} else {
			t.Fatal(err)
		}
	}
	if ok < 3 || limited == 0 {
		t.Fatalf("ok=%d limited=%d", ok, limited)
	}
	// The metrics endpoint stays reachable.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d under rate limiting", resp.StatusCode)
	}
}

func TestSwapModelHotReload(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	p := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})

	// Swap under concurrent traffic: every decision must be coherent
	// (an honest session is never flagged by either model).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dec, err := client.Submit(context.Background(), p)
				if err != nil {
					errCh <- err
					return
				}
				if dec.Flagged {
					errCh <- fmt.Errorf("honest session flagged mid-swap: %+v", dec)
					return
				}
			}
		}()
	}
	// Retrain (same data, different seed) and swap several times.
	for i := 0; i < 3; i++ {
		tc := core.DefaultTrainConfig()
		tc.Seed = uint64(100 + i)
		tc.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
		m2, _, err := core.Train(d.Samples(), tc)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.SwapModel(m2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if srv.Model() == m {
		t.Fatal("model not swapped")
	}
	if err := srv.SwapModel(nil); err == nil {
		t.Fatal("nil swap accepted")
	}
}

// TestServerLedgersFlaggedDecisions: every flagged verdict reaches the
// audit ledger, which is the one place a flagged verdict is written,
// even with benign verdicts sampled out of it.
func TestServerLedgersFlaggedDecisions(t *testing.T) {
	m, d := testModel(t)
	dir := t.TempDir()
	led, err := audit.Open(audit.Config{Dir: dir, SampleBenign: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	srv, err := NewServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	for i := 0; i < 3; i++ {
		if _, err := client.Submit(context.Background(), honest); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Submit(context.Background(), lying); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	flagged := 0
	if _, err := audit.Scan(dir, "", func(rec audit.Record) error {
		if rec.Verdict.Flagged {
			flagged++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if flagged != 3 {
		t.Fatalf("ledgered %d flagged decisions, want 3", flagged)
	}
	if queue := fetchFlagged(t, ts.URL, ""); len(queue) != 3 {
		t.Fatalf("/v1/flagged holds %d decisions, want 3", len(queue))
	}
}

func TestMetricsEndpoint(t *testing.T) {
	m, d := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	if _, err := client.Submit(context.Background(), lying); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, needle := range []string{
		"polygraph_collections_total 1",
		"polygraph_flagged_total 1",
		"# TYPE polygraph_model_clusters gauge",
		"polygraph_model_accuracy",
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("metrics missing %q in:\n%s", needle, out)
		}
	}
}

// TestDriftRetrainHotSwapEndToEnd exercises the full operational loop:
// deploy a model, observe drift-window traffic through the service,
// detect drift, retrain, hot-swap, and verify the shifted release scores
// clean on the new model.
func TestDriftRetrainHotSwapEndToEnd(t *testing.T) {
	// 1. Deploy a model trained on the March–July window.
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)

	// 2. Drift-window traffic arrives: Firefox 119 sessions are flagged
	// by the deployed model (their surface moved clusters).
	driftCfg := dataset.DefaultConfig()
	driftCfg.Window = dataset.DriftWindow
	driftCfg.MaxVersion = 119
	driftCfg.Sessions = 30000
	driftData, err := dataset.Generate(driftCfg)
	if err != nil {
		t.Fatal(err)
	}
	ff119 := ua.Release{Vendor: ua.Firefox, Version: 119}
	sessions := driftData.SessionsForRelease(ff119)
	if len(sessions) < 10 {
		t.Fatalf("only %d Firefox 119 sessions", len(sessions))
	}
	flaggedBefore := 0
	for _, s := range sessions[:10] {
		p := &fingerprint.Payload{UserAgent: s.UAString, Values: fingerprint.VectorToValues(s.Vector)}
		dec, err := client.Submit(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Flagged {
			flaggedBefore++
		}
	}
	if flaggedBefore == 0 {
		t.Fatal("old model did not flag any Firefox 119 session — no drift pressure")
	}

	// 3. Retrain on the drift window and hot-swap.
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: driftData.Extractor, OS: ua.Windows10}
	fresh, _, err := core.Train(driftData.Samples(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SwapModel(fresh); err != nil {
		t.Fatal(err)
	}

	// 4. The same sessions now score clean.
	flaggedAfter := 0
	for _, s := range sessions[:10] {
		p := &fingerprint.Payload{UserAgent: s.UAString, Values: fingerprint.VectorToValues(s.Vector)}
		dec, err := client.Submit(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Flagged {
			flaggedAfter++
		}
	}
	if flaggedAfter >= flaggedBefore {
		t.Fatalf("retrain did not help: %d flagged before, %d after", flaggedBefore, flaggedAfter)
	}
	_ = d
}

// fetchFlagged reads the /v1/flagged queue.
func fetchFlagged(t *testing.T, base, query string) []audit.Record {
	t.Helper()
	resp, err := http.Get(base + "/v1/flagged" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/flagged%s: status %d", query, resp.StatusCode)
	}
	var out []audit.Record
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlaggedQueryEndpoint: /v1/flagged is the flagged records of the
// ledger's recent ring, riskiest first and newest first within a risk
// factor, filtered by min_risk; without a ledger it is a 404.
func TestFlaggedQueryEndpoint(t *testing.T) {
	m, d := testModel(t)
	bare, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/flagged", nil))
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "audit ledger not configured") {
		t.Fatalf("/v1/flagged without a ledger: %d %q", rec.Code, rec.Body.String())
	}

	led, err := audit.Open(audit.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	srv, err := NewServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	// Cross-vendor lies (risk 20), a near-version lie and an honest
	// session, in this order.
	sends := []struct {
		id      string
		claimed ua.Release
	}{
		{"cross-vendor-1..", ua.Release{Vendor: ua.Firefox, Version: 110}},
		{"near-version....", ua.Release{Vendor: ua.Chrome, Version: 60}},
		{"honest..........", chrome},
		{"cross-vendor-2..", ua.Release{Vendor: ua.Firefox, Version: 110}},
	}
	for _, s := range sends {
		p := payloadFor(d, chrome, s.claimed)
		copy(p.SessionID[:], s.id)
		if _, err := client.Submit(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	hexID := func(s string) string { return fmt.Sprintf("%x", s) }

	queue := fetchFlagged(t, ts.URL, "")
	var got []string
	for _, r := range queue {
		if !r.Verdict.Flagged || r.Explanation != nil {
			t.Fatalf("queue record %+v: want flagged, without explanation", r)
		}
		got = append(got, r.SessionID)
	}
	want := []string{hexID("cross-vendor-2.."), hexID("cross-vendor-1.."), hexID("near-version....")}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("queue order %v, want %v (risk descending, then newest first)", got, want)
	}
	if queue[0].Verdict.RiskFactor != ua.MaxDistance || queue[2].Verdict.RiskFactor >= ua.MaxDistance {
		t.Fatalf("queue risks %d, %d, %d", queue[0].Verdict.RiskFactor, queue[1].Verdict.RiskFactor, queue[2].Verdict.RiskFactor)
	}
	high := fetchFlagged(t, ts.URL, fmt.Sprintf("?min_risk=%d", ua.MaxDistance))
	if len(high) != 2 || high[0].SessionID != want[0] || high[1].SessionID != want[1] {
		t.Fatalf("min_risk filter: %+v", high)
	}
	for _, q := range []string{"junk", "-1"} {
		resp, err := http.Get(ts.URL + "/v1/flagged?min_risk=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("min_risk=%s status %d", q, resp.StatusCode)
		}
	}
}

// TestSubmitToClosedListenerUnwraps pins the client's error contract: a
// refused dial is a *ClientError of kind FailDown, and errors.As reaches
// the transport's own error through ClientError.Unwrap, so a caller can
// tell a refused connection from a timeout without parsing the message.
func TestSubmitToClosedListenerUnwraps(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	_, err = NewClient("http://"+addr).Submit(context.Background(), &fingerprint.Payload{UserAgent: "Chrome 112"})
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Kind != FailDown || ce.Op != "submit" {
		t.Fatalf("Submit to a closed listener: %v, want a FailDown *ClientError", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		t.Fatalf("errors.As found no net.Error under %v", err)
	}
	var op *net.OpError
	if !errors.As(err, &op) || op.Op != "dial" {
		t.Fatalf("errors.As found no dial *net.OpError under %v", err)
	}
	if errors.Unwrap(err) != ce.Err {
		t.Fatalf("Unwrap = %v, want the transport error %v", errors.Unwrap(err), ce.Err)
	}
}
