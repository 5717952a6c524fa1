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

	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
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

	// Flagged session retained.
	if srv.Store().Len() != 1 {
		t.Fatalf("store has %d entries", srv.Store().Len())
	}
	stats, err := client.FetchStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Received != 2 || stats.Flagged != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The 100 ms budget (§3) with enormous headroom.
	if stats.AvgScoreUs > 100000 {
		t.Fatalf("avg scoring latency %v µs exceeds 100 ms", stats.AvgScoreUs)
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
	if srv.Snapshot().Rejected != 3 {
		t.Fatalf("rejected counter = %d", srv.Snapshot().Rejected)
	}
}

func TestServerRejectsOversized(t *testing.T) {
	m, _ := testModel(t)
	srv, _ := NewServer(Config{Model: m, MaxBodyBytes: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/collect", "application/octet-stream",
		bytes.NewReader(make([]byte, 1024)))
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

func TestMemoryStoreRing(t *testing.T) {
	st := NewMemoryStore(16) // 1 per shard
	for i := 0; i < 100; i++ {
		st.Record(Decision{SessionID: string(rune('a' + i%26)), RiskFactor: i})
	}
	if st.Len() == 0 || st.Len() > 16 {
		t.Fatalf("store len = %d", st.Len())
	}
	if len(st.All()) != st.Len() {
		t.Fatal("All() inconsistent with Len()")
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
	srv, err := NewServer(Config{Model: m, RateLimitPerSec: 1, RateBurst: 3})
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
	// Stats and script endpoints stay reachable.
	if _, err := client.FetchStats(context.Background()); err != nil {
		t.Fatal(err)
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

func TestServerJournalsFlaggedDecisions(t *testing.T) {
	m, d := testModel(t)
	journal, err := OpenJournal(t.TempDir(), "decisions", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Model: m, Journal: journal})
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
	if err := journal.Sync(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := journal.Replay(func(dec Decision) bool {
		if !dec.Flagged {
			t.Fatal("journal contains unflagged decision")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("journaled %d decisions, want 3", n)
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

func TestFlaggedQueryEndpoint(t *testing.T) {
	m, d := testModel(t)
	srv, _ := NewServer(Config{Model: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	// One cross-vendor lie (risk 20) and one near-version lie.
	crossVendor := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	nearVersion := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 60})
	if _, err := client.Submit(context.Background(), crossVendor); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(context.Background(), nearVersion); err != nil {
		t.Fatal(err)
	}

	fetch := func(q string) []Decision {
		resp, err := http.Get(ts.URL + "/v1/flagged" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out []Decision
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	all := fetch("")
	if len(all) != 2 {
		t.Fatalf("%d flagged", len(all))
	}
	// Sorted by descending risk.
	if all[0].RiskFactor < all[1].RiskFactor {
		t.Fatal("not sorted by risk")
	}
	high := fetch("?min_risk=20")
	if len(high) != 1 || high[0].RiskFactor != ua.MaxDistance {
		t.Fatalf("min_risk filter: %+v", high)
	}
	resp, err := http.Get(ts.URL + "/v1/flagged?min_risk=junk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk min_risk status %d", resp.StatusCode)
	}
}
