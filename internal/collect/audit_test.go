package collect

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// auditedServer builds an HTTP server wired to a fresh ledger in a temp
// dir, returning both plus the test base URL.
func auditedServer(t *testing.T, sampleBenign int) (*Server, *audit.Ledger, *httptest.Server) {
	t.Helper()
	m, _ := testModel(t)
	led, err := audit.Open(audit.Config{Dir: t.TempDir(), SampleBenign: sampleBenign})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := led.Close(); err != nil {
			t.Errorf("close ledger: %v", err)
		}
	})
	return srv, led, ts
}

func TestHTTPScoreRecordsAudit(t *testing.T) {
	srv, led, ts := auditedServer(t, 1)
	_, d := testModel(t)
	client := NewClient(ts.URL)

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	if _, err := client.Submit(context.Background(), honest); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(context.Background(), lying); err != nil {
		t.Fatal(err)
	}

	c := led.Counters()
	if c.Records != 2 || c.Dropped != 0 {
		t.Fatalf("counters = %+v, want 2 records 0 dropped", c)
	}
	recent := led.Recent(10, "", "")
	if len(recent) != 2 {
		t.Fatalf("recent has %d records", len(recent))
	}
	// Newest first: the lying session leads.
	if !recent[0].Verdict.Flagged || recent[1].Verdict.Flagged {
		t.Fatalf("verdict order wrong: %+v / %+v", recent[0].Verdict, recent[1].Verdict)
	}
	wantHash := srv.ModelHash()
	if wantHash == "" {
		t.Fatal("server model hash empty")
	}
	for i, rec := range recent {
		if rec.ModelHash != wantHash {
			t.Fatalf("record %d model hash %q != deployed %q", i, rec.ModelHash, wantHash)
		}
		if rec.TraceID == "" {
			t.Fatalf("record %d has no trace ID", i)
		}
		if rec.Endpoint != EndpointBinary {
			t.Fatalf("record %d endpoint = %q", i, rec.Endpoint)
		}
		if len(rec.Vector) == 0 {
			t.Fatalf("record %d vector empty", i)
		}
		// The request path stores inputs only; the explanation is derived
		// on read from the model archived at deployment.
		if rec.Explanation != nil {
			t.Fatalf("record %d stores an explanation", i)
		}
		if err := led.Explain(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want, err := srv.Model().ExplainResult(rec.Vector, rec.UserAgent, rec.Verdict.Result(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Explanation, want) {
			t.Fatalf("record %d derived explanation:\n got %+v\nwant %+v", i, rec.Explanation, want)
		}
	}
	if recent[0].Verdict.RiskFactor != ua.MaxDistance {
		t.Fatalf("flagged record risk = %d", recent[0].Verdict.RiskFactor)
	}
}

func TestHTTPAuditSampling(t *testing.T) {
	_, led, ts := auditedServer(t, 3)
	_, d := testModel(t)
	client := NewClient(ts.URL)

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	for i := 0; i < 6; i++ {
		if _, err := client.Submit(context.Background(), honest); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Submit(context.Background(), lying); err != nil {
		t.Fatal(err)
	}

	c := led.Counters()
	// 6 benign at 1-in-3 → 2 recorded + 4 dropped; flagged always recorded.
	if c.Records != 3 || c.Dropped != 4 {
		t.Fatalf("counters = %+v, want 3 records 4 dropped", c)
	}
	if c.Records+c.Dropped != 7 {
		t.Fatalf("records+dropped = %d, want 7 scored", c.Records+c.Dropped)
	}
}

func fetchJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestDecisionsEndpoint(t *testing.T) {
	_, _, ts := auditedServer(t, 1)
	_, d := testModel(t)
	client := NewClient(ts.URL)

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	for _, p := range []*fingerprint.Payload{honest, lying, honest} {
		if _, err := client.Submit(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}

	var all []audit.Record
	if code := fetchJSON(t, ts.URL+"/debug/decisions", &all); code != http.StatusOK {
		t.Fatalf("decisions status %d", code)
	}
	if len(all) != 3 {
		t.Fatalf("%d decisions returned", len(all))
	}
	// Newest first: the last honest submit leads, the lie is in the middle.
	if all[0].Verdict.Flagged || !all[1].Verdict.Flagged || all[2].Verdict.Flagged {
		t.Fatalf("order wrong: %v %v %v", all[0].Verdict.Flagged, all[1].Verdict.Flagged, all[2].Verdict.Flagged)
	}
	for i, rec := range all {
		if rec.Explanation == nil || rec.Explanation.Verdict != rec.Verdict || len(rec.Explanation.TopFeatures) != core.DefaultExplainTopK {
			t.Fatalf("decision %d served without its derived explanation: %+v", i, rec.Explanation)
		}
	}
	// n bounds the answer; it is not an allocation size.
	var huge []audit.Record
	if code := fetchJSON(t, fmt.Sprintf("%s/debug/decisions?n=%d", ts.URL, math.MaxInt), &huge); code != http.StatusOK || len(huge) != 3 {
		t.Fatalf("n=MaxInt: status %d, %d records", code, len(huge))
	}

	var flagged []audit.Record
	if code := fetchJSON(t, ts.URL+"/debug/decisions?verdict=flagged", &flagged); code != http.StatusOK {
		t.Fatalf("flagged filter status %d", code)
	}
	if len(flagged) != 1 || !flagged[0].Verdict.Flagged {
		t.Fatalf("flagged filter returned %+v", flagged)
	}

	var benign []audit.Record
	fetchJSON(t, ts.URL+"/debug/decisions?verdict=benign", &benign)
	if len(benign) != 2 {
		t.Fatalf("benign filter returned %d records", len(benign))
	}

	var limited []audit.Record
	fetchJSON(t, ts.URL+"/debug/decisions?n=1", &limited)
	if len(limited) != 1 {
		t.Fatalf("n=1 returned %d records", len(limited))
	}

	var byTrace []audit.Record
	fetchJSON(t, ts.URL+"/debug/decisions?trace="+flagged[0].TraceID, &byTrace)
	if len(byTrace) != 1 || byTrace[0].Seq != flagged[0].Seq {
		t.Fatalf("trace filter returned %+v", byTrace)
	}

	var none []audit.Record
	if code := fetchJSON(t, ts.URL+"/debug/decisions?trace=ffffffffffffffff", &none); code != http.StatusOK || len(none) != 0 {
		t.Fatalf("unknown trace: status %d, %d records", code, len(none))
	}

	if code := fetchJSON(t, ts.URL+"/debug/decisions?n=0", nil); code != http.StatusBadRequest {
		t.Fatalf("n=0 status %d, want 400", code)
	}
	if code := fetchJSON(t, ts.URL+"/debug/decisions?n=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("n=bogus status %d, want 400", code)
	}
	if code := fetchJSON(t, ts.URL+"/debug/decisions?verdict=suspicious", nil); code != http.StatusBadRequest {
		t.Fatalf("bad verdict status %d, want 400", code)
	}
}

func TestDecisionsEndpointWithoutLedger(t *testing.T) {
	m, _ := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code := fetchJSON(t, ts.URL+"/debug/decisions", nil); code != http.StatusNotFound {
		t.Fatalf("status %d without ledger, want 404", code)
	}
}

func TestDebugIndexPage(t *testing.T) {
	m, _ := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"/debug/traces", "/debug/decisions", "/debug/bundle", "/metrics",
		"/v1/stats", "/v1/flagged", "/admin/model/info", "/debug/pprof/", "/debug/vars", "/healthz",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("index missing %q:\n%s", want, body)
		}
	}

	// Unknown /debug/ paths are not swallowed by the index handler.
	resp, err = http.Get(ts.URL + "/debug/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/nonsense status %d, want 404", resp.StatusCode)
	}
}

func metricValue(t *testing.T, baseURL, family string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, family+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(family)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

func TestAuditMetricsFamilies(t *testing.T) {
	families := []string{
		"polygraph_audit_records_total",
		"polygraph_audit_dropped_total",
		"polygraph_audit_bytes_total",
	}

	// Without a ledger the families still exist (zero), so a `polygraphctl lint`
	// -require list holds in every deployment shape.
	m, _ := testModel(t)
	bare, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	tsBare := httptest.NewServer(bare)
	defer tsBare.Close()
	for _, fam := range families {
		v, ok := metricValue(t, tsBare.URL, fam)
		if !ok {
			t.Fatalf("%s missing without ledger", fam)
		}
		if v != 0 {
			t.Fatalf("%s = %g without ledger, want 0", fam, v)
		}
	}

	_, _, ts := auditedServer(t, 1)
	_, d := testModel(t)
	client := NewClient(ts.URL)
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	if _, err := client.Submit(context.Background(), lying); err != nil {
		t.Fatal(err)
	}
	recs, ok := metricValue(t, ts.URL, "polygraph_audit_records_total")
	if !ok || recs != 1 {
		t.Fatalf("records_total = %g (present=%v), want 1", recs, ok)
	}
	bytesV, ok := metricValue(t, ts.URL, "polygraph_audit_bytes_total")
	if !ok || bytesV <= 0 {
		t.Fatalf("bytes_total = %g (present=%v), want > 0", bytesV, ok)
	}
}

func TestTCPScoreRecordsAudit(t *testing.T) {
	m, d := testModel(t)
	led, err := audit.Open(audit.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	srv, err := NewTCPServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	client, err := DialTCP(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	if _, err := client.SubmitBatch([]*fingerprint.Payload{honest, lying}); err != nil {
		t.Fatal(err)
	}

	c := led.Counters()
	if c.Records != 2 {
		t.Fatalf("counters = %+v, want 2 records", c)
	}
	wantHash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	recent := led.Recent(10, "", "")
	if len(recent) != 2 {
		t.Fatalf("recent has %d records", len(recent))
	}
	for i, rec := range recent {
		if rec.Endpoint != EndpointTCP {
			t.Fatalf("record %d endpoint = %q, want %q", i, rec.Endpoint, EndpointTCP)
		}
		if rec.ModelHash != wantHash {
			t.Fatalf("record %d model hash %q != %q", i, rec.ModelHash, wantHash)
		}
		if rec.TraceID == "" {
			t.Fatalf("record %d has no trace ID", i)
		}
		if err := led.Explain(&rec); err != nil || rec.Explanation == nil || rec.Explanation.Verdict != rec.Verdict {
			t.Fatalf("record %d explanation missing or inconsistent: %v", i, err)
		}
	}
	// The TCP path copies the per-connection scratch vector; both
	// records must hold distinct, correct vectors.
	if len(recent[0].Vector) == 0 || len(recent[1].Vector) == 0 {
		t.Fatal("empty vectors in TCP audit records")
	}
	if &recent[0].Vector[0] == &recent[1].Vector[0] {
		t.Fatal("TCP audit records alias the same vector backing array")
	}
}

// TestSwapModelFailsClosedWithoutArchive: a model that cannot be
// archived is not deployed. Records stamped with its hash could never be
// explained, so SwapModel reports the failure and the old model — whose
// archive exists — keeps serving and keeps being audited.
func TestSwapModelFailsClosedWithoutArchive(t *testing.T) {
	srv, led, ts := auditedServer(t, 1)
	_, d := testModel(t)
	oldHash := srv.ModelHash()

	tc := core.DefaultTrainConfig()
	tc.K = 9
	tc.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
	other, _, err := core.Train(d.Samples(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := other.Hash(); h == oldHash {
		t.Fatal("fixture: the second model hashes like the first")
	}

	// The directory goes away under the open segment (chmod would not stop
	// root): nothing new can be created in it.
	gone := led.Dir() + ".gone"
	if err := os.Rename(led.Dir(), gone); err != nil {
		t.Fatal(err)
	}
	if err := srv.SwapModel(other); err == nil {
		t.Fatal("SwapModel succeeded with nowhere to archive the model")
	}
	if got := srv.ModelHash(); got != oldHash {
		t.Fatalf("deployed hash %s after a failed swap, want the old %s", got, oldHash)
	}
	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	if _, err := NewClient(ts.URL).Submit(context.Background(), honest); err != nil {
		t.Fatal(err)
	}
	if recent := led.Recent(1, "", ""); len(recent) != 1 || recent[0].ModelHash != oldHash {
		t.Fatalf("after the failed swap the ledger recorded %+v", recent)
	}

	// Back in place, the same swap goes through and leaves two archives.
	if err := os.Rename(gone, led.Dir()); err != nil {
		t.Fatal(err)
	}
	if err := srv.SwapModel(other); err != nil {
		t.Fatal(err)
	}
	for _, hash := range []string{oldHash, srv.ModelHash()} {
		if _, err := audit.NewResolver(led.Dir()).Model(hash); err != nil {
			t.Fatal(err)
		}
	}
	// A boot fails the same way.
	if err := os.Rename(led.Dir(), gone); err != nil {
		t.Fatal(err)
	}
	defer os.Rename(gone, led.Dir())
	if _, err := NewServer(Config{Model: other, Audit: led}); err == nil {
		t.Fatal("NewServer succeeded with nowhere to archive the model")
	}
}
