package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"polygraph/internal/browser"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
	"polygraph/internal/slo"
	"polygraph/internal/ua"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden from this tree")

// goldenValues are the samples whose values a fixed request sequence
// determines; every other sample is golden by name and labels only.
var goldenValues = map[string]bool{
	"polygraph_collections_total":                 true,
	"polygraph_flagged_total":                     true,
	"polygraph_rejected_total":                    true,
	"polygraph_score_duration_microseconds_count": true,
	"polygraph_model_clusters":                    true,
	"polygraph_model_accuracy":                    true,
	"polygraph_tcp_scored_total":                  true,
	"polygraph_tcp_flagged_total":                 true,
	"polygraph_tcp_bad_handshakes_total":          true,
	"polygraph_tcp_bad_frames_total":              true,
	"polygraph_tcp_batch_size_sum":                true,
	"polygraph_audit_records_total":               true,
	"polygraph_audit_dropped_total":               true,
	"polygraph_drift_evaluations_total":           true,
	"polygraph_drift_reservoir_size":              true,
	"polygraph_drift_observed_total":              true,
	"polygraph_drift_alert":                       true,
	"polygraph_feature_psi":                       true,
	"polygraph_slo_target":                        true,
	"polygraph_fleet_replicas":                    true,
	"polygraph_fleet_ejections_total":             true,
	"polygraph_fleet_readmissions_total":          true,
	"polygraph_fleet_retries_total":               true,
	"polygraph_fleet_replica_info":                true,
	"polygraph_fleet_slo_target":                  true,
}

var (
	// Build and model identity change with the toolchain and the model
	// format, not with the exposition.
	maskedLabel = regexp.MustCompile(`(go_version|revision|model_hash)="[^"]*"`)
	// The runtime's own histogram bounds are the toolchain's.
	runtimeLe = regexp.MustCompile(`^(polygraph_go_[a-z_]+_bucket)\{le="[^"]*"\}$`)
)

// goldenLines reduces an exposition to what a scraper keys on: every
// HELP/TYPE line verbatim and the ordered series list, with values for
// the goldenValues samples only.
func goldenLines(text string) string {
	var b strings.Builder
	last := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			b.WriteString(line + "\n")
			last = ""
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series, value := maskedLabel.ReplaceAllString(line[:sp], `$1="*"`), line[sp+1:]
		series = runtimeLe.ReplaceAllString(series, `$1{le="*"}`)
		if series == last {
			continue
		}
		last = series
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if goldenValues[name] {
			series += " " + value
		}
		b.WriteString(series + "\n")
	}
	return b.String()
}

// TestExpositionGolden pins the scrape surface: a replica with a ledger,
// an evaluated drift monitor, a framed listener and an SLO engine,
// driven by a fixed request sequence, plus the balancer's families with
// their SLO rollup. HELP/TYPE text, family and series order, label sets
// and the request-derived counters must all stay byte-identical, and the
// page carries every family of the three surfaces.
func TestExpositionGolden(t *testing.T) {
	// Sessions: twelve releases told honestly, every fourth one lying
	// about its browser. The deployed model's drift baseline is binned
	// from the first 24.
	trainedM := trainedModel(t)
	ext := fingerprint.NewExtractor(browser.NewOracle(), trainedM.Features)
	var payloads []*fingerprint.Payload
	var baseline [][]float64
	for i := 0; i < 48; i++ {
		rel := ua.Release{Vendor: ua.Chrome, Version: 100 + i%12}
		if i%3 == 1 {
			rel = ua.Release{Vendor: ua.Firefox, Version: 100 + i%12}
		}
		vec := ext.Extract(browser.Profile{Release: rel, OS: ua.Windows10})
		baseline = append(baseline, vec)
		claim := rel
		if i%4 == 3 {
			claim = ua.Release{Vendor: ua.Edge, Version: 108}
		}
		payloads = append(payloads, &fingerprint.Payload{
			UserAgent: ua.UserAgent(claim, ua.Windows10),
			Values:    fingerprint.VectorToValues(vec),
		})
	}
	m := reloaded(t, trainedM)
	m.Baseline = core.BinColumns(baseline[:24], m.Dim())

	r, err := New(context.Background(), Config{
		Name: "gold-0", Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", Model: m,
		AuditDir: t.TempDir(), AuditSample: 1,
		DriftInterval: time.Hour, SLOSpec: slo.DefaultSpec(), SLOInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	client := collect.NewClient(r.BaseURL())
	for _, p := range payloads[:32] {
		if _, err := client.Submit(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(r.BaseURL()+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, p := range payloads[32:40] {
		body, _ := json.Marshal(map[string]any{"ua": p.UserAgent, "v": p.Values})
		post(collect.EndpointJSON, string(body))
	}
	post(collect.EndpointBinary, "not a payload")
	post(collect.EndpointJSON, "{nope")
	post(collect.EndpointJSON, `{"ua":"x","v":[1,2]}`)

	tcp, err := collect.DialTCP(r.TCPAddr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	short := &fingerprint.Payload{UserAgent: payloads[0].UserAgent, Values: []int64{1, 2}}
	if _, err := tcp.SubmitBatch(append(append([]*fingerprint.Payload(nil), payloads[40:]...), short)); err != nil {
		t.Fatal(err)
	}
	tcp.Close()

	if _, err := r.Drift().Evaluate(); err != nil {
		t.Fatalf("drift evaluation: %v", err)
	}
	if err := r.SLO().TickNow(); err != nil {
		t.Fatal(err)
	}
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1}, r.Member())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Admit(r.Name(), r.ModelHash()); err != nil {
		t.Fatal(err)
	}
	rollup, err := fleet.NewSLORollup(b, slo.DefaultSpec(), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.AttachSLO(rollup)
	if _, err := rollup.Collect(ctx); err != nil {
		t.Fatal(err)
	}

	var page bytes.Buffer
	page.WriteString(r.metricsExposition())
	b.WriteMetrics(&page)
	problems, err := obs.Lint(bytes.NewReader(page.Bytes()), obs.RequiredFamilies("replica", "tcp", "fleet")...)
	if err != nil || len(problems) != 0 {
		t.Fatalf("exposition does not lint clean with every surface required: %v %v", problems, err)
	}
	got := goldenLines(page.String())

	const path = "testdata/exposition.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition diverges from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
