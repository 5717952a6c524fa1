package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polygraph/internal/bundle"
	"polygraph/internal/obs"
)

// The CLI contract: exit 0 clean, 1 on a FAIL finding, 2 on usage or
// read errors — pinned end to end through run().

func healthyServer(t *testing.T) string {
	t.Helper()
	return healthyServerWith(t, func() {})
}

// healthyServerWith is healthyServer with a hook run inside every
// /metrics fetch — the middle of a capture.
func healthyServerWith(t *testing.T, duringMetrics func()) string {
	t.Helper()
	var metrics bytes.Buffer
	obs.WriteMetric(&metrics, "polygraph_collections_total", "Scored.", "counter", 10)
	obs.WriteMetric(&metrics, "polygraph_audit_records_total", "Records.", "counter", 10)
	obs.WriteMetric(&metrics, "polygraph_audit_dropped_total", "Dropped.", "counter", 0)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		duringMetrics()
		w.Write(metrics.Bytes())
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("{}")) })
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("[]")) })
	mux.HandleFunc("/debug/decisions", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("[]")) })
	modelInfo := func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{"hash":"cafe"}`)) }
	mux.HandleFunc("/admin/model/info", modelInfo) // what a bundle captures
	mux.HandleFunc("/admin/model", modelInfo)      // what status probes
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("{}")) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestBundleUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"capture"}, // neither -addr nor -fleet
		{"capture", "-addr", "http://x", "-fleet", "http://y"},
		{"analyze"},                                    // no bundle path
		{"analyze", "a.tgz", "b.tgz"},                  // too many
		{"capture", "-fleet", ",,"},                    // empty fleet list
		{"analyze", "/nonexistent/b.tgz"},              // unreadable bundle
		{"capture", "-addr", "http://x", "-file", "["}, // bad glob
	} {
		if code := run(append([]string{"bundle"}, args...), &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestBundleCaptureThenAnalyzeHealthyExitsZero(t *testing.T) {
	url := healthyServer(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.tgz")

	var out, errOut bytes.Buffer
	code := run([]string{"bundle", "capture", "-o", path, "-addr", url, "-skip-pprof", "-timeout", "30s"},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("capture = %d; stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1 target(s)") {
		t.Fatalf("capture summary %q", out.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	errOut.Reset()
	code = run([]string{"bundle", "analyze", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("analyze healthy = %d; stdout %s stderr %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("analyze output has no PASS findings: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "0 fail") {
		t.Fatalf("analyze summary %q", errOut.String())
	}
}

func TestBundleCaptureRecordsDeadTargetAndStillExitsZero(t *testing.T) {
	// A fleet where one URL is dead: capture exits 0 and prints the
	// collector errors as warnings.
	live := healthyServer(t)
	srv := httptest.NewServer(http.NotFoundHandler())
	deadURL := srv.URL
	srv.Close()

	path := filepath.Join(t.TempDir(), "fleet.tgz")
	var out, errOut bytes.Buffer
	code := run([]string{"bundle", "capture", "-o", path, "-fleet", live + "," + deadURL,
		"-skip-pprof", "-timeout", "30s"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("fleet capture = %d; stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "2 target(s)") || !strings.Contains(out.String(), "warn r1/") {
		t.Fatalf("capture summary %q", out.String())
	}
	b, err := bundle.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Target("r0") == nil || b.Manifest.Target("r1") == nil {
		t.Fatalf("fleet targets missing: %+v", b.Manifest.Targets)
	}
	if len(b.Manifest.Target("r1").Errors) == 0 {
		t.Fatal("dead fleet target recorded no errors")
	}
}

// TestBundleCaptureKeepsPreviousBundleUntilDone pins the -o contract:
// the bundle already at the output path is intact for as long as the
// capture runs (the CPU profile alone holds it for -pprof-seconds per
// target) and is replaced only by a complete new one. What a capture
// that fails leaves behind is pinned in internal/bundle.
func TestBundleCaptureKeepsPreviousBundleUntilDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.tgz")
	previous := []byte("yesterday's bundle")
	if err := os.WriteFile(path, previous, 0o644); err != nil {
		t.Fatal(err)
	}
	var midCapture []byte
	url := healthyServerWith(t, func() { midCapture, _ = os.ReadFile(path) })

	var out, errOut bytes.Buffer
	if code := run([]string{"bundle", "capture", "-o", path, "-addr", url, "-skip-pprof"}, &out, &errOut); code != 0 {
		t.Fatalf("capture = %d; stderr %s", code, errOut.String())
	}
	if !bytes.Equal(midCapture, previous) {
		t.Fatalf("mid-capture the output path held %q, want the previous bundle", midCapture)
	}
	if _, err := bundle.Open(path); err != nil {
		t.Fatalf("capture did not replace the previous bundle: %v", err)
	}
}

// writeFaultyBundle seeds a drift-stale-model fault and returns its
// path.
func writeFaultyBundle(t *testing.T) string {
	t.Helper()
	var metrics bytes.Buffer
	obs.WriteMetric(&metrics, "polygraph_drift_alert", "Alert.", "gauge", 1)
	obs.WriteMetric(&metrics, "polygraph_model_trained_timestamp_seconds", "Trained.", "gauge", 1000)
	obs.WriteMetric(&metrics, "polygraph_drift_baseline_timestamp_seconds", "Baseline.", "gauge", 2000)

	b := bundle.NewBuilder(time.Unix(1_700_000_000, 0))
	b.Target("r0", "http://r0").Add(bundle.ArtifactMetrics, bundle.KindMetrics, metrics.Bytes())
	path := filepath.Join(t.TempDir(), "faulty.tgz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBundleAnalyzeFaultyExitsOne(t *testing.T) {
	path := writeFaultyBundle(t)
	var out, errOut bytes.Buffer
	code := run([]string{"bundle", "analyze", path}, &out, &errOut)
	if code != 1 {
		t.Fatalf("analyze faulty = %d, want 1; stdout %s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL drift-stale-model r0") {
		t.Fatalf("findings do not name the rule: %q", out.String())
	}
}

func TestBundleAnalyzeJSONOutput(t *testing.T) {
	path := writeFaultyBundle(t)
	var out, errOut bytes.Buffer
	code := run([]string{"bundle", "analyze", "-json", path}, &out, &errOut)
	if code != 1 {
		t.Fatalf("analyze -json = %d, want 1", code)
	}
	if !strings.Contains(out.String(), `"rule": "drift-stale-model"`) ||
		!strings.Contains(out.String(), `"severity": "fail"`) {
		t.Fatalf("JSON findings %q", out.String())
	}
}
