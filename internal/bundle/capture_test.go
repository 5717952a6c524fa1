package bundle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polygraph/internal/audit"
)

// liveTarget spins up an httptest server that answers the capture
// paths, returning its URL. The decisions payload carries a raw UA and
// vector so redaction is observable.
func liveTarget(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write(metricsText(healthyOpts()))
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("n") == "" {
			http.Error(w, "missing n", http.StatusBadRequest)
			return
		}
		w.Write([]byte("[]"))
	})
	mux.HandleFunc("/debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		recs := []audit.Record{{
			SessionID: "s1",
			UserAgent: "SecretAgent/1.0",
			Vector:    []float64{1, 2, 3},
		}}
		json.NewEncoder(w).Encode(recs)
	})
	mux.HandleFunc(AdminModelInfoPath, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"hash":"` + hashA + `"}`))
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// deadTargetURL returns a URL nothing listens on.
func deadTargetURL(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	return url
}

func captureToBundle(t *testing.T, opts Options) *Bundle {
	t.Helper()
	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if opts.Now.IsZero() {
		opts.Now = captureInstant
	}
	if _, err := Capture(ctx, &buf, opts); err != nil {
		t.Fatalf("Capture: %v", err)
	}
	bb, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return bb
}

func TestCaptureLiveAndDeadTargets(t *testing.T) {
	bb := captureToBundle(t, Options{
		Targets: []Target{
			{Name: "live", BaseURL: liveTarget(t)},
			{Name: "dead", BaseURL: deadTargetURL(t)},
		},
		SkipPprof: true,
		Tool:      "capture-test",
	})

	if bb.Manifest.Tool != "capture-test" || !bb.Manifest.Redacted {
		t.Fatalf("manifest header %+v", bb.Manifest)
	}
	live := targetOf(&bb.Manifest, "live")
	if live == nil {
		t.Fatal("live target missing from manifest")
	}
	for _, want := range []string{ArtifactHealth, ArtifactMetrics,
		ArtifactTraces, ArtifactDecisions, ArtifactModelInfo, ArtifactExpvar} {
		found := false
		for _, a := range live.Artifacts {
			if a.Name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("live target missing artifact %s; has %+v", want, live.Artifacts)
		}
	}
	if len(live.Errors) != 0 {
		t.Fatalf("live target recorded errors: %+v", live.Errors)
	}

	// The dead replica becomes recorded errors, not a failed capture.
	dead := targetOf(&bb.Manifest, "dead")
	if dead == nil {
		t.Fatal("dead target missing from manifest")
	}
	if len(dead.Artifacts) != 0 {
		t.Fatalf("dead target captured artifacts: %+v", dead.Artifacts)
	}
	if len(dead.Errors) < 6 {
		t.Fatalf("dead target recorded %d errors, want one per artifact: %+v",
			len(dead.Errors), dead.Errors)
	}
}

func TestCaptureRedactsDecisionsByDefault(t *testing.T) {
	url := liveTarget(t)
	bb := captureToBundle(t, Options{
		Targets:   []Target{{Name: "r0", BaseURL: url}},
		SkipPprof: true,
	})
	data := bb.targetFile("r0", ArtifactDecisions)
	if data == nil {
		t.Fatal("decisions.json not captured")
	}
	if bytes.Contains(data, []byte("SecretAgent")) {
		t.Fatalf("redacted decisions leak the UA: %s", data)
	}
	var recs []audit.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !recs[0].Redacted || recs[0].Vector != nil ||
		recs[0].VectorDim != 3 || !strings.HasPrefix(recs[0].UserAgent, "sha256:") {
		t.Fatalf("decisions not redacted: %+v", recs)
	}

	// -no-redact ships them verbatim and flips the manifest bit.
	raw := captureToBundle(t, Options{
		Targets:   []Target{{Name: "r0", BaseURL: url}},
		SkipPprof: true,
		NoRedact:  true,
	})
	if raw.Manifest.Redacted {
		t.Fatal("NoRedact capture still claims redaction")
	}
	if !bytes.Contains(raw.targetFile("r0", ArtifactDecisions), []byte("SecretAgent")) {
		t.Fatal("NoRedact capture lost the raw UA")
	}
}

// Redaction is fail-closed: a decisions payload that does not parse as
// audit records is dropped with a recorded error, never shipped raw.
func TestCaptureRedactionFailClosed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"not":"a record array","ua":"SecretAgent/9"}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	bb := captureToBundle(t, Options{
		Targets:   []Target{{Name: "r0", BaseURL: srv.URL}},
		SkipPprof: true,
	})
	if bb.targetFile("r0", ArtifactDecisions) != nil {
		t.Fatal("unparseable decisions were shipped despite redaction")
	}
	tm := targetOf(&bb.Manifest, "r0")
	found := false
	for _, ce := range tm.Errors {
		if ce.Artifact == ArtifactDecisions && strings.Contains(ce.Err, "redact") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no redact error recorded: %+v", tm.Errors)
	}
}

func TestCaptureFetchOverrideAndRunLevelFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(bench, []byte(`{"rps":9000}`), 0o644); err != nil {
		t.Fatal(err)
	}

	fetched := map[string]bool{}
	target := Target{
		Name: "inproc",
		Fetch: func(ctx context.Context, path string) ([]byte, error) {
			fetched[path] = true
			switch {
			case path == "/metrics":
				return metricsText(healthyOpts()), nil
			case strings.HasPrefix(path, "/debug/decisions"):
				return []byte("[]"), nil
			default:
				return []byte("{}"), nil
			}
		},
	}
	bb := captureToBundle(t, Options{
		Targets:      []Target{target},
		SkipPprof:    true,
		Recent:       7,
		FleetMetrics: func(w io.Writer) { w.Write([]byte("polygraph_fleet_retries_total 0\n")) },
		Files:        []string{bench, filepath.Join(dir, "missing.json")},
		Config:       map[string]any{"fleet": 3},
	})

	if !fetched["/debug/traces?n=7"] || !fetched["/debug/decisions?n=7"] {
		t.Fatalf("Recent not threaded into fetch paths: %v", fetched)
	}
	if !bytes.Contains(bb.Files["files/"+FleetMetricsFile], []byte("polygraph_fleet_retries_total")) {
		t.Fatal("fleet metrics file missing")
	}
	if !bytes.Contains(bb.Files["files/"+ConfigFile], []byte(`"fleet": 3`)) {
		t.Fatalf("config.json content %s", bb.Files["files/"+ConfigFile])
	}
	if !bytes.Contains(bb.Files["files/bench.json"], []byte("9000")) {
		t.Fatal("bench.json not packed")
	}
	// The unreadable extra file is a manifest error, not a capture
	// failure.
	found := false
	for _, ce := range bb.Manifest.Errors {
		if ce.Artifact == "missing.json" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing.json error not recorded: %+v", bb.Manifest.Errors)
	}
}

func TestHTTPFetchRejectsNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, strings.Repeat("x", 500), http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	_, err := HTTPFetch(context.Background(), nil, srv.URL+"/metrics")
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("HTTPFetch on 503 = %v", err)
	}
	// Body excerpt is bounded.
	if len(err.Error()) > 300 {
		t.Fatalf("error message unbounded: %d bytes", len(err.Error()))
	}
}

// A captured healthy target must analyze clean end to end — the
// contract behind CI's healthy-path analyze step.
func TestCaptureThenAnalyzeHealthy(t *testing.T) {
	bb := captureToBundle(t, Options{
		Targets:   []Target{{Name: "r0", BaseURL: liveTarget(t)}},
		SkipPprof: true,
	})
	findings := Analyze(bb, AnalyzeOptions{})
	if hasFailure(findings) {
		t.Fatalf("captured healthy target fails analysis: %v", findings)
	}
}

// TestCaptureFileKeepsPreviousBundleOnFailure pins CaptureFile's
// contract: a failed write leaves the file at the target path byte for
// byte and no temporary file beside it; a good capture replaces it.
func TestCaptureFileKeepsPreviousBundleOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.tgz")
	previous := []byte("the bundle an operator captured yesterday")
	if err := os.WriteFile(path, previous, 0o644); err != nil {
		t.Fatal(err)
	}

	errDisk := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a tarball")); err != nil {
			return err
		}
		return errDisk
	})
	if !errors.Is(err, errDisk) {
		t.Fatalf("writeFileAtomic error = %v, want the writer's", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, previous) {
		t.Fatalf("failed write changed the previous bundle: %q", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed write left %d entries in the directory, want only the previous bundle", len(entries))
	}

	if _, err := CaptureFile(context.Background(), path, Options{
		Targets:   []Target{{Name: "r0", BaseURL: liveTarget(t)}},
		SkipPprof: true,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("good capture did not replace the previous bundle: %v", err)
	}
	if targetOf(&b.Manifest, "r0") == nil {
		t.Fatalf("manifest targets: %+v", b.Manifest.Targets)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("good capture left %d entries in the directory, want one", len(entries))
	}
}
