package bundle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polygraph/internal/audit"
)

// Canonical per-target artifact names; Capture writes them and the
// analyzers read them, so they live next to the format.
const (
	ArtifactMetrics   = "metrics.txt"
	ArtifactStats     = "stats.json"
	ArtifactTraces    = "traces.json"
	ArtifactDecisions = "decisions.json"
	ArtifactModelInfo = "model-info.json"
	ArtifactHealth    = "healthz.txt"
	ArtifactExpvar    = "expvar.json"
	ArtifactPprofCPU  = "pprof-cpu.pb.gz"
	ArtifactPprofHeap = "pprof-heap.pb.gz"
	ArtifactSLO       = "slo.json"
)

// FleetMetricsFile is the run-level balancer exposition (files/...).
const FleetMetricsFile = "fleet-metrics.txt"

// ConfigFile is the run-level effective-configuration artifact.
const ConfigFile = "config.json"

// AdminModelInfoPath is the model-provenance endpoint captured into
// model-info.json (served by internal/serving; mirrored as an alias of
// GET /admin/model).
const AdminModelInfoPath = "/admin/model/info"

// Target is one live capture source.
type Target struct {
	// Name labels the target inside the bundle (sanitized for tar
	// paths).
	Name string
	// BaseURL is the serving root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// DebugURL is the pprof/expvar listener when it differs from
	// BaseURL (polygraphd's -debug-addr); "" uses BaseURL.
	DebugURL string
	// Fetch overrides HTTP entirely: given a request path it returns
	// the response body. In-process rigs (serving.Replica.BundleTarget)
	// use it so a capture needs no listener at all.
	Fetch func(ctx context.Context, path string) ([]byte, error)
}

// Options parameterizes Capture.
type Options struct {
	Targets []Target
	// Client serves HTTP fetches (nil = a 10s-timeout client).
	Client *http.Client
	// NoRedact ships audit records as /debug/decisions serves them — UA
	// strings, fingerprint vectors and the explanations derived from
	// them included. Default is redaction via audit.RedactRecord.
	NoRedact bool
	// PprofSeconds is the CPU-profile duration per target; 0 skips the
	// CPU profile (the heap profile is always attempted unless
	// SkipPprof).
	PprofSeconds int
	// SkipPprof skips profiles entirely.
	SkipPprof bool
	// Recent bounds the captured trace and decision rings (0 = 256).
	Recent int
	// FleetMetrics, when set, writes the balancer's own exposition
	// (fleet.Balancer.WriteMetrics) into files/fleet-metrics.txt.
	FleetMetrics func(w io.Writer)
	// Files lists extra run-level files to pack; unreadable ones
	// become manifest errors.
	Files []string
	// Config, when non-nil, is marshaled into files/config.json — the
	// effective flags/configuration of the capturing process.
	Config any
	// Tool stamps the manifest with the capturing tool's version.
	Tool string
	// Now overrides the capture timestamp (tests); zero = time.Now().
	Now time.Time
}

// Capture snapshots every target into a bundle written to w. Individual
// artifact failures are recorded in the manifest and never abort the
// capture — a dead replica is a diagnosis, not an error. The returned
// manifest is the one written into the stream.
func Capture(ctx context.Context, w io.Writer, opts Options) (*Manifest, error) {
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	recent := opts.Recent
	if recent <= 0 {
		recent = 256
	}

	b := NewBuilder(now)
	b.SetTool(opts.Tool)
	b.SetRedacted(!opts.NoRedact)

	for _, t := range opts.Targets {
		captureTarget(ctx, b, client, t, opts, recent)
	}

	if opts.FleetMetrics != nil {
		var buf bytes.Buffer
		opts.FleetMetrics(&buf)
		b.AddFile(FleetMetricsFile, KindMetrics, buf.Bytes())
	}
	if opts.Config != nil {
		data, err := json.MarshalIndent(opts.Config, "", "  ")
		if err != nil {
			b.Error(ConfigFile, err)
		} else {
			b.AddFile(ConfigFile, KindConfig, append(data, '\n'))
		}
	}
	for _, f := range opts.Files {
		data, err := os.ReadFile(f)
		if err != nil {
			b.Error(filepath.Base(f), err)
			continue
		}
		b.AddFile(filepath.Base(f), KindFile, data)
	}

	return b.Write(w)
}

// CaptureFile is Capture into the file at path. Whatever was at path
// stays intact until the new bundle is complete: the archive goes to a
// temporary file in the same directory, which is renamed over path once
// it is written and closed, and removed if anything fails first.
func CaptureFile(ctx context.Context, path string, opts Options) (*Manifest, error) {
	var manifest *Manifest
	err := writeFileAtomic(path, func(w io.Writer) (err error) {
		manifest, err = Capture(ctx, w, opts)
		return err
	})
	return manifest, err
}

func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		// CreateTemp's 0600 would hide the bundle from the CI step or
		// the colleague it was captured for.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// captureTarget collects one target's artifact set in a fixed order.
func captureTarget(ctx context.Context, b *Builder, client *http.Client, t Target, opts Options, recent int) {
	tw := b.Target(t.Name, t.BaseURL)
	fetch := func(path string) ([]byte, error) {
		if t.Fetch != nil {
			return t.Fetch(ctx, path)
		}
		base := t.BaseURL
		if t.DebugURL != "" && isDebugListenerPath(path) {
			base = t.DebugURL
		}
		if base == "" {
			return nil, fmt.Errorf("no base URL for %s", path)
		}
		return HTTPFetch(ctx, client, strings.TrimSuffix(base, "/")+path)
	}
	grab := func(name, kind, path string) []byte {
		data, err := fetch(path)
		if err != nil {
			tw.Error(name, err)
			return nil
		}
		tw.Add(name, kind, data)
		return data
	}
	// grabOptional packs the artifact when the endpoint answers but stays
	// silent when it does not: /debug/slo is 404 on a replica without an
	// SLO engine, and that configuration choice is not a capture failure.
	grabOptional := func(name, kind, path string) {
		if data, err := fetch(path); err == nil {
			tw.Add(name, kind, data)
		}
	}

	grab(ArtifactHealth, KindHealth, "/healthz")
	grab(ArtifactMetrics, KindMetrics, "/metrics")
	grab(ArtifactStats, KindStats, "/v1/stats")
	grab(ArtifactTraces, KindTraces, fmt.Sprintf("/debug/traces?n=%d", recent))
	captureDecisions(tw, fetch, opts.NoRedact, recent)
	grabOptional(ArtifactSLO, KindSLO, "/debug/slo")
	grab(ArtifactModelInfo, KindModelInfo, AdminModelInfoPath)
	grab(ArtifactExpvar, KindExpvar, "/debug/vars")
	if !opts.SkipPprof {
		grab(ArtifactPprofHeap, KindPprof, "/debug/pprof/heap")
		if opts.PprofSeconds > 0 {
			grab(ArtifactPprofCPU, KindPprof, fmt.Sprintf("/debug/pprof/profile?seconds=%d", opts.PprofSeconds))
		}
	}
}

// captureDecisions fetches the recent-decision ring and redacts it
// before packing. When redaction is on and the payload does not parse
// as audit records, nothing is stored: shipping unparsed records
// verbatim would silently defeat the redaction default.
func captureDecisions(tw *TargetWriter, fetch func(string) ([]byte, error), noRedact bool, recent int) {
	data, err := fetch(fmt.Sprintf("/debug/decisions?n=%d", recent))
	if err != nil {
		tw.Error(ArtifactDecisions, err)
		return
	}
	if noRedact {
		tw.Add(ArtifactDecisions, KindDecisions, data)
		return
	}
	var recs []audit.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		tw.Error(ArtifactDecisions, fmt.Errorf("redact: %w", err))
		return
	}
	out, err := json.Marshal(audit.RedactRecords(recs))
	if err != nil {
		tw.Error(ArtifactDecisions, fmt.Errorf("redact: %w", err))
		return
	}
	tw.Add(ArtifactDecisions, KindDecisions, append(out, '\n'))
}

// isDebugListenerPath reports whether a path belongs on polygraphd's
// separate -debug-addr listener (pprof and expvar).
func isDebugListenerPath(path string) bool {
	return strings.HasPrefix(path, "/debug/pprof/") || strings.HasPrefix(path, "/debug/vars")
}

// HTTPFetch GETs a URL, requiring a 200 and bounding the body — the
// transport every HTTP-backed capture target shares (nil client uses
// http.DefaultClient).
func HTTPFetch(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(body))
		if len(msg) > 120 {
			msg = msg[:120]
		}
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, msg)
	}
	return body, nil
}
