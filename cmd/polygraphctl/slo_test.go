package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polygraph/internal/bundle"
)

const healthyExpo = `# HELP polygraph_collections_total c
# TYPE polygraph_collections_total counter
polygraph_collections_total 1000
# HELP polygraph_score_duration_microseconds h
# TYPE polygraph_score_duration_microseconds histogram
polygraph_score_duration_microseconds_bucket{endpoint="/v1/collect",le="1024"} 1000
polygraph_score_duration_microseconds_bucket{endpoint="/v1/collect",le="+Inf"} 1000
polygraph_score_duration_microseconds_sum{endpoint="/v1/collect"} 500000
polygraph_score_duration_microseconds_count{endpoint="/v1/collect"} 1000
`

const breachedExpo = `# HELP polygraph_collections_total c
# TYPE polygraph_collections_total counter
polygraph_collections_total 1000
# HELP polygraph_rejected_total c
# TYPE polygraph_rejected_total counter
polygraph_rejected_total{reason="score"} 100
`

const alertingExpo = healthyExpo + `# HELP polygraph_slo_alert a
# TYPE polygraph_slo_alert gauge
polygraph_slo_alert{objective="collect-latency"} 1
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSLOHealthyMetricsDump(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"slo", writeFile(t, "m.txt", healthyExpo)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d for healthy dump\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ok run: collect-latency") {
		t.Fatalf("missing per-objective line:\n%s", out.String())
	}
}

func TestSLOAvailabilityBreach(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"slo", writeFile(t, "m.txt", breachedExpo)}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d for breached dump, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL run: ingest-availability") {
		t.Fatalf("missing violation line:\n%s", out.String())
	}
}

func TestSLOAlertGaugeFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"slo", writeFile(t, "m.txt", alertingExpo)}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d when alert gauge firing, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "burn-rate alert firing") {
		t.Fatalf("missing alert line:\n%s", out.String())
	}
}

func TestSLOCustomSpec(t *testing.T) {
	// Default spec passes the healthy dump; a stricter spec with a 512us
	// threshold fails it (all mass sits in the 1024us bucket).
	spec := writeFile(t, "spec.json", `{
  "name": "strict",
  "objectives": [
    {"name": "tight-lat", "kind": "latency", "endpoint": "/v1/collect", "target": 0.5, "threshold_us": 512, "window_s": 60}
  ]
}`)
	expo := writeFile(t, "m.txt", healthyExpo)
	var out, errb bytes.Buffer
	if code := run([]string{"slo", "-spec", spec, expo}, &out, &errb); code != 1 {
		t.Fatalf("exit %d under strict spec, want 1\n%s", code, out.String())
	}
	if code := run([]string{"slo", "-spec", filepath.Join(t.TempDir(), "nope.json"), expo}, &out, &errb); code != 2 {
		t.Fatal("missing spec file did not exit 2")
	}
}

// TestRunBundle pins the fleet semantics: per-target evaluation, the
// summed fleet view, and the fleet-level alert gauge all gate.
func TestSLOBundle(t *testing.T) {
	buildBundle := func(t *testing.T, fn func(b *bundle.Builder)) string {
		t.Helper()
		b := bundle.NewBuilder(time.Unix(1700000000, 0))
		fn(b)
		var buf bytes.Buffer
		if _, err := b.Write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "bundle.tgz")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Healthy two-replica fleet.
	var out, errb bytes.Buffer
	clean := buildBundle(t, func(b *bundle.Builder) {
		b.Target("r0", "http://r0").Add(bundle.ArtifactMetrics, bundle.KindMetrics, []byte(healthyExpo))
		b.Target("r1", "http://r1").Add(bundle.ArtifactMetrics, bundle.KindMetrics, []byte(healthyExpo))
	})
	if code := run([]string{"slo", clean}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for healthy fleet bundle\n%s%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"ok r0:", "ok r1:", "ok fleet:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("bundle output missing %q:\n%s", want, out.String())
		}
	}

	// One breached replica fails both its own view and the fleet sum.
	out.Reset()
	mixed := buildBundle(t, func(b *bundle.Builder) {
		b.Target("r0", "http://r0").Add(bundle.ArtifactMetrics, bundle.KindMetrics, []byte(healthyExpo))
		b.Target("r1", "http://r1").Add(bundle.ArtifactMetrics, bundle.KindMetrics, []byte(breachedExpo))
	})
	if code := run([]string{"slo", mixed}, &out, &errb); code != 1 {
		t.Fatalf("exit %d for mixed fleet bundle, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL r1: ingest-availability") ||
		!strings.Contains(out.String(), "FAIL fleet: ingest-availability") {
		t.Fatalf("bundle output missing replica+fleet failures:\n%s", out.String())
	}

	// A fleet-level alert gauge in the balancer exposition gates too.
	out.Reset()
	fleetAlert := buildBundle(t, func(b *bundle.Builder) {
		b.Target("r0", "http://r0").Add(bundle.ArtifactMetrics, bundle.KindMetrics, []byte(healthyExpo))
		b.AddFile(bundle.FleetMetricsFile, bundle.KindMetrics, []byte(`# HELP polygraph_fleet_slo_alert a
# TYPE polygraph_fleet_slo_alert gauge
polygraph_fleet_slo_alert{objective="ingest-availability"} 1
`))
	})
	if code := run([]string{"slo", fleetAlert}, &out, &errb); code != 1 {
		t.Fatalf("exit %d for fleet-alert bundle, want 1\n%s", code, out.String())
	}
}

// TestRunDeterministic pins the acceptance requirement: identical input
// yields byte-identical output and identical exit codes across runs.
func TestSLODeterministic(t *testing.T) {
	path := writeFile(t, "m.txt", breachedExpo)
	var first string
	for i := 0; i < 5; i++ {
		var out, errb bytes.Buffer
		if code := run([]string{"slo", path}, &out, &errb); code != 1 {
			t.Fatalf("run %d: exit %d", i, code)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d output differs:\n%s\nvs\n%s", i, out.String(), first)
		}
	}
}

func TestSLOUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"slo"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d with no source", code)
	}
	if code := run([]string{"slo", filepath.Join(t.TempDir(), "missing.txt")}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for unreadable source", code)
	}
	// Corrupt gzip data is a read error, not a silent pass.
	bad := writeFile(t, "bad.tgz", "\x1f\x8bgarbage")
	if code := run([]string{"slo", bad}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for corrupt bundle", code)
	}
}
