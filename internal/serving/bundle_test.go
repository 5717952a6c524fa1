package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"polygraph/internal/bundle"
	"polygraph/internal/fleet"
)

// startReplica builds and starts a deployed, self-snapshotting replica.
func startReplica(t *testing.T, name string) *Replica {
	t.Helper()
	r, err := New(context.Background(), Config{
		Name:        name,
		Addr:        "127.0.0.1:0",
		Model:       trainedModel(t),
		Debug:       true,
		AuditDir:    t.TempDir(),
		AuditSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestReplicaDebugBundleEndpoint(t *testing.T) {
	r := startReplica(t, "bundle-0")

	resp, err := http.Get(r.BaseURL() + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/bundle = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "polygraph-bundle-bundle-0.tgz") {
		t.Fatalf("Content-Disposition = %q", cd)
	}

	bb, err := bundle.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Manifest.Redacted {
		t.Fatal("bundle not marked redacted by default")
	}
	tm := targetOf(&bb.Manifest, "bundle-0")
	if tm == nil {
		t.Fatalf("target bundle-0 missing; manifest %+v", bb.Manifest)
	}
	for _, want := range []string{
		bundle.ArtifactHealth, bundle.ArtifactMetrics,
		bundle.ArtifactTraces, bundle.ArtifactDecisions, bundle.ArtifactModelInfo,
		bundle.ArtifactExpvar, bundle.ArtifactPprofHeap,
	} {
		found := false
		for _, a := range tm.Artifacts {
			if a.Name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("bundle missing %s; artifacts %+v, errors %+v", want, tm.Artifacts, tm.Errors)
		}
	}
	var info fleet.ModelInfo
	if err := json.Unmarshal(bb.Files["targets/bundle-0/"+bundle.ArtifactModelInfo], &info); err != nil {
		t.Fatal(err)
	}
	if info.Hash != r.ModelHash() {
		t.Fatalf("bundled model hash %q != deployed %q", info.Hash, r.ModelHash())
	}

	// The captured bundle analyzes clean.
	if findings := bundle.Analyze(bb, bundle.AnalyzeOptions{}); hasFailure(findings) {
		t.Fatalf("healthy replica bundle fails analysis: %v", findings)
	}
}

func TestReplicaDebugBundleRejectsBadPprofSeconds(t *testing.T) {
	r := startReplica(t, "bundle-bad")
	for _, q := range []string{"pprof_seconds=99", "pprof_seconds=-1", "pprof_seconds=x"} {
		resp, err := http.Get(r.BaseURL() + "/debug/bundle?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /debug/bundle?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestAdminModelInfoGetAlias(t *testing.T) {
	r := startReplica(t, "info-0")
	resp, err := http.Get(r.BaseURL() + bundle.AdminModelInfoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", bundle.AdminModelInfoPath, resp.StatusCode)
	}
	var info fleet.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Hash != r.ModelHash() || info.Features == 0 {
		t.Fatalf("model info %+v", info)
	}
}

// A drained replica has no listener, but its member's bundle target
// still snapshots everything through the mux in-process.
func TestBundleTargetWorksAfterDrain(t *testing.T) {
	r := startReplica(t, "drain-0")
	r.Drain()

	var buf bytes.Buffer
	ctx := context.Background()
	manifest, err := bundle.Capture(ctx, &buf, bundle.Options{
		Targets:   []bundle.Target{r.Member().BundleTarget()},
		SkipPprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := targetOf(manifest, "drain-0")
	if tm == nil {
		t.Fatal("drained target missing")
	}
	names := map[string]bool{}
	for _, a := range tm.Artifacts {
		names[a.Name] = true
	}
	if !names[bundle.ArtifactMetrics] || !names[bundle.ArtifactModelInfo] {
		t.Fatalf("drained capture lost core artifacts: %+v (errors %+v)", tm.Artifacts, tm.Errors)
	}
}

// The acceptance scenario: a 3-replica fleet with one killed replica that
// the capture reaches only over HTTP (as polygraphctl bundle capture
// -fleet reaches every replica). The capture must list every live
// replica's artifact set and turn the dead replica into recorded
// collector errors — never a failed bundle. An in-process member of a
// killed replica is captured whole: TestBundleTargetWorksAfterDrain.
func TestFleetWideBundleCaptureWithDeadReplica(t *testing.T) {
	m := trainedModel(t)
	wantHash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}

	var reps []*Replica
	var members []fleet.Member
	for i := 0; i < 3; i++ {
		r := startReplica(t, fmt.Sprintf("fr%d", i))
		reps = append(reps, r)
		members = append(members, r.Member())
	}
	members[2] = fleet.Member{Name: "fr2", BaseURL: reps[2].BaseURL()}
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1, ExpectHash: wantHash}, members...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&fleet.Controller{}).Distribute(context.Background(), b, m); err != nil {
		t.Fatal(err)
	}

	// Kill one replica (kill): listener gone, in-memory counters remain.
	kill(reps[2])

	var buf bytes.Buffer
	manifest, err := bundle.Capture(context.Background(), &buf, bundle.Options{
		Targets:      b.BundleTargets(),
		FleetMetrics: b.WriteMetrics,
		SkipPprof:    true,
		Config:       map[string]any{"fleet": 3},
	})
	if err != nil {
		t.Fatalf("fleet capture must succeed with a dead replica: %v", err)
	}
	if len(manifest.Targets) != 3 {
		t.Fatalf("captured %d targets, want 3", len(manifest.Targets))
	}

	for i := 0; i < 2; i++ {
		tm := targetOf(manifest, fmt.Sprintf("fr%d", i))
		if tm == nil {
			t.Fatalf("live replica fr%d missing", i)
		}
		names := map[string]bool{}
		for _, a := range tm.Artifacts {
			names[a.Name] = true
		}
		for _, want := range []string{bundle.ArtifactMetrics,
			bundle.ArtifactTraces, bundle.ArtifactDecisions, bundle.ArtifactModelInfo} {
			if !names[want] {
				t.Errorf("live fr%d missing %s (errors %+v)", i, want, tm.Errors)
			}
		}
	}

	// Dead replica: every artifact becomes a recorded error.
	dead := targetOf(manifest, "fr2")
	if dead == nil {
		t.Fatal("dead replica missing from manifest")
	}
	if len(dead.Artifacts) != 0 {
		t.Fatalf("dead replica captured artifacts over HTTP: %+v", dead.Artifacts)
	}
	if len(dead.Errors) == 0 {
		t.Fatal("dead replica recorded no collector errors")
	}

	// Read-back + analysis: a healthy-but-degraded fleet must not fail
	// (dead-replica capture gaps are warnings), and the fleet exposition
	// must agree on one hash.
	bb, err := bundle.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if bb.Files["files/"+bundle.FleetMetricsFile] == nil {
		t.Fatal("fleet metrics file missing")
	}
	findings := bundle.Analyze(bb, bundle.AnalyzeOptions{})
	if hasFailure(findings) {
		t.Fatalf("degraded-but-consistent fleet failed analysis: %v", findings)
	}
	sawWarn := false
	for _, f := range findings {
		if f.Rule == bundle.RuleCollectErrors && f.Severity == bundle.SeverityWarn && f.Target == "fr2" {
			sawWarn = true
		}
	}
	if !sawWarn {
		t.Fatalf("dead replica's capture gaps not surfaced as warnings: %v", findings)
	}
}

// targetOf returns the named target's manifest entry, nil when absent.
func targetOf(m *bundle.Manifest, name string) *bundle.TargetManifest {
	for i := range m.Targets {
		if m.Targets[i].Name == name {
			return &m.Targets[i]
		}
	}
	return nil
}

// hasFailure reports whether any finding failed (polygraphctl bundle
// analyze's exit-1 condition).
func hasFailure(findings []bundle.Finding) bool {
	return slices.ContainsFunc(findings, func(f bundle.Finding) bool { return f.Severity == bundle.SeverityFail })
}
