package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polygraph/internal/bundle"
	"polygraph/internal/loadgen"
	"polygraph/internal/serving"
	"polygraph/internal/slo"
)

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRunBadFlags(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-definitely-not-a-flag"}, null, null); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
	if code := run([]string{"-scenario", "/nonexistent.json"}, null, null); code != 2 {
		t.Fatalf("missing scenario exit %d, want 2", code)
	}
	// A scenario that fails validation after overrides.
	if code := run([]string{"-short", "-fraud-mix", "3"}, null, null); code != 2 {
		t.Fatalf("invalid mix exit %d, want 2", code)
	}
	// Fleet flag combinations rejected before any training happens.
	if code := run([]string{"-short", "-fleet", "2", "-addr", "http://x"}, null, null); code != 2 {
		t.Fatalf("-fleet with -addr exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-fleet-kill"}, null, null); code != 2 {
		t.Fatalf("-fleet-kill without -fleet exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-fleet", "1", "-fleet-kill"}, null, null); code != 2 {
		t.Fatalf("-fleet-kill with a 1-replica fleet exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-fleet", "2", "-audit-dir", "/tmp/x", "-audit-sample", "8"}, null, null); code != 2 {
		t.Fatalf("fleet with sampled audit exit %d, want 2", code)
	}
	// TCP flag combinations rejected before any training happens.
	if code := run([]string{"-short", "-tcp", "-addr", "http://x"}, null, null); code != 2 {
		t.Fatalf("-tcp with -addr exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-tcp", "-fleet", "2"}, null, null); code != 2 {
		t.Fatalf("-tcp with -fleet exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-tcp", "-invalid-mix", "0.1"}, null, null); code != 2 {
		t.Fatalf("-tcp with -invalid-mix exit %d, want 2", code)
	}
	// Flags that configure in-process replicas have nothing to act on
	// behind -addr.
	if code := run([]string{"-short", "-addr", "http://x", "-audit-dir", "/tmp/x"}, null, null); code != 2 {
		t.Fatalf("-audit-dir with -addr exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-addr", "http://x", "-fault-slow", "1ms"}, null, null); code != 2 {
		t.Fatalf("-fault-slow with -addr exit %d, want 2", code)
	}
	// SLO flag combinations rejected before any training happens.
	if code := run([]string{"-short", "-fault-slow", "1ms", "-fleet", "2"}, null, null); code != 2 {
		t.Fatalf("-fault-slow with -fleet exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-fault-slow", "1ms", "-tcp"}, null, null); code != 2 {
		t.Fatalf("-fault-slow with -tcp exit %d, want 2", code)
	}
	if code := run([]string{"-short", "-slo-spec", "/nonexistent-spec.json"}, null, null); code != 2 {
		t.Fatalf("missing -slo-spec exit %d, want 2", code)
	}
}

func TestRunVersionFlag(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-version"}, null, null); code != 0 {
		t.Fatalf("-version exit %d, want 0", code)
	}
}

// TestRunFleetKillDrill is the availability acceptance in miniature:
// three replicas, a fixed-count scenario, one replica drained at the
// exact midpoint of the steady phase — and still zero client-visible
// errors, byte-identical ledgers across two runs, and an exact
// client-vs-sum-of-replicas reconciliation.
func TestRunFleetKillDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model in-process")
	}
	dir := t.TempDir()
	sc := &loadgen.Scenario{
		Name: "fleet-drill", Seed: 17, Pool: 96, FraudMix: 0.05, JSONMix: 0.25,
		Phases: []loadgen.Phase{
			{Name: "ramp", Requests: 40, Concurrency: 2, RPS: 400},
			{Name: "steady", Requests: 240, Concurrency: 4},
		},
	}
	scData, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(scPath, scData, 0o644); err != nil {
		t.Fatal(err)
	}
	ledger1 := filepath.Join(dir, "ledger1.json")
	ledger2 := filepath.Join(dir, "ledger2.json")

	null := devNull(t)
	args := []string{
		"-scenario", scPath, "-train-sessions", "6000",
		"-fleet", "3", "-fleet-kill", "-fail-on-errors",
	}
	if code := run(append(args, "-ledger", ledger1, "-audit-dir", filepath.Join(dir, "aud1")), null, null); code != 0 {
		t.Fatalf("fleet run 1 exit %d", code)
	}
	if code := run(append(args, "-ledger", ledger2, "-audit-dir", filepath.Join(dir, "aud2")), null, null); code != 0 {
		t.Fatalf("fleet run 2 exit %d", code)
	}

	b1, err := os.ReadFile(ledger1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(ledger2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("fleet ledgers differ across runs:\n%s\n---\n%s", b1, b2)
	}
	var led loadgen.Ledger
	if err := json.Unmarshal(b1, &led); err != nil {
		t.Fatal(err)
	}
	if led.Sent != 280 || led.Errors() != 0 {
		t.Fatalf("ledger sent=%d errors=%d, want 280 sent and 0 errors", led.Sent, led.Errors())
	}
	// Fleet audit at sample 1: every scored decision recorded somewhere.
	if led.AuditRecords != led.Sent || led.AuditDropped != 0 {
		t.Fatalf("audit records=%d dropped=%d, want %d/0", led.AuditRecords, led.AuditDropped, led.Sent)
	}
}

// TestRunTCPEndToEnd is the smoke-tcp CI job in miniature: a fixed-seed
// binary-only scenario driven over the framed TCP listener through
// SubmitBatch pipelining, full-sample audit, a sustained-RPS floor, and
// byte-identical ledgers across two runs.
func TestRunTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model in-process")
	}
	dir := t.TempDir()
	sc := &loadgen.Scenario{
		Name: "tcp-shape", Seed: 29, Pool: 96, FraudMix: 0.05, JSONMix: 0,
		Phases: []loadgen.Phase{
			{Name: "ramp", Requests: 64, Concurrency: 2},
			{Name: "steady", Requests: 192, Concurrency: 4},
		},
	}
	scData, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(scPath, scData, 0o644); err != nil {
		t.Fatal(err)
	}
	ledger1 := filepath.Join(dir, "ledger1.json")
	ledger2 := filepath.Join(dir, "ledger2.json")

	null := devNull(t)
	args := []string{
		"-tcp", "-scenario", scPath, "-train-sessions", "6000",
		"-min-rps", "10", "-fail-on-errors",
	}
	// One replica, one ledger, one sampling counter: every-4th benign
	// sampling stays a function of the seed however the connections'
	// batches interleave.
	if code := run(append(args, "-ledger", ledger1,
		"-audit-dir", filepath.Join(dir, "aud1"), "-audit-sample", "4"), null, null); code != 0 {
		t.Fatalf("tcp run 1 exit %d", code)
	}
	if code := run(append(args, "-ledger", ledger2,
		"-audit-dir", filepath.Join(dir, "aud2"), "-audit-sample", "4"), null, null); code != 0 {
		t.Fatalf("tcp run 2 exit %d", code)
	}

	b1, err := os.ReadFile(ledger1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(ledger2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("tcp ledgers differ across runs:\n%s\n---\n%s", b1, b2)
	}
	var led loadgen.Ledger
	if err := json.Unmarshal(b1, &led); err != nil {
		t.Fatal(err)
	}
	if led.Sent != 256 || led.Errors() != 0 {
		t.Fatalf("ledger sent=%d errors=%d, want 256 sent and 0 errors", led.Sent, led.Errors())
	}
	// Sampled audit over TCP: every scored frame recorded or counted as
	// sampled out, in replica r0's directory next to its journal.
	if led.AuditRecords+led.AuditDropped != led.Sent || led.AuditDropped == 0 || led.AuditRecords < led.Flagged {
		t.Fatalf("audit records=%d dropped=%d over %d sent (%d flagged)", led.AuditRecords, led.AuditDropped, led.Sent, led.Flagged)
	}
	for _, pattern := range []string{"decisions.*.audit", "decisions.*.jsonl"} {
		if files, _ := filepath.Glob(filepath.Join(dir, "aud1", "r0", pattern)); len(files) == 0 {
			t.Fatalf("no %s under aud1/r0", pattern)
		}
	}
}

// TestRunEndToEnd drives the full CLI path once: scenario file, an
// in-process trained model, ledger emission, and the
// gate assertions — the same invocation shape the CI smoke-load job uses.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model in-process")
	}
	dir := t.TempDir()
	sc := &loadgen.Scenario{
		Name: "ci-shape", Seed: 13, Pool: 96, FraudMix: 0.05, JSONMix: 0.25,
		Phases: []loadgen.Phase{
			{Name: "ramp", Requests: 40, Concurrency: 2, RPS: 400},
			{Name: "steady", Requests: 120, Concurrency: 4},
		},
	}
	scData, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(scPath, scData, 0o644); err != nil {
		t.Fatal(err)
	}
	ledger1 := filepath.Join(dir, "ledger1.json")
	ledger2 := filepath.Join(dir, "ledger2.json")

	null := devNull(t)
	args := []string{
		"-scenario", scPath, "-train-sessions", "6000",
		"-max-p99", "5s", "-fail-on-errors",
	}
	if code := run(append(args, "-ledger", ledger1), null, null); code != 0 {
		t.Fatalf("run 1 exit %d", code)
	}
	if code := run(append(args, "-ledger", ledger2), null, null); code != 0 {
		t.Fatalf("run 2 exit %d", code)
	}

	// The acceptance criterion: two fixed-seed runs, byte-identical
	// ledgers.
	b1, err := os.ReadFile(ledger1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(ledger2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("ledgers differ:\n%s\n---\n%s", b1, b2)
	}
	var led loadgen.Ledger
	if err := json.Unmarshal(b1, &led); err != nil {
		t.Fatal(err)
	}
	if led.Sent != 160 || led.Errors() != 0 {
		t.Fatalf("ledger sent=%d errors=%d", led.Sent, led.Errors())
	}
}

// TestRunLiveAddr drives a running replica the way an operator points
// loadgen at a deployed polygraphd: the target is one plain-HTTP member,
// so the health probes, the pre/post scrapes, the stats read, the SLO
// rollup and the metrics dump all go over its listener — and the run
// must still reconcile.
func TestRunLiveAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model in-process")
	}
	replica, err := serving.New(context.Background(), serving.Config{Name: "live", Addr: "127.0.0.1:0", Train: true, Sessions: 6000})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sc := &loadgen.Scenario{
		Name: "live", Seed: 5, Pool: 64, FraudMix: 0.05, JSONMix: 0.25,
		Phases: []loadgen.Phase{{Name: "steady", Requests: 120, Concurrency: 4}},
	}
	scData, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(scPath, scData, 0o644); err != nil {
		t.Fatal(err)
	}
	metricsPath := filepath.Join(dir, "metrics.txt")
	null := devNull(t)
	// A bare host:port is accepted, as before.
	args := []string{"-scenario", scPath, "-addr", replica.Addr(), "-fail-on-errors", "-metrics-out", metricsPath}
	if code := run(args, null, null); code != 0 {
		t.Fatalf("live run exit %d", code)
	}
	if got := replica.Stats().Received; got != 120 {
		t.Fatalf("live replica scored %d, want 120", got)
	}
	dump, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"polygraph_collections_total 120", `polygraph_fleet_replica_info{replica="live"`} {
		if !strings.Contains(string(dump), needle) {
			t.Fatalf("metrics dump missing %q", needle)
		}
	}
	// A target that refuses connections fails the gates instead of
	// hanging or passing.
	replica.Kill()
	if code := run(args[:5], null, null); code != 1 {
		t.Fatalf("dead target exit %d, want 1", code)
	}
}

// TestRunSLOFaultDrill is the seeded fault acceptance end to end: an
// injected per-request scoring delay breaches a tight latency
// objective, the burn-rate engine trips the fast-burn alert, the
// exported polygraph_slo_alert gauge lands in the -metrics-out dump
// (the evidence `polygraphctl slo` exits nonzero on), and the bundle analyzer's
// SLO rule fails the captured bundle offline.
func TestRunSLOFaultDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model in-process")
	}
	dir := t.TempDir()
	specJSON := `{
  "name": "drill",
  "objectives": [
    {"name": "drill-lat", "kind": "latency", "endpoint": "/v1/collect", "target": 0.95, "threshold_us": 1024, "window_s": 60}
  ]
}`
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := &loadgen.Scenario{
		Name: "drill", Seed: 7, Pool: 64, FraudMix: 0.05, JSONMix: 0,
		Phases: []loadgen.Phase{
			{Name: "steady", Requests: 64, Concurrency: 2},
		},
	}
	scData, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(scPath, scData, 0o644); err != nil {
		t.Fatal(err)
	}
	metricsPath := filepath.Join(dir, "metrics.txt")
	bundlePath := filepath.Join(dir, "bundle.tgz")

	null := devNull(t)
	args := []string{
		"-scenario", scPath, "-train-sessions", "6000",
		"-slo-spec", specPath, "-fault-slow", "2ms",
		"-metrics-out", metricsPath, "-bundle-out", bundlePath,
	}
	if code := run(args, null, null); code != 0 {
		t.Fatalf("drill run exit %d", code)
	}

	// Every scored request sat behind the 2ms delay, far over the
	// 1024us threshold: the alert gauge must be tripped in the dump.
	dump, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), `polygraph_slo_alert{objective="drill-lat"} 1`) {
		t.Fatalf("metrics dump missing tripped alert gauge:\n%s", dump)
	}

	// The same breach is caught offline by the analyzer's SLO rule.
	spec, err := slo.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Open(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	var sloFails int
	for _, f := range bundle.Analyze(b, bundle.AnalyzeOptions{SLOSpec: spec}) {
		if f.Rule == bundle.RuleSLO && f.Severity == bundle.SeverityFail {
			sloFails++
		}
	}
	if sloFails == 0 {
		t.Fatal("bundle analyzer did not fail the SLO rule on the drilled bundle")
	}

	// Control: the same scenario without the fault stays green under
	// the same spec.
	metrics2 := filepath.Join(dir, "metrics-ok.txt")
	okArgs := []string{
		"-scenario", scPath, "-train-sessions", "6000",
		"-slo-spec", specPath, "-metrics-out", metrics2,
	}
	if code := run(okArgs, null, null); code != 0 {
		t.Fatalf("control run exit %d", code)
	}
	dump2, err := os.ReadFile(metrics2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump2), `polygraph_slo_alert{objective="drill-lat"} 0`) {
		t.Fatalf("control dump should export a quiet alert gauge:\n%s", dump2)
	}
}
