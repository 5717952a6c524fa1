package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// trainModel builds a small deterministic model; perUA varies the
// training set so two calls with different values yield distinct hashes.
func trainModel(t *testing.T, perUA int) (*core.Model, *fingerprint.Extractor) {
	t.Helper()
	oracle := browser.NewOracle()
	ext := fingerprint.NewExtractor(oracle, fingerprint.Table8())
	releases := []ua.Release{
		{Vendor: ua.Chrome, Version: 95}, {Vendor: ua.Chrome, Version: 112},
		{Vendor: ua.Chrome, Version: 114}, {Vendor: ua.Edge, Version: 112},
		{Vendor: ua.Firefox, Version: 95}, {Vendor: ua.Firefox, Version: 110},
	}
	var samples []core.Sample
	for _, r := range releases {
		for i := 0; i < perUA; i++ {
			p := browser.Profile{Release: r, OS: ua.Windows10}
			samples = append(samples, core.Sample{Vector: ext.Extract(p), UA: r})
		}
	}
	cfg := core.DefaultTrainConfig()
	cfg.K = 6
	cfg.Contamination = 0
	cfg.Reference = core.ExtractorReference{Extractor: ext, OS: ua.Windows10}
	m, _, err := core.Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ext
}

// buildFixture writes a model file plus a ledger of scored decisions and
// returns (ledgerDir, modelPath, flaggedTraceID).
func buildFixture(t *testing.T) (string, string) {
	t.Helper()
	m, ext := trainModel(t, 30)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	hash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := filepath.Join(dir, "audit")
	if err := os.MkdirAll(ledgerDir, 0o755); err != nil {
		t.Fatal(err)
	}
	led, err := audit.Open(audit.Config{Dir: ledgerDir})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		actual, claimed ua.Release
	}{
		{ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112}},
		{ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110}},
		{ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Release{Vendor: ua.Firefox, Version: 110}},
		{ua.Release{Vendor: ua.Chrome, Version: 114}, ua.Release{Vendor: ua.Chrome, Version: 95}},
	}
	for i, c := range cases {
		vec := ext.Extract(browser.Profile{Release: c.actual, OS: ua.Windows10})
		userAgent := ua.UserAgent(c.claimed, ua.Windows10)
		res, err := m.ScoreString(vec, userAgent)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := m.ExplainResult(vec, userAgent, res, core.DefaultExplainTopK)
		if err != nil {
			t.Fatal(err)
		}
		rec := audit.Record{
			TraceID:     "000000000000000" + string(rune('1'+i)),
			ModelHash:   hash,
			UserAgent:   userAgent,
			Vector:      vec,
			Verdict:     ex.Verdict,
			Explanation: ex,
		}
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return ledgerDir, modelPath
}

// runCmd runs `polygraphctl audit <args>`.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"audit"}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestAuditVerifyCleanLedger(t *testing.T) {
	dir, _ := buildFixture(t)
	code, out, errOut := runCmd(t, "verify", dir)
	if code != 0 {
		t.Fatalf("verify exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "verify OK") || !strings.Contains(out, "4 record(s)") {
		t.Fatalf("verify output: %s", out)
	}
}

func TestAuditVerifyTornTailAccepted(t *testing.T) {
	dir, _ := buildFixture(t)
	segs, err := audit.Segments(dir, "")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd(t, "verify", dir)
	if code != 0 {
		t.Fatalf("torn tail rejected: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "torn tail") {
		t.Fatalf("torn tail not reported: %s", out)
	}
}

func TestAuditVerifyDamagedSealedSegment(t *testing.T) {
	dir, modelPath := buildFixture(t)
	// Force a second segment so corruption lands in a sealed (non-final)
	// one, which is never a legitimate crash artifact.
	led, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := led.Append(audit.Record{UserAgent: "x", Verdict: core.Verdict{Flagged: true}}); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := audit.Segments(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected ≥2 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := runCmd(t, "verify", dir)
	if code != 1 {
		t.Fatalf("damaged ledger exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "DAMAGED") {
		t.Fatalf("damage not reported: %s", out)
	}

	// replay must refuse a damaged ledger too.
	code, _, errOut = runCmd(t, "replay", "-model", modelPath, dir)
	if code != 1 || !strings.Contains(errOut, "damaged") {
		t.Fatalf("replay on damaged ledger: exit %d, stderr %s", code, errOut)
	}
}

func TestAuditLsFilters(t *testing.T) {
	dir, _ := buildFixture(t)
	code, out, _ := runCmd(t, "ls", dir)
	if code != 0 {
		t.Fatalf("ls exit %d", code)
	}
	if n := strings.Count(out, "seq="); n != 4 {
		t.Fatalf("ls printed %d records, want 4:\n%s", n, out)
	}

	code, out, _ = runCmd(t, "ls", "-verdict", "flagged", dir)
	if code != 0 {
		t.Fatalf("ls -verdict flagged exit %d", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, "flagged=true") {
			t.Fatalf("non-flagged line in flagged filter: %q", line)
		}
	}

	code, out, _ = runCmd(t, "ls", "-n", "1", dir)
	if code != 0 || strings.Count(out, "seq=") != 1 {
		t.Fatalf("ls -n 1: exit %d\n%s", code, out)
	}

	code, out, _ = runCmd(t, "ls", "-trace", "0000000000000002", "-json", dir)
	if code != 0 || strings.Count(out, "\n") != 1 {
		t.Fatalf("ls -trace -json: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, `"trace_id":"0000000000000002"`) {
		t.Fatalf("trace filter output: %s", out)
	}

	if code, _, _ := runCmd(t, "ls", "-verdict", "suspicious", dir); code != 2 {
		t.Fatalf("bad -verdict exit %d, want 2", code)
	}
}

func TestAuditReplayCleanLedger(t *testing.T) {
	dir, modelPath := buildFixture(t)
	code, out, errOut := runCmd(t, "replay", "-model", modelPath, dir)
	if code != 0 {
		t.Fatalf("replay exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "replayed 4/4") || !strings.Contains(out, "100% of verdicts re-derived identically") {
		t.Fatalf("replay output: %s", out)
	}

	code, out, _ = runCmd(t, "replay", "-model", modelPath, "-explain", dir)
	if code != 0 || !strings.Contains(out, "100% of verdicts re-derived identically") {
		t.Fatalf("replay -explain exit %d\n%s", code, out)
	}
}

func TestAuditReplayWrongModel(t *testing.T) {
	dir, _ := buildFixture(t)
	other, _ := trainModel(t, 12)
	otherPath := filepath.Join(t.TempDir(), "other.json")
	f, err := os.Create(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, out, errOut := runCmd(t, "replay", "-model", otherPath, dir)
	if code != 1 {
		t.Fatalf("wrong-model replay exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "skipped 4 record(s)") || !strings.Contains(errOut, "no records matched the model hash") {
		t.Fatalf("wrong-model output:\nstdout: %s\nstderr: %s", out, errOut)
	}
}

func TestAuditReplayDetectsTamperedVerdict(t *testing.T) {
	m, ext := trainModel(t, 30)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	hash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := filepath.Join(dir, "audit")
	led, err := audit.Open(audit.Config{Dir: ledgerDir})
	if err != nil {
		t.Fatal(err)
	}
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	vec := ext.Extract(browser.Profile{Release: rel, OS: ua.Windows10})
	userAgent := ua.UserAgent(rel, ua.Windows10)
	res, err := m.ScoreString(vec, userAgent)
	if err != nil {
		t.Fatal(err)
	}
	verdict := core.VerdictOf(res)
	verdict.Flagged = !verdict.Flagged // the lie replay must catch
	if err := led.Append(audit.Record{ModelHash: hash, UserAgent: userAgent, Vector: vec, Verdict: verdict}); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := runCmd(t, "replay", "-model", modelPath, ledgerDir)
	if code != 1 {
		t.Fatalf("tampered replay exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "VERDICT DIVERGED") || !strings.Contains(errOut, "did not re-derive") {
		t.Fatalf("tamper not reported:\nstdout: %s\nstderr: %s", out, errOut)
	}
}

func TestAuditUsageErrors(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Fatal("no args accepted")
	}
	if code, _, _ := runCmd(t, "bogus"); code != 2 {
		t.Fatal("unknown subcommand accepted")
	}
	if code, _, _ := runCmd(t, "replay", t.TempDir()); code != 2 {
		t.Fatal("replay without -model accepted")
	}
	if code, _, _ := runCmd(t, "verify"); code != 2 {
		t.Fatal("verify without dir accepted")
	}
	if code, _, _ := runCmd(t, "verify", t.TempDir()); code != 2 {
		t.Fatal("verify on empty dir accepted")
	}
}
