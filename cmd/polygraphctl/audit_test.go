package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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
	return trainModelNovelty(t, perUA, false)
}

func trainModelNovelty(t *testing.T, perUA int, novelty bool) (*core.Model, *fingerprint.Extractor) {
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
	if novelty {
		// Fewer clusters than distinct surfaces, so members sit off their
		// centroid and the guard's threshold is above zero: armed.
		cfg.K, cfg.NoveltyGuard = 4, true
	}
	cfg.Reference = core.ExtractorReference{Extractor: ext, OS: ua.Windows10}
	m, _, err := core.Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ext
}

// saveModel writes m to a new file and returns its path.
func saveModel(t *testing.T, m *core.Model) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fixtureCases are the sessions the fixture ledgers hold: honest, a
// cross-vendor lie, honest, a version lie.
var fixtureCases = []struct{ actual, claimed ua.Release }{
	{ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112}},
	{ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110}},
	{ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Release{Vendor: ua.Firefox, Version: 110}},
	{ua.Release{Vendor: ua.Chrome, Version: 114}, ua.Release{Vendor: ua.Chrome, Version: 95}},
}

// explainedRecords scores and explains the fixture sessions through m:
// the records as the request path built them when it stored explanations.
func explainedRecords(t *testing.T, m *core.Model, ext *fingerprint.Extractor) []audit.Record {
	t.Helper()
	hash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var recs []audit.Record
	for i, c := range fixtureCases {
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
		recs = append(recs, audit.Record{
			TraceID:     "000000000000000" + string(rune('1'+i)),
			ModelHash:   hash,
			UserAgent:   userAgent,
			Vector:      vec,
			Verdict:     ex.Verdict,
			Explanation: ex,
		})
	}
	return recs
}

// appendLean appends recs to the ledger in dir the way a replica does:
// m archived first, then the records, which Append stores without their
// explanations.
func appendLean(t *testing.T, dir string, m *core.Model, recs []audit.Record) {
	t.Helper()
	led, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := led.ArchiveModel(m); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeOldSegment writes recs, explanations included, as segment 0 of a
// new ledger in dir: the format of segments from before explanations
// were derived on read. Such a ledger directory holds no model archive.
func writeOldSegment(t *testing.T, dir string, recs []audit.Record) {
	t.Helper()
	var seg []byte
	for i := range recs {
		recs[i].Seq = uint64(i)
		body, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		seg = binary.BigEndian.AppendUint32(seg, uint32(len(body)))
		seg = binary.BigEndian.AppendUint32(seg, crc32.ChecksumIEEE(body))
		seg = append(seg, body...)
	}
	if err := os.WriteFile(filepath.Join(dir, "decisions.000000.audit"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildFixture writes a model file plus a ledger of scored decisions and
// returns (ledgerDir, modelPath).
func buildFixture(t *testing.T) (string, string) {
	t.Helper()
	m, ext := trainModel(t, 30)
	ledgerDir := filepath.Join(t.TempDir(), "audit")
	appendLean(t, ledgerDir, m, explainedRecords(t, m, ext))
	return ledgerDir, saveModel(t, m)
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

	code, out, _ = runCmd(t, "replay", "-model", modelPath, dir)
	if code != 0 || !strings.Contains(out, "100% of verdicts re-derived identically") {
		t.Fatalf("replay exit %d\n%s", code, out)
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

// TestAuditReplayJudgesEveryRecordOfAClass: three records lie about
// their verdict and three tell the truth, all of one fingerprint,
// interleaved liars first. Each liar is reported under its own seq and
// trace, and no truthful record is, so replay does not carry one record's
// outcome over to another record's claim.
func TestAuditReplayJudgesEveryRecordOfAClass(t *testing.T) {
	m, ext := trainModel(t, 30)
	modelPath := saveModel(t, m)
	hash, err := m.Hash()
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
	truth := core.VerdictOf(res)
	lie := truth
	lie.Flagged = !lie.Flagged
	var recs []audit.Record
	for i := 0; i < 6; i++ {
		v := truth
		if i%2 == 0 {
			v = lie
		}
		recs = append(recs, audit.Record{TraceID: fmt.Sprintf("%016x", i+1), ModelHash: hash, UserAgent: userAgent, Vector: vec, Verdict: v})
	}
	dir := filepath.Join(t.TempDir(), "audit")
	appendLean(t, dir, m, recs)

	for _, args := range [][]string{{"replay", dir}, {"replay", "-model", modelPath, dir}} {
		code, out, errOut := runCmd(t, args...)
		if code != 1 || strings.Count(out, "VERDICT DIVERGED") != 3 || !strings.Contains(out, "replayed 6/6") ||
			!strings.Contains(errOut, "3 verdict(s) did not re-derive") {
			t.Fatalf("%v: exit %d\n%s%s", args, code, out, errOut)
		}
		for i := range recs {
			line := fmt.Sprintf("seq=%d trace=%016x: VERDICT DIVERGED", i, i+1)
			if liar := i%2 == 0; strings.Contains(out, line) != liar || strings.Contains(out, fmt.Sprintf("seq=%d ", i)) != liar {
				t.Fatalf("%v: record %d (a liar: %v) misreported:\n%s", args, i, liar, out)
			}
		}
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

// TestAuditLsJSONPrintsWhatTheOldFormatStored is the differential the
// lean format rests on: for honest, lying and junk claims, real and
// alien vectors, plain and novelty-armed models, `ls -json` over lean
// records plus the archive prints, byte for byte, what it prints over
// the same records as the request path used to store them — explanation
// computed at write time.
func TestAuditLsJSONPrintsWhatTheOldFormatStored(t *testing.T) {
	for _, novelty := range []bool{false, true} {
		m, ext := trainModelNovelty(t, 25, novelty)
		old := explainedRecords(t, m, ext)
		hash := old[0].ModelHash
		for i, claim := range []string{"", "not a browser", "Mozilla/5.0 Chrome/300.0.0.0", `"<junk>\x00` + "\xff",
			ua.UserAgent(ua.Release{Vendor: ua.Edge, Version: 112}, ua.Windows10),
			ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 95}, ua.Windows10)} {
			vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Firefox, Version: 95 + i}, OS: ua.Windows10})
			if i%2 == 1 { // an alien surface: the novelty guard's case, when the claim parses
				for j := range vec {
					vec[j] += float64(50 * (j + 1))
				}
			}
			res, err := m.ScoreString(vec, claim)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := m.ExplainResult(vec, claim, res, 0)
			if err != nil {
				t.Fatal(err)
			}
			old = append(old, audit.Record{TimeNs: int64(i + 1), SessionID: "s", Endpoint: "/v1/collect",
				ModelHash: hash, UserAgent: claim, Vector: vec, Verdict: ex.Verdict, Explanation: ex})
		}
		if novelty {
			tripped := false
			for _, rec := range old {
				tripped = tripped || rec.Verdict.Novel
			}
			if !tripped {
				t.Fatal("fixture: no session trips the novelty guard")
			}
		}
		oldDir, dir := t.TempDir(), t.TempDir()
		writeOldSegment(t, oldDir, old)
		appendLean(t, dir, m, old)
		code, want, errOut := runCmd(t, "ls", "-json", oldDir)
		if code != 0 || strings.Count(want, `"explanation":{"schema":1`) != len(old) {
			t.Fatalf("ls -json over the old format exit %d: %s", code, errOut)
		}
		code, got, errOut := runCmd(t, "ls", "-json", dir)
		if code != 0 {
			t.Fatalf("ls -json exit %d: %s", code, errOut)
		}
		wantLines, gotLines := strings.Split(want, "\n"), strings.Split(got, "\n")
		if len(gotLines) != len(wantLines) {
			t.Fatalf("ls -json printed %d lines, the old format %d", len(gotLines), len(wantLines))
		}
		for i := range wantLines {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("novelty=%v record %d differs from the old format:\n got %s\nwant %s", novelty, i, gotLines[i], wantLines[i])
			}
		}
		// What is on disk holds none of it.
		seg, err := os.ReadFile(filepath.Join(dir, "decisions.000000.audit"))
		if err != nil || bytes.Contains(seg, []byte("explanation")) {
			t.Fatalf("the segment stores an explanation (read error %v)", err)
		}
	}
}

// TestAuditMixedLedger: a segment from before explanations were derived,
// then lean appends after a reopen. Open resumes the sequence, and
// verify, ls and replay pass over both halves — the old half
// compared byte for byte against what it stores.
func TestAuditMixedLedger(t *testing.T) {
	m, ext := trainModel(t, 30)
	modelPath := saveModel(t, m)
	recs := explainedRecords(t, m, ext)
	dir := t.TempDir()
	writeOldSegment(t, dir, recs)

	// The parent's ledger as it stands: no archive, and none needed while
	// every record carries its explanation.
	if code, out, errOut := runCmd(t, "verify", dir); code != 0 {
		t.Fatalf("verify of an old-format ledger exit %d\n%s%s", code, out, errOut)
	}
	if code, out, errOut := runCmd(t, "replay", "-model", modelPath, dir); code != 0 || !strings.Contains(out, "replayed 4/4") {
		t.Fatalf("replay -model of an old-format ledger exit %d\n%s%s", code, out, errOut)
	}
	_, oldJSON, _ := runCmd(t, "ls", "-json", dir)
	// Without -model there is no archive to replay through: loud, not skipped.
	if code, out, errOut := runCmd(t, "replay", dir); code != 1 || !strings.Contains(out, recs[0].ModelHash) || !strings.Contains(errOut, "without an intact archive") {
		t.Fatalf("replay of an unarchived ledger exit %d\n%s%s", code, out, errOut)
	}

	appendLean(t, dir, m, recs)
	if code, out, errOut := runCmd(t, "verify", dir); code != 0 || !strings.Contains(out, "8 record(s)") {
		t.Fatalf("verify exit %d\n%s%s", code, out, errOut)
	}
	for _, args := range [][]string{{"replay", dir}, {"replay", "-model", modelPath, dir}} {
		if code, out, errOut := runCmd(t, args...); code != 0 || !strings.Contains(out, "replayed 8/8") {
			t.Fatalf("%v exit %d\n%s%s", args, code, out, errOut)
		}
	}
	code, out, errOut := runCmd(t, "ls", "-json", dir)
	if code != 0 {
		t.Fatalf("ls -json exit %d: %s", code, errOut)
	}
	lines := strings.SplitAfter(out, "\n")
	if len(lines) != 9 || strings.Join(lines[:4], "") != oldJSON {
		t.Fatalf("ls -json printed %d lines; the old half must print as before:\n%s", len(lines)-1, out)
	}
	for i := 0; i < 4; i++ {
		// The lean half continues the sequence and reads like the old one.
		want := strings.Replace(lines[i], `{"seq":`+string(rune('0'+i)), `{"seq":`+string(rune('4'+i)), 1)
		if lines[4+i] != want {
			t.Fatalf("record %d:\n got %s\nwant %s", 4+i, lines[4+i], want)
		}
	}

	// A stored explanation that no longer matches its inputs is caught.
	tampered := explainedRecords(t, m, ext)
	tampered[1].Explanation.TopFeatures[0].Z += 1
	dir2 := t.TempDir()
	writeOldSegment(t, dir2, tampered)
	if code, out, _ := runCmd(t, "replay", "-model", modelPath, dir2); code != 1 || !strings.Contains(out, "seq=1") || !strings.Contains(out, "EXPLANATION DIVERGED") {
		t.Fatalf("tampered stored explanation: exit %d\n%s", code, out)
	}
}

// TestAuditUnresolvableModelIsLoud: a lean record is only as explainable
// as its model's archive. Missing, truncated or bit-flipped, verify names
// the hash and exits 1, ls -json prints the records without explanations
// and exits 1, replay needs -model — never an explanation from bytes
// that do not hash to the name on the record.
func TestAuditUnresolvableModelIsLoud(t *testing.T) {
	dir, modelPath := buildFixture(t)
	names, err := filepath.Glob(filepath.Join(dir, "model.*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("archives: %v %v", names, err)
	}
	hash := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(names[0]), "model."), ".json")
	intact, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/2] ^= 0x04
	for name, data := range map[string][]byte{"truncated": intact[:len(intact)/2], "bit-flipped": flipped, "missing": nil} {
		if data == nil {
			err = os.Remove(names[0])
		} else {
			err = os.WriteFile(names[0], data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		code, out, errOut := runCmd(t, "verify", dir)
		if code != 1 || !strings.Contains(out, "UNRESOLVED model "+hash) || !strings.Contains(errOut, "verify FAILED") || strings.Contains(out, "verify OK") {
			t.Fatalf("%s archive: verify exit %d\n%s%s", name, code, out, errOut)
		}
		code, out, errOut = runCmd(t, "ls", "-json", dir)
		if code != 1 || strings.Count(out, "\n") != 4 || strings.Contains(out, "explanation") || !strings.Contains(errOut, hash) {
			t.Fatalf("%s archive: ls -json exit %d\n%s%s", name, code, out, errOut)
		}
		if code, out, errOut = runCmd(t, "replay", dir); code != 1 || !strings.Contains(out, "UNRESOLVED model "+hash) {
			t.Fatalf("%s archive: replay exit %d\n%s%s", name, code, out, errOut)
		}
		// The operator's copy of the model still replays the ledger.
		if code, out, errOut = runCmd(t, "replay", "-model", modelPath, dir); code != 0 {
			t.Fatalf("%s archive: replay -model exit %d\n%s%s", name, code, out, errOut)
		}
		// The plain listing derives nothing and does not need the archive.
		if code, _, errOut = runCmd(t, "ls", dir); code != 0 {
			t.Fatalf("%s archive: ls exit %d: %s", name, code, errOut)
		}
	}
}

// TestAuditReplayEachRecordThroughItsOwnModel: a ledger written across a
// model swap replays, without -model, every record through the model its
// hash names; with -model, the other model's records are skipped as
// before.
func TestAuditReplayEachRecordThroughItsOwnModel(t *testing.T) {
	m1, ext := trainModel(t, 30)
	m2, _ := trainModelNovelty(t, 12, true)
	dir := t.TempDir()
	appendLean(t, dir, m1, explainedRecords(t, m1, ext))
	appendLean(t, dir, m2, explainedRecords(t, m2, ext))

	code, out, errOut := runCmd(t, "replay", dir)
	if code != 0 || !strings.Contains(out, "replayed 8/8 record(s), each against its archived model") {
		t.Fatalf("replay exit %d\n%s%s", code, out, errOut)
	}
	code, out, errOut = runCmd(t, "replay", "-model", saveModel(t, m2), dir)
	if code != 0 || !strings.Contains(out, "replayed 4/8") || !strings.Contains(out, "skipped 4 record(s)") {
		t.Fatalf("replay -model exit %d\n%s%s", code, out, errOut)
	}
	if code, out, errOut = runCmd(t, "verify", dir); code != 0 || !strings.Contains(out, "2 model(s)") {
		t.Fatalf("verify exit %d\n%s%s", code, out, errOut)
	}
}

// TestAuditLsStopsAtN: ls -n N reads no further than the Nth match, so
// damage past it is not its business; damage before it still is, and a
// full listing still reports it.
func TestAuditLsStopsAtN(t *testing.T) {
	dir, _ := buildFixture(t)
	led, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := led.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := led.Append(audit.Record{UserAgent: "x", Verdict: core.Verdict{Flagged: true}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := audit.Segments(dir, "")
	if err != nil || len(segs) != 3 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	corrupt := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(segs[1])
	code, out, errOut := runCmd(t, "ls", "-n", "1", dir)
	if code != 0 || strings.Count(out, "seq=") != 1 || errOut != "" {
		t.Fatalf("ls -n 1 with damage past the stop: exit %d\n%s%s", code, out, errOut)
	}
	if code, out, _ = runCmd(t, "ls", "-n", "4", "-json", dir); code != 0 || strings.Count(out, "\n") != 4 {
		t.Fatalf("ls -n 4 -json: exit %d\n%s", code, out)
	}
	if code, _, errOut = runCmd(t, "ls", dir); code != 1 || !strings.Contains(errOut, "damaged") {
		t.Fatalf("ls over a damaged ledger: exit %d, stderr %s", code, errOut)
	}
	// Five matches need the damaged segment read.
	if code, _, _ = runCmd(t, "ls", "-n", "5", dir); code != 1 {
		t.Fatalf("ls -n 5 reading through the damage: exit %d", code)
	}
	corrupt(segs[0])
	if code, out, _ = runCmd(t, "ls", "-n", "1", "-verdict", "flagged", dir); code != 1 {
		t.Fatalf("ls -n 1 with damage before the stop: exit %d\n%s", code, out)
	}
}

// TestAuditJSONClassSegmentResumedPacked: a segment the writer before
// packed records wrote (internal/audit's committed fixture: class frames,
// records of a class in JSON, one inline record, and the archive of its
// model) verifies, lists and replays; resumed, it takes packed records in
// the same file, and verify, ls and replay, with and without
// -model, pass over the mixed segment, the old records printing as before.
func TestAuditJSONClassSegmentResumedPacked(t *testing.T) {
	const hash = "53871f274906354f37faa324c4bd702f"
	dir := t.TempDir()
	archive := filepath.Join(dir, "model."+hash+".json")
	for from, to := range map[string]string{
		"jsonclass.000000.audit":  filepath.Join(dir, "decisions.000000.audit"),
		"model." + hash + ".json": archive,
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "audit", "testdata", from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(records string) string {
		t.Helper()
		if code, out, errOut := runCmd(t, "verify", dir); code != 0 || !strings.Contains(out+errOut, records+" record(s)") {
			t.Fatalf("verify exit %d\n%s%s", code, out, errOut)
		}
		for _, args := range [][]string{{"replay", dir}, {"replay", "-model", archive, dir}} {
			if code, out, errOut := runCmd(t, args...); code != 0 || !strings.Contains(out, "replayed "+records+"/"+records) {
				t.Fatalf("%v exit %d\n%s%s", args, code, out, errOut)
			}
		}
		code, out, errOut := runCmd(t, "ls", "-json", dir)
		if code != 0 {
			t.Fatalf("ls -json exit %d: %s", code, errOut)
		}
		return out
	}
	before := check("7")

	m, err := audit.NewResolver(dir).Model(hash)
	if err != nil {
		t.Fatal(err)
	}
	var old []audit.Record
	if _, err := audit.Scan(dir, "", func(r audit.Record) error {
		old = append(old, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	led, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range old {
		rec.TraceID, rec.Endpoint = "", "/v1/collect"
		if i == 3 { // the inline one: now a record of a class the segment defines
			rec.VectorSHA256, rec.VectorDim = "", 0
		}
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// And a class the segment does not define yet.
	vec := slices.Clone(old[0].Vector)
	vec[0]++
	res, err := m.ScoreString(vec, old[0].UserAgent)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Append(audit.Record{ModelHash: hash, UserAgent: old[0].UserAgent, Vector: vec, Verdict: core.VerdictOf(res)}); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, err := audit.Segments(dir, ""); err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want the resumed one alone", segs, err)
	}
	after := check("15")
	if !strings.HasPrefix(after, before) || strings.Count(after, "\n") != 15 {
		t.Fatalf("ls -json over the mixed segment:\n%s\nthe old records printed\n%s", after, before)
	}
}
