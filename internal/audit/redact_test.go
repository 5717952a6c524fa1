package audit

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"polygraph/internal/core"
)

// These tests pin the redaction contract the support bundle relies on:
// what leaves the host by default is hashes, never raw fingerprints.

func TestRedactUAFormat(t *testing.T) {
	ua := "Mozilla/5.0 (X11; Linux x86_64) TestBrowser/1.0"
	got := redactUA(ua)
	sum := sha256.Sum256([]byte(ua))
	want := fmt.Sprintf("sha256:%x#%d", sum[:8], len(ua))
	if got != want {
		t.Fatalf("redactUA = %q, want %q", got, want)
	}
	if strings.Contains(got, "Mozilla") {
		t.Fatal("redacted UA leaks original content")
	}
	if redactUA("") != "" {
		t.Fatal("empty UA must stay empty")
	}
	// Equal UAs redact identically (matchable), different ones differ.
	if redactUA(ua) != got {
		t.Fatal("redactUA not deterministic")
	}
	if redactUA(ua+"x") == got {
		t.Fatal("distinct UAs collide")
	}
}

func TestVectorDigest(t *testing.T) {
	a := []float64{1, 2.5, -3}
	if vectorDigest(a) != vectorDigest([]float64{1, 2.5, -3}) {
		t.Fatal("identical vectors digest differently")
	}
	if vectorDigest(a) == vectorDigest([]float64{1, 2.5, -3.0001}) {
		t.Fatal("distinct vectors collide")
	}
	if vectorDigest(nil) != "" || vectorDigest([]float64{}) != "" {
		t.Fatal("empty vector must digest to empty string")
	}
	if len(vectorDigest(a)) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(vectorDigest(a)))
	}
}

func TestRedactRecord(t *testing.T) {
	rec := Record{
		TimeNs:      123,
		ModelHash:   "abc",
		SessionID:   "s1",
		UserAgent:   "EvilBot/2.0",
		Endpoint:    "/v1/collect",
		Vector:      []float64{4, 5, 6},
		Verdict:     core.Verdict{Flagged: true, RiskFactor: 9},
		Explanation: &core.Explanation{Claim: "EvilBot/2.0"},
	}
	red := redactRecord(rec)
	if !red.Redacted {
		t.Fatal("Redacted flag not set")
	}
	if red.UserAgent == rec.UserAgent || !strings.HasPrefix(red.UserAgent, "sha256:") {
		t.Fatalf("UserAgent not hashed: %q", red.UserAgent)
	}
	if red.Vector != nil {
		t.Fatal("Vector survived redaction")
	}
	if red.VectorSHA256 != vectorDigest(rec.Vector) || red.VectorDim != 3 {
		t.Fatalf("vector digest/dim = %q/%d", red.VectorSHA256, red.VectorDim)
	}
	if red.Explanation != nil {
		t.Fatal("Explanation survived redaction (it reconstructs feature values)")
	}
	// Fields that carry no fingerprint survive untouched.
	if red.TimeNs != 123 || red.ModelHash != "abc" || red.SessionID != "s1" ||
		red.Endpoint != "/v1/collect" || !red.Verdict.Flagged {
		t.Fatalf("non-sensitive fields mangled: %+v", red)
	}
	// Idempotent: re-redacting changes nothing (the UA is not re-hashed).
	if again := redactRecord(red); again.UserAgent != red.UserAgent || !again.Redacted {
		t.Fatalf("redaction not idempotent: %+v", again)
	}
	// Original untouched (value semantics).
	if rec.Vector == nil || rec.Explanation == nil {
		t.Fatal("redactRecord mutated its input")
	}
}

func TestRedactRecordsJSONHasNoRawFingerprint(t *testing.T) {
	recs := []Record{
		{UserAgent: "SecretAgent/1.0", Vector: []float64{7, 8}},
		{UserAgent: "", Vector: nil},
	}
	out, err := json.Marshal(RedactRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if strings.Contains(s, "SecretAgent") {
		t.Fatalf("serialized redacted records leak the UA: %s", s)
	}
	if strings.Contains(s, `"vector"`) {
		t.Fatalf("serialized redacted records carry a raw vector: %s", s)
	}
	if !strings.Contains(s, `"redacted":true`) {
		t.Fatalf("redacted flag missing from JSON: %s", s)
	}
}
