package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCensusFixture runs the census over testdata/mod, a module with one
// of each case: an exported function with no caller but its test
// (delete), a recursive one that only calls itself (delete), one called
// only inside its package (unexport) and a constant nothing reads
// (delete) are reported; the error and fmt.Stringer implementations,
// the method of the type the root package aliases, the allowlisted
// function, the functions the root package uses and the constant only
// a test reads are not.
func TestCensusFixture(t *testing.T) {
	findings, err := census("testdata/mod", "allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/thing.Dead: no non-test use (delete)",
		"internal/thing.Local: used only in its own package (unexport)",
		"internal/thing.Recurse: no non-test use (delete)",
		"internal/thing.Unused: no use, tests included (delete)",
	}
	if len(findings) != len(want) {
		t.Fatalf("findings:\n%s\nwant %d", strings.Join(findings, "\n"), len(want))
	}
	for i, f := range findings {
		if !strings.HasPrefix(f, "internal/thing/thing.go:") || !strings.HasSuffix(f, ": "+want[i]) {
			t.Errorf("finding %d is %q, want internal/thing/thing.go:<line>:<col>: %s", i, f, want[i])
		}
	}
}

// TestStaleAllowlistEntry: an allowlist line that matches no finding is
// an error, so a name cannot stay listed after it is gone or used.
func TestStaleAllowlistEntry(t *testing.T) {
	_, err := census("testdata/mod", "stale-allowlist.txt")
	if err == nil || !strings.Contains(err.Error(), "internal/thing.Gone") || strings.Contains(err.Error(), "internal/thing.Oracle") {
		t.Fatalf("census with a stale entry: %v, want an error naming internal/thing.Gone alone", err)
	}
}

// TestAllowlistNeedsReason: a name without a reason is refused.
func TestAllowlistNeedsReason(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("internal/thing.Oracle\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(path); err == nil || !strings.Contains(err.Error(), "gives no reason") {
		t.Fatalf("allowlist without a reason: %v", err)
	}
}
