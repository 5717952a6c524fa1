package bundle

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzBundleRead hardens the offline reader, which `polygraphctl bundle
// analyze` runs on whatever file it is handed: Read never panics, a
// bundle it accepts has a manifest of a format it knows, and Analyze runs
// the whole rule catalog over it without panicking. The committed seeds
// (testdata/fuzz/FuzzBundleRead) are a Builder-written bundle of one
// replica, its first half (truncated gzip), a tar with no manifest and a
// bundle of a newer FormatVersion; TestBundleReadSeeds pins what each
// reads as.
func FuzzBundleRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if b.Manifest.FormatVersion > FormatVersion {
			t.Fatalf("accepted format version %d, newer than %d", b.Manifest.FormatVersion, FormatVersion)
		}
		if findings := Analyze(b, AnalyzeOptions{}); len(findings) == 0 {
			t.Fatal("Analyze reported nothing")
		}
	})
}

// TestBundleReadSeeds keeps the committed FuzzBundleRead seeds what their
// names say: each is refused with its message, or reads and analyzes
// clean.
func TestBundleReadSeeds(t *testing.T) {
	for name, msg := range map[string]string{
		"builder":        "",
		"truncated-gzip": "unexpected EOF",
		"no-manifest":    "manifest.json missing",
		"newer-version":  "newer than supported",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBundleRead", name))
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("seed %s is not one []byte in the fuzz corpus format: %v", name, err)
		}
		b, err := Read(strings.NewReader(data))
		switch {
		case msg == "" && err != nil:
			t.Errorf("seed %s: %v", name, err)
		case msg == "" && hasFailure(Analyze(b, AnalyzeOptions{})):
			t.Errorf("seed %s: a finding failed: %v", name, Analyze(b, AnalyzeOptions{}))
		case msg != "" && (err == nil || !strings.Contains(err.Error(), msg)):
			t.Errorf("seed %s: %v, want an error containing %q", name, err, msg)
		}
	}
}
