package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polygraph/internal/obs"
)

const cleanExpo = `# HELP polygraph_collections_total Fingerprint payloads scored.
# TYPE polygraph_collections_total counter
polygraph_collections_total 42
`

func TestLintCleanFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.txt")
	if err := os.WriteFile(path, []byte(cleanExpo), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"lint", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
}

func TestLintFlagsProblems(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.txt")
	if err := os.WriteFile(path, []byte("orphan_sample 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"lint", path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d for exposition with problems, stdout %q", code, out.String())
	}
}

func TestLintRequireMissingFamily(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.txt")
	if err := os.WriteFile(path, []byte(cleanExpo), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"lint", "-require", "polygraph_feature_psi", path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d when required family missing", code)
	}
}

// surfaceExposition renders one sample of every declared family on
// surface, skipping the family named skip.
func surfaceExposition(surface obs.Surface, skip string) []byte {
	var b bytes.Buffer
	for _, f := range obs.Families() {
		if f.Surface != surface || f.Name == skip {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		if f.Type == "histogram" {
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} 0\n%s_sum 0\n%s_count 0\n", f.Name, f.Name, f.Name)
		} else {
			fmt.Fprintf(&b, "%s 0\n", f.Name)
		}
	}
	return b.Bytes()
}

// TestLintRequireSurface: -require takes a surface name, and an
// exposition missing any one family of that surface fails the lint.
func TestLintRequireSurface(t *testing.T) {
	for _, surface := range obs.Surfaces {
		t.Run(string(surface), func(t *testing.T) {
			dir := t.TempDir()
			lint := func(expo []byte) (int, string) {
				path := filepath.Join(dir, "m.txt")
				if err := os.WriteFile(path, expo, 0o644); err != nil {
					t.Fatal(err)
				}
				var out, errb bytes.Buffer
				code := run([]string{"lint", "-require", " " + string(surface) + ",", path}, &out, &errb)
				return code, out.String() + errb.String()
			}
			if code, out := lint(surfaceExposition(surface, "")); code != 0 {
				t.Fatalf("exit %d for a complete %s exposition:\n%s", code, surface, out)
			}
			for _, name := range obs.RequiredFamilies(string(surface)) {
				code, out := lint(surfaceExposition(surface, name))
				if code != 1 || !strings.Contains(out, "required family "+name+" absent") {
					t.Errorf("exit %d without %s:\n%s", code, name, out)
				}
			}
		})
	}
}

func TestLintUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"lint"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d with no source argument", code)
	}
}
