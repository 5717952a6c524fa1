package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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

func TestLintRequireFile(t *testing.T) {
	dir := t.TempDir()
	expo := filepath.Join(dir, "m.txt")
	if err := os.WriteFile(expo, []byte(cleanExpo), 0o644); err != nil {
		t.Fatal(err)
	}
	list := filepath.Join(dir, "families.txt")
	if err := os.WriteFile(list, []byte("# ci contract\npolygraph_collections_total\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"lint", "-require-file", list, expo}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with satisfied require-file, stderr %q", code, errb.String())
	}

	// A listed family that is absent must fail the lint.
	if err := os.WriteFile(list, []byte("polygraph_collections_total\npolygraph_feature_psi\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"lint", "-require-file", list, expo}, &out, &errb); code != 1 {
		t.Fatalf("exit %d when require-file family missing", code)
	}

	// The flag repeats: every list must hold, not just the last one.
	ok := filepath.Join(dir, "ok.txt")
	if err := os.WriteFile(ok, []byte("polygraph_collections_total\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"lint", "-require-file", list, "-require-file", ok, expo}, &out, &errb); code != 1 {
		t.Fatalf("exit %d when the first of two require-files is unmet", code)
	}
	if code := run([]string{"lint", "-require-file", ok, "-require-file", ok, expo}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with two satisfied require-files", code)
	}

	// Missing or empty list files are usage errors, not silent passes.
	if code := run([]string{"lint", "-require-file", filepath.Join(dir, "nope.txt"), expo}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for missing require-file", code)
	}
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"lint", "-require-file", empty, expo}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for empty require-file", code)
	}
}

func TestLintUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"lint"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d with no source argument", code)
	}
}
