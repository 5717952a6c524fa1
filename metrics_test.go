package polygraph_test

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"polygraph/internal/obs"
)

var updateReadme = flag.Bool("update", false, "rewrite README.md's metric family table from internal/obs")

const (
	tableBegin = "<!-- metric families: rendered from internal/obs/families.go; go test . -run FamilyTable -update -->\n"
	tableEnd   = "<!-- end metric families -->\n"
)

// familyTable renders the registry as README's table.
func familyTable() string {
	var b strings.Builder
	b.WriteString("| Family | Type | Labels | Surface | Meaning |\n|---|---|---|---|---|\n")
	for _, f := range obs.Families() {
		labels, surface := "", string(f.Surface)
		if len(f.Labels) > 0 {
			labels = "`" + strings.Join(f.Labels, "`, `") + "`"
		}
		if surface == "" {
			surface = "optional"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", f.Name, f.Type, labels, surface, f.Help)
	}
	return b.String()
}

// TestReadmeFamilyTable: README's metric family table is the registry,
// rendered.
func TestReadmeFamilyTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	i, j := strings.Index(readme, tableBegin), strings.Index(readme, tableEnd)
	if i < 0 || j < i {
		t.Fatalf("README.md has no %q … %q block", tableBegin, tableEnd)
	}
	i += len(tableBegin)
	want := familyTable()
	if *updateReadme {
		if err := os.WriteFile("README.md", []byte(readme[:i]+want+readme[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := readme[i:j]; got != want {
		t.Fatalf("README.md's family table is stale; run go test . -run FamilyTable -update\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestBenchCounterFamiliesDeclared: every family the benchmark
// reconciles its counters against (bench/seam.go's counterSamples) is
// declared, so a rename fails here rather than in a benchmark run.
func TestBenchCounterFamiliesDeclared(t *testing.T) {
	src, err := os.ReadFile("bench/seam.go")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile(`(?s)var counterSamples = [^{]*\{(.*?)\n\}`).FindSubmatch(src)
	if block == nil {
		t.Fatal("bench/seam.go declares no counterSamples")
	}
	declared := map[string]bool{}
	for _, f := range obs.Families() {
		declared[f.Name] = true
	}
	names := regexp.MustCompile(`"([a-z0-9_]+)"`).FindAllSubmatch(block[1], -1)
	if len(names) == 0 {
		t.Fatal("counterSamples names no sample")
	}
	for _, m := range names {
		name := string(m[1])
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !declared[family] {
			t.Errorf("bench/seam.go reads %s, but no family %s is declared in internal/obs", name, family)
		}
	}
}
