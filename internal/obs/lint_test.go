package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestLintCleanExposition(t *testing.T) {
	var b bytes.Buffer
	WriteBuildInfo(&b)
	FamCollections.Write(&b, 42)
	FamRejected.WriteSeries(&b, []LabeledValue{{Label: "decode", Value: 1}, {Label: "score", Value: 0}})
	var h Hist
	h.Record(3 * time.Microsecond)
	h.Record(900 * time.Microsecond)
	FamScoreDuration.WriteHistogram(&b, []HistogramSeries{HistogramSnapshot("/v1/collect", &h)})

	problems, err := Lint(bytes.NewReader(b.Bytes()),
		"polygraph_build_info", "polygraph_collections_total",
		"polygraph_rejected_total", "polygraph_score_duration_microseconds")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean exposition flagged: %v", problems)
	}
}

func TestLintCatchesMalformations(t *testing.T) {
	cases := []struct {
		name, expo, want string
	}{
		{"no help", "orphan 1\n", "without # HELP"},
		{"bad type", "# HELP m x\n# TYPE m wat\nm 1\n", "unknown TYPE"},
		{"bad name", "# HELP m x\n# TYPE m counter\n9bad{} 1\n", "invalid metric name"},
		{"type after sample", "# HELP m x\nm 1\n# TYPE m counter\n", "after its samples"},
		{"bad value", "# HELP m x\n# TYPE m gauge\nm nope-1x\n", "unparseable value"},
		{
			"decreasing buckets",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\n",
			"cumulative count decreases",
		},
		{
			"missing inf",
			"# HELP h x\n# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n",
			`missing terminal le="+Inf"`,
		},
		{
			"count disagrees",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 4\n",
			"_count 4 != +Inf bucket 5",
		},
		{
			"le not increasing",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\n",
			"not increasing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems, err := Lint(strings.NewReader(tc.expo))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				if strings.Contains(p.Msg, tc.want) {
					return
				}
			}
			t.Fatalf("want a problem containing %q, got %v", tc.want, problems)
		})
	}
}

func TestLintRequiredFamilies(t *testing.T) {
	expo := "# HELP a x\n# TYPE a counter\na 1\n"
	problems, err := Lint(strings.NewReader(expo), "a", "missing_family")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Msg, "missing_family") {
		t.Fatalf("problems = %v", problems)
	}
	// A histogram family counts as present via its component samples.
	var b bytes.Buffer
	var h Hist
	h.Record(time.Millisecond)
	histFam := &Family{Name: "hist_fam", Help: "x", Type: "histogram", Labels: []string{"endpoint"}}
	histFam.WriteHistogram(&b, []HistogramSeries{HistogramSnapshot("e", &h)})
	problems, err = Lint(&b, "hist_fam")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("histogram family not counted as present: %v", problems)
	}
}

func TestEscapeLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`a\b`, `a\\b`},
		{"a\nb", `a\nb`},
		{`a"b`, `a\"b`},
		{"a\"b\\c\nd", `a\"b\\c\nd`},
		{"plain", "plain"},
	} {
		if got := escapeLabel(tc.in); got != tc.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// A value with nothing to escape, the common case, costs nothing.
	if n := testing.AllocsPerRun(100, func() { escapeLabel("/v1/collect-json") }); n != 0 {
		t.Fatalf("escapeLabel of a plain value allocates %v times", n)
	}
}

func TestHistogramFamilyCountMatchesBuckets(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	snap := HistogramSnapshot("e", &h)
	var total uint64
	for _, c := range snap.Buckets {
		total += c
	}
	if total != 100 {
		t.Fatalf("snapshot holds %d observations, want 100", total)
	}
	var b bytes.Buffer
	f := &Family{Name: "f", Help: "x", Type: "histogram", Labels: []string{"endpoint"}}
	f.WriteHistogram(&b, []HistogramSeries{snap})
	out := b.String()
	if !strings.Contains(out, `f_bucket{endpoint="e",le="+Inf"} 100`) {
		t.Fatalf("terminal bucket missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, `f_count{endpoint="e"} 100`) {
		t.Fatalf("_count not derived from the same snapshot:\n%s", out)
	}
}
