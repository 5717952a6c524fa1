package obs

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// The parser is the read half of the writers in prom.go; these tests
// pin the round trip the support-bundle analyzers and loadgen both
// depend on.

func TestParseExpositionBasics(t *testing.T) {
	var b strings.Builder
	FamCollections.Write(&b, 42)
	FamRejected.WriteSeries(&b, []LabeledValue{{Label: "decode", Value: 3}, {Label: "too_large", Value: 5}})

	ex := ParseExpositionString(b.String())
	if v, err := ex.Value("polygraph_collections_total"); err != nil || v != 42 {
		t.Fatalf("Value = %v, %v; want 42, nil", v, err)
	}
	if got := ex.Sum("polygraph_rejected_total"); got != 8 {
		t.Fatalf("Sum(rejected) = %v, want 8", got)
	}
	samples := ex.Samples("polygraph_rejected_total")
	if len(samples) != 2 || samples[0].Label("reason") != "decode" || samples[1].Value != 5 {
		t.Fatalf("Samples(rejected) = %+v", samples)
	}
	if !ex.Has("polygraph_collections_total") || ex.Has("polygraph_missing") {
		t.Fatal("Has() misreports family presence")
	}
}

func TestValueMissingMetric(t *testing.T) {
	ex := ParseExpositionString("polygraph_x{a=\"b\"} 1\n")
	if _, err := ex.Value("polygraph_x"); err == nil {
		t.Fatal("Value on a labeled-only family should error (no unlabeled sample)")
	}
	if _, err := ex.Value("polygraph_absent"); err == nil {
		t.Fatal("Value on an absent family should error")
	}
}

func TestParseExpositionSkipsMalformedLines(t *testing.T) {
	text := "garbage line\npolygraph_ok 7\npolygraph_bad notanumber\n# weird comment\n"
	ex := ParseExpositionString(text)
	if v, err := ex.Value("polygraph_ok"); err != nil || v != 7 {
		t.Fatalf("Value(polygraph_ok) = %v, %v; want 7", v, err)
	}
	if ex.Has("polygraph_bad") {
		t.Fatal("unparseable value line should be skipped")
	}
}

func TestParseHistogramRoundTrip(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{50 * time.Microsecond, 900 * time.Microsecond,
		900 * time.Microsecond, 15 * time.Millisecond} {
		h.Record(d)
	}
	var b strings.Builder
	FamScoreDuration.WriteHistogram(&b, []HistogramSeries{HistogramSnapshot("/v1/collect", &h)})

	hist := ParseExpositionString(b.String()).HistogramBuckets("polygraph_score_duration_microseconds", "endpoint")
	cum, ok := hist["/v1/collect"]
	if !ok {
		t.Fatalf("series /v1/collect missing; got %v", hist)
	}
	if len(cum) != NumBuckets {
		t.Fatalf("bucket count = %d, want %d", len(cum), NumBuckets)
	}
	if cum[len(cum)-1] != 4 {
		t.Fatalf("+Inf cumulative = %d, want 4", cum[len(cum)-1])
	}
	// Cumulative monotonicity.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative series decreases at %d: %v", i, cum)
		}
	}
	idx, total := QuantileBucket(cum, 0.99)
	if total != 4 {
		t.Fatalf("total = %d, want 4", total)
	}
	// p99 of 4 samples is the max (15ms); its bucket bound must cover it.
	if BucketUpperMicros(idx) < 15_000 {
		t.Fatalf("p99 bucket bound %v < 15000us", BucketUpperMicros(idx))
	}
}

// Satellite: a zero-count histogram must still emit a parseable,
// lint-clean family whose quantile is undefined rather than garbage.
func TestWriteHistogramFamilyZeroCount(t *testing.T) {
	var h Hist
	var b strings.Builder
	FamScoreDuration.WriteHistogram(&b, []HistogramSeries{HistogramSnapshot("/v1/collect", &h)})

	if problems, err := Lint(strings.NewReader(b.String())); err != nil || len(problems) != 0 {
		t.Fatalf("zero-count histogram lints dirty: %v %v", problems, err)
	}
	cum := ParseExpositionString(b.String()).HistogramBuckets("polygraph_score_duration_microseconds", "endpoint")["/v1/collect"]
	if len(cum) != NumBuckets {
		t.Fatalf("bucket count = %d, want %d", len(cum), NumBuckets)
	}
	for i, c := range cum {
		if c != 0 {
			t.Fatalf("bucket %d = %d, want 0", i, c)
		}
	}
	if idx, total := QuantileBucket(cum, 0.99); idx != -1 || total != 0 {
		t.Fatalf("QuantileBucket(zero) = %d, %d; want -1, 0", idx, total)
	}
	ex := ParseExpositionString(b.String())
	if v, err := ex.Value("polygraph_score_duration_microseconds_count"); err == nil && v != 0 {
		t.Fatalf("_count = %v, want 0", v)
	}
}

// Satellite: occupancy only in the terminal +Inf bucket (every sample
// past the finite ladder) must round-trip — the quantile lands on the
// last index and its bound is +Inf, never a fake finite number.
func TestWriteHistogramFamilyInfOnlyBucket(t *testing.T) {
	s := HistogramSeries{Label: "slow", SumUs: 1e9}
	s.Buckets[NumBuckets-1] = 5
	var b strings.Builder
	FamScoreDuration.WriteHistogram(&b, []HistogramSeries{s})

	if problems, err := Lint(strings.NewReader(b.String())); err != nil || len(problems) != 0 {
		t.Fatalf("+Inf-only histogram lints dirty: %v %v", problems, err)
	}
	cum := ParseExpositionString(b.String()).HistogramBuckets("polygraph_score_duration_microseconds", "endpoint")["slow"]
	if len(cum) != NumBuckets {
		t.Fatalf("bucket count = %d, want %d", len(cum), NumBuckets)
	}
	for i := 0; i < NumBuckets-1; i++ {
		if cum[i] != 0 {
			t.Fatalf("finite bucket %d = %d, want 0", i, cum[i])
		}
	}
	idx, total := QuantileBucket(cum, 0.99)
	if idx != NumBuckets-1 || total != 5 {
		t.Fatalf("QuantileBucket = %d, %d; want %d, 5", idx, total, NumBuckets-1)
	}
	if !math.IsInf(BucketUpperMicros(idx), 1) {
		t.Fatalf("BucketUpperMicros(%d) = %v, want +Inf", idx, BucketUpperMicros(idx))
	}
}

// Satellite: label values with the full escape alphabet must survive
// writer → parser unchanged, through both the single-label and
// multi-label writers.
func TestLabelEscapingRoundTrip(t *testing.T) {
	gnarly := []string{
		`plain`,
		`has "quotes" inside`,
		`back\slash`,
		"new\nline",
		`all three: \ " ` + "\n" + ` done`,
	}
	var b strings.Builder
	series := make([]LabeledValue, len(gnarly))
	for i, v := range gnarly {
		series[i] = LabeledValue{Label: v, Value: float64(i + 1)}
	}
	uaFam := &Family{Name: "polygraph_ua_total", Help: "UA counts.", Type: "counter", Labels: []string{"ua"}}
	uaFam.WriteSeries(&b, series)

	multi := make([]MultiSeries, len(gnarly))
	for i, v := range gnarly {
		multi[i] = MultiSeries{Values: []string{v, "x"}, Value: 1}
	}
	infoFam := &Family{Name: "polygraph_replica_info", Help: "Replica info.", Type: "gauge", Labels: []string{"replica", "idx"}}
	infoFam.WriteMulti(&b, multi)

	if problems, err := Lint(strings.NewReader(b.String())); err != nil || len(problems) != 0 {
		t.Fatalf("escaped labels lint dirty: %v %v", problems, err)
	}
	ex := ParseExpositionString(b.String())
	got := ex.Samples("polygraph_ua_total")
	if len(got) != len(gnarly) {
		t.Fatalf("parsed %d ua samples, want %d", len(got), len(gnarly))
	}
	for i, s := range got {
		if s.Label("ua") != gnarly[i] {
			t.Errorf("ua[%d] round-trip = %q, want %q", i, s.Label("ua"), gnarly[i])
		}
	}
	gotMulti := ex.Samples("polygraph_replica_info")
	if len(gotMulti) != len(gnarly) {
		t.Fatalf("parsed %d replica samples, want %d", len(gotMulti), len(gnarly))
	}
	for i, s := range gotMulti {
		if s.Label("replica") != gnarly[i] || s.Label("idx") != "x" {
			t.Errorf("replica[%d] round-trip = %q, want %q", i, s.Label("replica"), gnarly[i])
		}
	}
}

func TestUnescapeLabelUnknownEscape(t *testing.T) {
	// An escape the writer never produces passes through verbatim: the
	// parser is lenient, not lossy.
	if got := unescapeLabel(`a\tb`); got != `a\tb` {
		t.Fatalf("unescapeLabel(a\\tb) = %q", got)
	}
	if got := unescapeLabel(`trailing\`); got != `trailing\` {
		t.Fatalf("unescapeLabel(trailing\\) = %q", got)
	}
}

// Satellite: WriteBuildInfo must emit a family the parser and linter
// both accept, with the labels fleet dashboards key on.
func TestWriteBuildInfoRoundTrip(t *testing.T) {
	var b strings.Builder
	WriteBuildInfo(&b)
	if problems, err := Lint(strings.NewReader(b.String())); err != nil || len(problems) != 0 {
		t.Fatalf("build info lints dirty: %v %v", problems, err)
	}
	ex := ParseExpositionString(b.String())
	samples := ex.Samples("polygraph_build_info")
	if len(samples) != 1 {
		t.Fatalf("parsed %d build_info samples, want 1", len(samples))
	}
	if samples[0].Value != 1 {
		t.Fatalf("build_info value = %v, want 1", samples[0].Value)
	}
	if samples[0].Label("go_version") == "" {
		t.Fatal("build_info missing go_version label")
	}
	if samples[0].Label("revision") != Version("polygraph").Revision {
		t.Fatalf("build_info revision = %q, want %q",
			samples[0].Label("revision"), Version("polygraph").Revision)
	}
}

func TestQuantileBucketEdgeCases(t *testing.T) {
	if idx, total := QuantileBucket(nil, 0.5); idx != -1 || total != 0 {
		t.Fatalf("QuantileBucket(nil) = %d, %d; want -1, 0", idx, total)
	}
	// q so small the rank rounds to zero still selects the first
	// occupied bucket.
	if idx, total := QuantileBucket([]uint64{0, 3, 3}, 0.0001); idx != 1 || total != 3 {
		t.Fatalf("QuantileBucket(tiny q) = %d, %d; want 1, 3", idx, total)
	}
	// q=1 selects the last occupied bucket.
	if idx, _ := QuantileBucket([]uint64{1, 1, 2}, 1); idx != 2 {
		t.Fatalf("QuantileBucket(q=1) = %d, want 2", idx)
	}
}

// Satellite: the linter flags a family emitted twice (duplicate
// HELP/TYPE headers) — the symptom of composing a /metrics page from
// two writers that both own the same family.
func TestLintDuplicateFamilyEmission(t *testing.T) {
	var b strings.Builder
	FamCollections.Write(&b, 1)
	FamCollections.Write(&b, 2)
	problems, err := Lint(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var sawHelp, sawType bool
	for _, p := range problems {
		if strings.Contains(p.String(), "duplicate HELP for polygraph_collections_total") {
			sawHelp = true
		}
		if strings.Contains(p.String(), "duplicate TYPE for polygraph_collections_total") {
			sawType = true
		}
	}
	if !sawHelp || !sawType {
		t.Fatalf("duplicate family not flagged; problems = %v", problems)
	}
}

// FuzzParseExposition feeds the parser what loadgen and the bundle
// analyzers may be handed: any page at all. It must not panic, nor may
// Samples, Value, Sum, Has or Histogram on what it returns, and the
// lookups must agree with one another. Its committed seeds are families
// of the page TestExpositionGolden (internal/serving) scrapes.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte("a 1\nb{x=\"y\\\"\",le=\"+Inf\"} 2 3\n# HELP a\n{} 4\nc{ 5\n"))
	f.Fuzz(func(t *testing.T, page []byte) {
		e, err := parseExposition(bytes.NewReader(page))
		if err != nil {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("error from an in-memory page: %v", err)
			}
			return
		}
		total := 0
		for name, idx := range e.byName {
			got := e.Samples(name)
			if len(got) != len(idx) || !e.Has(name) {
				t.Fatalf("Samples(%q) has %d samples, the index %d", name, len(got), len(idx))
			}
			total += len(got)
			family := strings.TrimSuffix(name, "_bucket")
			unlabeled := false
			for _, s := range got {
				unlabeled = unlabeled || len(s.Labels) == 0
				for _, l := range s.Labels {
					e.Histogram(family, l.Name)
					e.HistogramBuckets(family, l.Name)
				}
			}
			if _, err := e.Value(name); (err == nil) != unlabeled {
				t.Fatalf("Value(%q) error %v, with an unlabeled sample %v", name, err, unlabeled)
			}
			e.Sum(name)
		}
		if total != len(e.samples) {
			t.Fatalf("the name index holds %d samples of %d", total, len(e.samples))
		}
	})
}
