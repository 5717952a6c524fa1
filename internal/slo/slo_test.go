package slo

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polygraph/internal/obs"
)

// fixtureExposition is a handcrafted scrape carrying every family the
// SLI derivation reads: 100 /v1/collect requests (90 under 1024µs, 95
// under 4096µs), 5 server-fault rejects, 7 client-fault rejects, and a
// TCP listener at 50 scored / 5 bad frames.
const fixtureExposition = `# HELP polygraph_score_duration_microseconds h
# TYPE polygraph_score_duration_microseconds histogram
polygraph_score_duration_microseconds_bucket{endpoint="/v1/collect",le="1024"} 90
polygraph_score_duration_microseconds_bucket{endpoint="/v1/collect",le="4096"} 95
polygraph_score_duration_microseconds_bucket{endpoint="/v1/collect",le="+Inf"} 100
polygraph_score_duration_microseconds_sum{endpoint="/v1/collect"} 12345
polygraph_score_duration_microseconds_count{endpoint="/v1/collect"} 100
# HELP polygraph_collections_total c
# TYPE polygraph_collections_total counter
polygraph_collections_total 100
# HELP polygraph_rejected_total c
# TYPE polygraph_rejected_total counter
polygraph_rejected_total{reason="score"} 3
polygraph_rejected_total{reason="rate_limit"} 2
polygraph_rejected_total{reason="bad_json"} 7
# HELP polygraph_tcp_scored_total c
# TYPE polygraph_tcp_scored_total counter
polygraph_tcp_scored_total 50
# HELP polygraph_tcp_bad_frames_total c
# TYPE polygraph_tcp_bad_frames_total counter
polygraph_tcp_bad_frames_total 5
`

func fixtureSpec() *Spec {
	return &Spec{
		Name: "fixture",
		Objectives: []Objective{
			{Name: "lat", Kind: KindLatency, Endpoint: "/v1/collect", Target: 0.95, ThresholdUs: 2048, WindowS: 60},
			{Name: "avail", Kind: KindAvailability, Target: 0.99, WindowS: 60},
			{Name: "tcp-avail", Kind: KindAvailability, Endpoint: EndpointTCP, Target: 0.9, WindowS: 60},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []Spec{
		{},
		{Name: "x"},
		{Name: "x", Objectives: []Objective{{Name: "", Kind: KindLatency}}},
		{Name: "x", Objectives: []Objective{{Name: "a", Kind: "bogus", Target: 0.9, WindowS: 60}}},
		{Name: "x", Objectives: []Objective{{Name: "a", Kind: KindLatency, Target: 0.9, WindowS: 60}}},                                                                     // no endpoint/threshold
		{Name: "x", Objectives: []Objective{{Name: "a", Kind: KindAvailability, Target: 1.5, WindowS: 60}}},                                                                // target out of range
		{Name: "x", Objectives: []Objective{{Name: "a", Kind: KindAvailability, Target: 0.9, WindowS: 0}}},                                                                 // no window
		{Name: "x", Objectives: []Objective{{Name: "a", Kind: KindAvailability, Target: 0.9, WindowS: 60, ThresholdUs: 5}}},                                                // threshold on availability
		{Name: "x", Objectives: []Objective{{Name: "a", Kind: KindAvailability, Target: 0.9, WindowS: 60}, {Name: "a", Kind: KindAvailability, Target: 0.9, WindowS: 60}}}, // dup name
		{Name: "x", Windows: Windows{FastShortS: 600, FastLongS: 300}, Objectives: []Objective{{Name: "a", Kind: KindAvailability, Target: 0.9, WindowS: 60}}},
	}
	for i, s := range bad {
		if err := s.validate(); err == nil {
			t.Errorf("bad spec %d validated clean", i)
		}
	}
}

func TestExtractCounters(t *testing.T) {
	ex := obs.ParseExpositionString(fixtureExposition)
	c := fixtureSpec().Extract(ex)
	want := []Counters{
		{Good: 90, Total: 100},  // largest le <= 2048 is 1024
		{Good: 100, Total: 105}, // 100 collections + 5 server-fault rejects
		{Good: 50, Total: 55},
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("Extract = %+v, want %+v", c, want)
	}

	// A threshold sitting exactly on a bucket bound counts that bucket.
	s := fixtureSpec()
	s.Objectives[0].ThresholdUs = 4096
	if c := s.Extract(ex); c[0].Good != 95 {
		t.Fatalf("threshold on bound: good = %v, want 95", c[0].Good)
	}

	// Absent families extract as zero counters.
	empty := obs.ParseExpositionString("")
	for i, c := range fixtureSpec().Extract(empty) {
		if c.Good != 0 || c.Total != 0 {
			t.Fatalf("objective %d: empty exposition extracted %+v", i, c)
		}
	}
}

func TestOfflineEvaluate(t *testing.T) {
	ex := obs.ParseExpositionString(fixtureExposition)
	res := Evaluate(fixtureSpec(), ex)
	// lat: 90/100 = 0.90 < 0.95 target → violated.
	if res[0].Met || res[0].SLI != 0.9 {
		t.Fatalf("lat result = %+v, want violated at SLI 0.9", res[0])
	}
	// avail: 100/105 ≈ 0.952 < 0.99 → violated.
	if res[1].Met {
		t.Fatalf("avail result = %+v, want violated", res[1])
	}
	// tcp-avail: 50/55 ≈ 0.909 ≥ 0.9 → met.
	if !res[2].Met {
		t.Fatalf("tcp-avail result = %+v, want met", res[2])
	}
	// Vacuous objectives are met.
	for _, r := range Evaluate(fixtureSpec(), obs.ParseExpositionString("")) {
		if !r.Met || !r.Vacuous || r.SLI != 1 {
			t.Fatalf("vacuous objective evaluated as %+v", r)
		}
	}
}

func TestSumCounters(t *testing.T) {
	a := []Counters{{Good: 1, Total: 2}, {Good: 3, Total: 4}}
	b := []Counters{{Good: 10, Total: 20}, {Good: 30, Total: 40}}
	want := []Counters{{Good: 11, Total: 22}, {Good: 33, Total: 44}}
	if got := SumCounters(a, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("SumCounters = %+v, want %+v", got, want)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	data := []byte(`{
  "name": "t",
  "windows": {"fast_short_s": 1, "fast_long_s": 2, "fast_burn": 5, "slow_short_s": 2, "slow_long_s": 4, "slow_burn": 2},
  "objectives": [
    {"name": "a", "kind": "availability", "target": 0.99, "window_s": 60}
  ]
}`)
	s, err := parseSpec(data)
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	if s.Windows.FastBurn != 5 || s.Objectives[0].Target != 0.99 {
		t.Fatalf("parsed spec = %+v", s)
	}
	if _, err := parseSpec([]byte("{")); err == nil {
		t.Fatal("malformed JSON parsed clean")
	}
	if _, err := parseSpec([]byte(`{"name":"x","objectives":[]}`)); err == nil {
		t.Fatal("empty objectives validated clean")
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"name":"f","objectives":[{"name":"a","kind":"availability","target":0.9,"window_s":60}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing spec loaded clean")
	}
}

// TestCommittedSmokeSpecMatchesDefault pins scripts/slo-smoke.json — the
// spec CI's `polygraphctl slo` steps evaluate — to DefaultSpec, so the committed
// file and the built-in default cannot drift apart.
func TestCommittedSmokeSpecMatchesDefault(t *testing.T) {
	s, err := LoadSpec(filepath.Join("..", "..", "scripts", "slo-smoke.json"))
	if err != nil {
		t.Fatalf("committed smoke spec: %v", err)
	}
	if !reflect.DeepEqual(s, DefaultSpec()) {
		t.Fatalf("scripts/slo-smoke.json = %+v\ndiffers from DefaultSpec = %+v", s, DefaultSpec())
	}
}

func TestEvaluateCountersShortSlice(t *testing.T) {
	// A counter slice shorter than the spec (shape mismatch from a
	// stale caller) evaluates the missing tail as vacuous, not a panic.
	res := EvaluateCounters(fixtureSpec(), []Counters{{Good: 9, Total: 10}})
	if len(res) != 3 || !res[1].Vacuous || !res[2].Vacuous {
		t.Fatalf("short-slice evaluation = %+v", res)
	}
}

func TestBadReasonsOverride(t *testing.T) {
	ex := obs.ParseExpositionString(fixtureExposition)
	s := fixtureSpec()
	s.Objectives[1].BadReasons = []string{"bad_json"}
	c := s.Extract(ex)
	if c[1].Good != 100 || c[1].Total != 107 {
		t.Fatalf("override reasons: %+v, want 100/107", c[1])
	}
}

func TestDefaultSpecEndpointsExist(t *testing.T) {
	// Guard against typos: every latency objective in the default spec
	// names an endpoint label the serving stack actually exports.
	known := map[string]bool{"/v1/collect": true, "/v1/collect-json": true, EndpointTCP: true}
	for _, o := range DefaultSpec().Objectives {
		if o.Kind == KindLatency && !known[o.Endpoint] {
			t.Errorf("default spec latency objective %q targets unknown endpoint %q", o.Name, o.Endpoint)
		}
	}
	if !strings.HasPrefix(DefaultSpec().Name, "polygraph") {
		t.Error("default spec name should be polygraph-scoped")
	}
}

// FuzzParseSpec: parseSpec never panics, and a spec it accepts passes
// validate and parses again, to the same JSON, after a round trip
// through json.Marshal. The committed seeds (testdata/fuzz/FuzzParseSpec)
// are scripts/slo-smoke.json, its first half and a copy with a negative
// window.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseSpec(data)
		if err != nil {
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("parseSpec accepted a spec validate refuses: %v", err)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseSpec(out)
		if err != nil {
			t.Fatalf("an accepted spec does not parse again: %v\n%s", err, out)
		}
		if out2, err := json.Marshal(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("the round trip changed the spec (%v):\n%s\n%s", err, out, out2)
		}
	})
}
