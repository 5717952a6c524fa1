package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// fullDeclaration is BENCHMARK.json as the driver reads it.
type fullDeclaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclaration(t *testing.T) fullDeclaration {
	t.Helper()
	var d fullDeclaration
	if err := loadJSON(filepath.Join("..", "BENCHMARK.json"), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func quickConfig(t *testing.T, wl workload) runConfig {
	cfg := defaultConfig(wl, 1, 1).quick()
	cfg.replay = true
	cfg.outDir = t.TempDir()
	cfg.tmpDir = t.TempDir()
	return cfg
}

// checkEmitted asserts that a run emitted exactly the declared metrics,
// with the declared units and well-formed names.
func checkEmitted(t *testing.T, kind string, want []declared, got map[string]metric) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range want {
		if seen[d.Name] {
			t.Errorf("%s metric %q is declared twice", kind, d.Name)
		}
		seen[d.Name] = true
		if !name.MatchString(d.Name) {
			t.Errorf("%s metric name %q is malformed", kind, d.Name)
		}
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("declared %s metric %q was not emitted", kind, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s metric %q: emitted unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
		}
	}
	for n := range got {
		if !seen[n] {
			t.Errorf("emitted %s metric %q is not declared in BENCHMARK.json", kind, n)
		}
	}
}

// TestQuickSuite runs every workload in-process in the shrunken
// configuration and checks the plumbing: names, oracle, reconciliation,
// span tree.
func TestQuickSuite(t *testing.T) {
	decl := loadDeclaration(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the benchmark %q (%s)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			cfg := quickConfig(t, wl)
			out, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d; want fail_ratio 0", out.Correct, out.Attempted, out.Failed)
			}
			if out.perLayer["fail_ratio"].Value != 0 {
				t.Errorf("fail_ratio = %v, want 0", out.perLayer["fail_ratio"].Value)
			}
			checkEmitted(t, "end-to-end", decl.EndToEnd, out.endToEnd)
			checkEmitted(t, "per-layer", decl.PerLayer, out.perLayer)
			for name, m := range out.endToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}
			checkTraceFile(t, filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), cfg.replayOps)
		})
	}
}

// checkTraceFile reads a written trace and checks that its spans form a
// tree: every parent exists, every child lies inside its parent, and no
// span has negative self time.
func checkTraceFile(t *testing.T, path string, ops int) {
	t.Helper()
	var file struct {
		Names []string  `json:"names"`
		Spans [][]int64 `json:"spans"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(file.Spans) < ops {
		t.Fatalf("%s holds %d spans for %d ops", path, len(file.Spans), ops)
	}
	children := make([]int64, len(file.Spans))
	for i, s := range file.Spans {
		name, parent, start, end := s[0], s[2], s[3], s[4]
		if name < 0 || int(name) >= len(file.Names) {
			t.Fatalf("span %d has unknown name %d", i, name)
		}
		if end < start {
			t.Errorf("span %d ends before it starts", i)
		}
		if parent < 0 {
			continue
		}
		if parent >= int64(i) {
			t.Fatalf("span %d names parent %d, which does not precede it", i, parent)
		}
		p := file.Spans[parent]
		if start < p[3] || end > p[4] {
			t.Errorf("span %d [%d,%d] is not inside its parent %d [%d,%d]", i, start, end, parent, p[3], p[4])
		}
		children[parent] += end - start
	}
	for i, s := range file.Spans {
		if s[4]-s[3] < children[i] {
			t.Errorf("span %d has negative self time", i)
		}
	}
}

// TestMalformedOracle checks that the oracle expects a 4xx for every
// malformed body, that the program gives one, and that no other answer
// would pass.
func TestMalformedOracle(t *testing.T) {
	wl, _ := workloadByName("attack-audit-http")
	tr, err := seamTrain(8000)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildStream(wl, tr.model, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := startRig(wl, tr.model, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	direct, err := newDirectCaller(r.handler, cursor{st: st, c: 1})
	if err != nil {
		t.Fatal(err)
	}
	malformed := 0
	for i := range st.ops {
		o := &st.ops[i]
		if !o.malformed {
			continue
		}
		malformed++
		if o.answered(200, o.wantPrefix) || o.answered(500, nil) || !o.answered(400, nil) {
			t.Fatalf("op %d: the oracle of a malformed body must accept a 4xx and nothing else", i)
		}
		if !direct.serve(o) {
			t.Errorf("op %d: program answered a malformed body with %d", i, direct.rw.status)
		}
	}
	if want := len(st.ops) / wl.malformedEvery; malformed != want {
		t.Errorf("stream holds %d malformed bodies, want %d", malformed, want)
	}
}

func TestQuantilesAgreeWithSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 99, 100, 101, 12345} {
		raw := make([]uint32, n)
		for i := range raw {
			raw[i] = 1 + uint32(rng.Int63n(1_000_000))
		}
		// The same samples as two clients logged them, in one window.
		half := n / 2
		p := &phaseResult{window: time.Second, windows: 1, opsPerCall: 1, logs: []*callLog{
			{lat: raw[:half], n: half, winEnd: []int{half}},
			{lat: raw[half:], n: n - half, winEnd: []int{n - half}},
		}}
		st := p.stats()
		ref := slices.Clone(raw)
		slices.Sort(ref)
		for _, c := range []struct {
			q   float64
			got float64
		}{{0.50, st.p50us}, {0.99, st.p99us}} {
			// Reference: the smallest sample with at least q of all samples at or below it.
			want := ref[n-1]
			for i, v := range ref {
				if float64(i+1) >= c.q*float64(n) {
					want = v
					break
				}
			}
			if c.got != float64(want)/1e3 {
				t.Errorf("n=%d q=%v: got %v us, sorted reference %v us", n, c.q, c.got, float64(want)/1e3)
			}
		}
		if st.rps != float64(n) {
			t.Errorf("n=%d: rps %v, want %d calls in the one 1 s window", n, st.rps, n)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name          string
		a, b          []float64
		lowerIsBetter bool
		want          string
	}{
		{"same", steady, steady, true, "ok"},
		{"slower latency", steady, []float64{120, 121, 119, 120, 122}, true, "regressed"},
		{"higher throughput", steady, []float64{120, 121, 119, 120, 122}, false, "ok"},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 82}, false, "regressed"},
		{"too noisy to tell", []float64{100, 60, 140, 90, 120}, []float64{110, 70, 150, 95, 125}, true, "unresolved"},
		{"noisy but every run better", []float64{100, 60, 140, 90, 120}, []float64{10, 6, 14, 9, 12}, true, "ok"},
		{"missing", steady, nil, true, "missing"},
	} {
		if got := compareMetric(c.a, c.b, c.lowerIsBetter, 0.05).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
