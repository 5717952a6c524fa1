package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/drift"
	"polygraph/internal/rng"
)

// armedMonitor builds a monitor from cfg and installs the baseline
// binned from rows.
func armedMonitor(t testing.TB, cfg DriftConfig, rows [][]float64) *DriftMonitor {
	t.Helper()
	m, err := NewDriftMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetBaseline(core.BinColumns(rows, len(cfg.Features))); err != nil {
		t.Fatal(err)
	}
	return m
}

// driftRows synthesizes n two-feature vectors around the given centers.
func driftRows(seed uint64, n int, c0, c1 float64) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{c0 + r.Float64(), c1 + r.Float64()}
	}
	return rows
}

func TestDriftMonitorStablePopulation(t *testing.T) {
	m := armedMonitor(t, DriftConfig{Features: []string{"f0", "f1"}, Seed: 2}, driftRows(1, 400, 0, 10))
	for _, v := range driftRows(3, 400, 0, 10) {
		m.Observe(v)
	}
	results, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if drift.AnyAlert(results) {
		t.Fatalf("stable population alerted: %+v", results)
	}
	if _, alerted := m.Latest(); alerted {
		t.Fatal("Latest reports alert for stable population")
	}
}

func TestDriftMonitorAlertsOnShift(t *testing.T) {
	var buf bytes.Buffer
	m := armedMonitor(t, DriftConfig{
		Features: []string{"f0", "f1"},
		Seed:     2,
		Logger:   slog.New(slog.NewJSONHandler(&buf, nil)),
	}, driftRows(1, 400, 0, 10))
	// f0 shifted far out of the baseline range; f1 unchanged.
	for _, v := range driftRows(3, 400, 50, 10) {
		m.Observe(v)
	}
	results, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !drift.AnyAlert(results) {
		t.Fatalf("shifted population did not alert: %+v", results)
	}
	var rec struct {
		Msg     string `json:"msg"`
		Feature string `json:"feature"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("alert log not JSON: %v (%q)", err, buf.String())
	}
	if rec.Msg != "feature drift alert" || rec.Feature != "f0" {
		t.Fatalf("alert record %+v", rec)
	}

	var metrics bytes.Buffer
	m.WriteMetrics(&metrics)
	out := metrics.String()
	for _, want := range []string{
		"polygraph_drift_alert 1",
		`polygraph_feature_psi{feature="f0"}`,
		"polygraph_drift_evaluations_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	if problems, err := Lint(strings.NewReader(out)); err != nil || len(problems) != 0 {
		t.Fatalf("drift exposition fails lint: %v %v", problems, err)
	}
}

// An armed window is evaluated from its driftMinSamples-th vector on.
func TestDriftMonitorNotReady(t *testing.T) {
	m := armedMonitor(t, DriftConfig{Features: []string{"f0", "f1"}, Seed: 1}, driftRows(1, 400, 0, 10))
	if _, err := m.Evaluate(); !errors.Is(err, ErrDriftNotReady) {
		t.Fatalf("empty reservoir evaluated: %v", err)
	}
	rows := driftRows(3, driftMinSamples, 0, 10)
	for _, v := range rows[:driftMinSamples-1] {
		m.Observe(v)
	}
	if _, err := m.Evaluate(); !errors.Is(err, ErrDriftNotReady) {
		t.Fatalf("%d samples evaluated: %v", driftMinSamples-1, err)
	}
	m.Observe(rows[driftMinSamples-1])
	if _, err := m.Evaluate(); err != nil {
		t.Fatalf("%d samples: %v", driftMinSamples, err)
	}
}

// A monitor without a baseline — a model file written before models
// carried one — stays unarmed however full its reservoir, and so does
// one whose baseline is taken away.
func TestDriftMonitorWithoutBaselineStaysUnarmed(t *testing.T) {
	m, err := NewDriftMonitor(DriftConfig{Features: []string{"f0", "f1"}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range driftRows(5, 100, 0, 0) {
		m.Observe(v)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Evaluate(); !errors.Is(err, ErrDriftNotReady) {
			t.Fatalf("evaluation %d without a baseline: %v, want ErrDriftNotReady", i, err)
		}
	}
	if err := m.SetBaseline(core.BinColumns(driftRows(6, 100, 0, 0), 2)); err != nil {
		t.Fatal(err)
	}
	for _, v := range driftRows(7, 100, 50, 0) {
		m.Observe(v)
	}
	if results, err := m.Evaluate(); err != nil || len(results) != 2 || !drift.AnyAlert(results) {
		t.Fatalf("armed evaluation: %+v, %v; want two results and an alert", results, err)
	}
	if err := m.SetBaseline(nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range driftRows(8, 100, 0, 0) {
		m.Observe(v)
	}
	if _, err := m.Evaluate(); !errors.Is(err, ErrDriftNotReady) {
		t.Fatalf("evaluation after the baseline was taken away: %v, want ErrDriftNotReady", err)
	}
	if results, alerted := m.Latest(); results != nil || alerted {
		t.Fatalf("results against the removed baseline still reported: %+v, alert %v", results, alerted)
	}
}

func TestDriftMonitorDeterministicReservoir(t *testing.T) {
	build := func() *DriftMonitor {
		m := armedMonitor(t, DriftConfig{Features: []string{"f0", "f1"}, Reservoir: 32, Seed: 9}, driftRows(1, 64, 0, 0))
		for _, v := range driftRows(2, 500, 0.2, 0.1) {
			m.Observe(v)
		}
		return m
	}
	a, b := build(), build()
	ra, err := a.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra {
		if ra[i].PSI != rb[i].PSI {
			t.Fatalf("feature %s: PSI %v != %v across identical runs", ra[i].Feature, ra[i].PSI, rb[i].PSI)
		}
	}
}

func TestDriftMonitorRejectsBadDims(t *testing.T) {
	if _, err := NewDriftMonitor(DriftConfig{}); err == nil {
		t.Fatal("empty feature list accepted")
	}
	rows := driftRows(1, 64, 0, 0)
	for i := range rows {
		rows[i] = rows[i][:1]
	}
	m := armedMonitor(t, DriftConfig{Features: []string{"f0"}, Seed: 1}, rows)
	if err := m.SetBaseline(core.BinColumns([][]float64{{1, 2}}, 2)); err == nil {
		t.Fatal("baseline with wrong width accepted")
	}
	m.Observe([]float64{1, 2}) // wrong width: dropped
	if m.Seen() != 0 {
		t.Fatal("wrong-width vector counted")
	}
	// The refused baseline disarmed the monitor rather than leaving the
	// previous one in place.
	for _, v := range rows {
		m.Observe(v)
	}
	if _, err := m.Evaluate(); !errors.Is(err, ErrDriftNotReady) {
		t.Fatalf("evaluation after a refused baseline: %v, want ErrDriftNotReady", err)
	}
}

// The baseline-timestamp gauge: 0 while no baseline is installed, a
// real Unix time once one is, and 0 again once it is taken away.
func TestDriftMonitorBaselineTimestampGauge(t *testing.T) {
	m, err := NewDriftMonitor(DriftConfig{Features: []string{"f0", "f1"}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	m.WriteMetrics(&before)
	if v, err := ParseExpositionString(before.String()).Value("polygraph_drift_baseline_timestamp_seconds"); err != nil || v != 0 {
		t.Fatalf("baseline timestamp before SetBaseline = %v, %v; want 0", v, err)
	}

	if err := m.SetBaseline(core.BinColumns(driftRows(1, 400, 0, 10), 2)); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	m.WriteMetrics(&after)
	v, err := ParseExpositionString(after.String()).Value("polygraph_drift_baseline_timestamp_seconds")
	if err != nil || v <= 0 {
		t.Fatalf("baseline timestamp after SetBaseline = %v, %v; want > 0", v, err)
	}
	if problems, err := Lint(strings.NewReader(after.String())); err != nil || len(problems) != 0 {
		t.Fatalf("drift exposition fails lint: %v %v", problems, err)
	}
	if err := m.SetBaseline(nil); err != nil {
		t.Fatal(err)
	}
	var unset bytes.Buffer
	m.WriteMetrics(&unset)
	if v, err := ParseExpositionString(unset.String()).Value("polygraph_drift_baseline_timestamp_seconds"); err != nil || v != 0 {
		t.Fatalf("baseline timestamp after SetBaseline(nil) = %v, %v; want 0", v, err)
	}
}

// positions runs the stream 0, 1, …, n−1 through a fresh monitor, one
// single-feature vector per position, and returns the positions its
// reservoir holds.
func positions(t testing.TB, seed uint64, k, n int) []int {
	t.Helper()
	m, err := NewDriftMonitor(DriftConfig{Features: []string{"pos"}, Reservoir: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m.Observe([]float64{float64(i)})
	}
	out := make([]int, len(m.res))
	for i, row := range m.res {
		out[i] = int(row[0])
	}
	return out
}

// Observe over a block draws what one call per vector draws: blocks of
// mixed sizes, some straddling the window's fill and carrying vectors of
// the wrong width, with a restart between two of them, leave the same
// reservoir, count and next entry as the vectors observed one at a time.
func TestDriftMonitorBlockObserve(t *testing.T) {
	const k, n, restart = 16, 3000, 1100
	stream := make([][]float64, n)
	for i := range stream {
		stream[i] = []float64{float64(i)}
		if i%97 == 5 {
			stream[i] = []float64{float64(i), 0} // wrong width: dropped
		}
	}
	baseline := core.BinColumns(driftRows(1, 400, 0, 10)[:1], 1)
	monitor := func() *DriftMonitor {
		m, err := NewDriftMonitor(DriftConfig{Features: []string{"pos"}, Reservoir: k, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	single, blocked := monitor(), monitor()
	sizes := []int{1, 7, 64, 3, 200, 2, 256}
	for p, part := range [][][]float64{stream[:restart], stream[restart:]} {
		if p > 0 {
			for _, m := range []*DriftMonitor{single, blocked} {
				if err := m.SetBaseline(baseline); err != nil {
					t.Fatal(err)
				}
			}
		}
		for b := 0; len(part) > 0; b++ {
			block := part[:min(sizes[b%len(sizes)], len(part))]
			part = part[len(block):]
			for _, v := range block {
				single.Observe(v)
			}
			blocked.Observe(block...)
			if !slices.EqualFunc(single.res, blocked.res, slices.Equal) || single.Seen() != blocked.Seen() || single.next.Load() != blocked.next.Load() {
				t.Fatalf("after a block of %d: one at a time holds %v (seen %d, next %d), the block form %v (seen %d, next %d)",
					len(block), single.res, single.Seen(), single.next.Load(), blocked.res, blocked.Seen(), blocked.next.Load())
			}
		}
	}
	if len(blocked.res) != k {
		t.Fatalf("reservoir holds %d rows, want %d", len(blocked.res), k)
	}
}

// The skip-ahead sampler must keep what algorithm R promised: every
// position of the stream is in the reservoir with probability k/n. Over
// many seeds the retention counts are binomial(seeds, k/n) per position,
// so their normalised squared deviations sum to about n; the bound is
// six standard deviations of a χ² with n degrees above that.
func TestDriftMonitorReservoirUniform(t *testing.T) {
	const k, seeds = 8, 4000
	for _, n := range []int{k + 2, 40 * k} {
		kept := make([]int, n)
		for seed := uint64(1); seed <= seeds; seed++ {
			got := positions(t, seed, k, n)
			if len(got) != k {
				t.Fatalf("n=%d seed %d: reservoir holds %d rows, want %d", n, seed, len(got), k)
			}
			for _, pos := range got {
				kept[pos]++
			}
		}
		p := float64(k) / float64(n)
		var chi2 float64
		for _, c := range kept {
			d := float64(c) - seeds*p
			chi2 += d * d / (seeds * p * (1 - p))
		}
		if bound := float64(n) + 6*math.Sqrt(2*float64(n)); chi2 > bound {
			t.Errorf("n=%d: χ² of the retention counts %.1f, bound %.1f (counts %v)", n, chi2, bound, kept)
		}
	}
}

// One seed, one serial order, one reservoir: the sample is part of what
// a fixed-seed run reproduces, so a change to the sampler's draws shows
// up here, not as an unexplained polygraph_feature_psi.
func TestDriftMonitorGoldenReservoir(t *testing.T) {
	got := positions(t, 7, 4, 200)
	if want := []int{119, 178, 54, 9}; !slices.Equal(got, want) {
		t.Fatalf("seed 7, 4 of 200: reservoir %v, want %v", got, want)
	}
}

// Concurrent Observe, of single vectors and of blocks, against
// everything that takes the monitor's lock: the count is exact, every
// reservoir row is one whole vector (each observed vector repeats one
// value), and a window restarted under the observers' feet still fills.
func TestDriftMonitorConcurrentObserve(t *testing.T) {
	const goroutines, each, dim = 4, 20000, 8
	features := make([]string, dim)
	for i := range features {
		features[i] = fmt.Sprintf("f%d", i)
	}
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, dim)
	}
	baseline := core.BinColumns(rows, dim)
	m := armedMonitor(t, DriftConfig{Features: features, Reservoir: 64, Seed: 3}, rows)
	whole := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, row := range m.res {
			for _, x := range row {
				if x != row[0] {
					t.Errorf("torn reservoir row %v", row)
					return
				}
			}
		}
	}
	stop := make(chan struct{})
	var readers, observers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Evaluate()
			m.WriteMetrics(io.Discard)
			whole()
			if i%8 == 0 {
				if err := m.SetBaseline(baseline); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		observers.Add(1)
		go func(g int) {
			defer observers.Done()
			// Even observers pass one vector a call, odd ones blocks of 8.
			block := make([][]float64, 1+7*(g%2))
			for k := range block {
				block[k] = make([]float64, dim)
			}
			for i := 0; i < each; i += len(block) {
				for k, v := range block {
					for j := range v {
						v[j] = float64(g*each + i + k)
					}
				}
				m.Observe(block...)
			}
		}(g)
	}
	observers.Wait()
	close(stop)
	readers.Wait()
	if got := m.Seen(); got != goroutines*each {
		t.Fatalf("Seen() = %d after %d observations", got, goroutines*each)
	}
	whole()
	for i := 0; i < 64; i++ {
		m.Observe(make([]float64, dim))
	}
	if len(m.res) != 64 {
		t.Fatalf("reservoir holds %d rows after the last window restart, want 64", len(m.res))
	}
}

// A retrain installs a new baseline, and the traffic it is compared
// against must be the traffic that follows it: an all-time reservoir
// would go on holding the population the old model served.
func TestDriftMonitorSetBaselineRestartsWindow(t *testing.T) {
	m := armedMonitor(t, DriftConfig{
		Features:  []string{"f0", "f1"},
		Reservoir: 128,
		Seed:      2,
	}, driftRows(1, 400, 0, 10))
	for _, v := range driftRows(3, 2000, 0, 10) {
		m.Observe(v)
	}
	shifted := driftRows(4, 2000, 50, 10)
	for _, v := range shifted {
		m.Observe(v)
	}
	if results, err := m.Evaluate(); err != nil || !drift.AnyAlert(results) {
		t.Fatalf("shifted traffic did not alert: %+v, %v", results, err)
	}
	if err := m.SetBaseline(core.BinColumns(shifted, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(); !errors.Is(err, ErrDriftNotReady) {
		t.Fatalf("evaluated an empty window: %v", err)
	}
	for _, v := range driftRows(5, 64, 50, 10) {
		m.Observe(v)
	}
	results, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if drift.AnyAlert(results) {
		t.Fatalf("traffic that matches the new baseline alerts: %+v", results)
	}
	if got := m.Seen(); got != 4064 {
		t.Fatalf("Seen() = %d, want 4064: the count does not restart with the window", got)
	}
}

// BenchmarkDriftObserve is the sampler alone. The parallel case is
// printed for the record, not as evidence either way: a tight loop lets
// one goroutine keep a mutex to itself, which a served request never
// does (internal/collect's BenchmarkTCPBatchScoreParallel is the
// contended measurement).
func BenchmarkDriftObserve(b *testing.B) {
	newMonitor := func() *DriftMonitor {
		m, err := NewDriftMonitor(DriftConfig{Features: make([]string, 28), Reservoir: 512, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("serial", func(b *testing.B) {
		m, v := newMonitor(), make([]float64, 28)
		for i := 0; i < b.N; i++ {
			m.Observe(v)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		m := newMonitor()
		b.RunParallel(func(pb *testing.PB) {
			v := make([]float64, 28)
			for pb.Next() {
				m.Observe(v)
			}
		})
	})
}
