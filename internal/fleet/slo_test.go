package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"polygraph/internal/collect"
	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

// replicaExposition renders a minimal /metrics page carrying the
// counters the SLI derivation reads.
func replicaExposition(collections, rejectedScore int) string {
	return fmt.Sprintf(`# HELP polygraph_collections_total c
# TYPE polygraph_collections_total counter
polygraph_collections_total %d
# HELP polygraph_rejected_total c
# TYPE polygraph_rejected_total counter
polygraph_rejected_total{reason="score"} %d
`, collections, rejectedScore)
}

func rollupSpec() *slo.Spec {
	return &slo.Spec{
		Name:    "fleet-test",
		Windows: slo.Windows{FastShortS: 1, FastLongS: 2, FastBurn: 5, SlowShortS: 2, SlowLongS: 4, SlowBurn: 2},
		Objectives: []slo.Objective{
			{Name: "avail", Kind: slo.KindAvailability, Target: 0.99, WindowS: 4},
		},
	}
}

func metricsMember(name string, text *atomic.Pointer[string], fail *atomic.Bool) Member {
	return Member{
		Name:    name,
		BaseURL: "http://" + name,
		Probe:   staticProbe("h", nil),
		Fetch: func(ctx context.Context, path string) ([]byte, error) {
			if fail != nil && fail.Load() {
				return nil, errors.New("unreachable")
			}
			return []byte(*text.Load()), nil
		},
	}
}

// TestSLORollupAggregates pins the fleet SLI contract: one tick sums
// the good/total counters of every reachable member, an unreachable
// member is skipped without wedging the tick, and a fleet-wide outage
// still ticks the engine (windows keep rolling) while reporting the
// scrape failure.
func TestSLORollupAggregates(t *testing.T) {
	var aText, bText atomic.Pointer[string]
	a := replicaExposition(100, 0)
	b := replicaExposition(200, 5)
	aText.Store(&a)
	bText.Store(&b)
	var aDown atomic.Bool

	bal := mustBalancer(t, Config{Seed: 11},
		metricsMember("a", &aText, &aDown),
		metricsMember("b", &bText, nil),
	)
	r, err := NewSLORollup(bal, rollupSpec(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bal.AttachSLO(r)

	n, err := r.Collect(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("Collect = %d, %v, want 2 members", n, err)
	}
	o := r.Engine().Status().Objectives[0]
	// 100+200 good, plus b's 5 server-fault rejects in the total.
	if o.Good != 300 || o.Total != 305 {
		t.Fatalf("fleet counters = %+v, want 300/305", o)
	}

	// One member down: its counters stop contributing; the clamp keeps
	// the window deltas non-negative.
	aDown.Store(true)
	if n, err := r.Collect(context.Background()); err != nil || n != 1 {
		t.Fatalf("Collect with a down = %d, %v, want 1", n, err)
	}
	// b alone: 200 good, 200+5 rejects total.
	if o := r.Engine().Status().Objectives[0]; o.Good != 200 || o.Total != 205 {
		t.Fatalf("fleet counters after outage = %+v, want 200/205", o)
	}

	// Fleet-wide outage: error reported, but the tick still landed.
	fail := func(ctx context.Context, path string) ([]byte, error) { return nil, errors.New("down") }
	bal2 := mustBalancer(t, Config{Seed: 12}, Member{Name: "x", BaseURL: "http://x", Fetch: fail})
	r2, err := NewSLORollup(bal2, rollupSpec(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := r2.Engine().Status().Tick
	if _, err := r2.Collect(context.Background()); err == nil {
		t.Fatal("all-members-down Collect reported success")
	}
	if got := r2.Engine().Status().Tick; got != before+1 {
		t.Fatalf("outage tick did not advance engine: %d -> %d", before, got)
	}

	if _, err := NewSLORollup(nil, rollupSpec(), 1, nil); err == nil {
		t.Fatal("rollup without balancer built clean")
	}
}

// TestBalancerMetricsIncludeFleetSLO requires the balancer exposition
// to carry the polygraph_fleet_slo_* families once a rollup is
// attached — and the page to lint clean with them required.
func TestBalancerMetricsIncludeFleetSLO(t *testing.T) {
	var text atomic.Pointer[string]
	s := replicaExposition(90, 10) // 90/100 → 10x burn against 99%
	text.Store(&s)
	bal := mustBalancer(t, Config{Seed: 13}, metricsMember("a", &text, nil))
	bal.Admit("a", "h")
	r, err := NewSLORollup(bal, rollupSpec(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bal.AttachSLO(r)
	if _, err := r.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	bal.WriteMetrics(&sb)
	problems, err := obs.Lint(strings.NewReader(sb.String()),
		"polygraph_fleet_replicas",
		"polygraph_fleet_slo_target",
		"polygraph_fleet_slo_sli",
		"polygraph_fleet_slo_error_budget_remaining",
		"polygraph_fleet_slo_burn_rate",
		"polygraph_fleet_slo_alert",
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("lint: %s", p)
	}
	if !strings.Contains(sb.String(), `polygraph_fleet_slo_alert{objective="avail"} 1`) {
		t.Fatalf("fleet alert gauge not firing:\n%s", sb.String())
	}
}

// TestWriteMetricsHealthHammer races WriteMetrics scrapes against
// health transitions (checkOnce, eject, Admit), pick/finish traffic,
// and rollup ticks; with -race this is the data-race gate for the
// balancer's exposition path.
func TestWriteMetricsHealthHammer(t *testing.T) {
	var flaky atomic.Bool
	var text atomic.Pointer[string]
	s := replicaExposition(100, 1)
	text.Store(&s)
	bal := mustBalancer(t, Config{Seed: 14, ExpectHash: "h"},
		Member{Name: "a", BaseURL: "http://a", Probe: staticProbe("h", nil),
			Fetch: func(ctx context.Context, path string) ([]byte, error) { return []byte(*text.Load()), nil }},
		Member{Name: "b", BaseURL: "http://b", Probe: staticProbe("h", &flaky),
			Fetch: func(ctx context.Context, path string) ([]byte, error) { return []byte(*text.Load()), nil }},
	)
	bal.Admit("a", "h")
	bal.Admit("b", "h")
	r, err := NewSLORollup(bal, rollupSpec(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bal.AttachSLO(r)

	iters := 200
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	worker(func(i int) { // scrapes
		var sb strings.Builder
		bal.WriteMetrics(&sb)
		if sb.Len() == 0 {
			t.Error("empty exposition under hammer")
		}
	})
	worker(func(i int) { // health transitions via probe loop, two probes a state
		flaky.Store(i%4 < 2)
		bal.checkOnce(context.Background())
	})
	worker(func(i int) { // manual eject/admit churn
		bal.eject(bal.byName["a"], "hammer")
		bal.Admit("a", "h")
	})
	worker(func(i int) { // pick/finish traffic with occasional transport failures
		p, err := bal.Pick()
		if err != nil {
			return // rotation momentarily empty under churn
		}
		var ferr error
		if i%16 == 15 {
			ferr = &collect.ClientError{Kind: collect.FailDown, Op: "submit", Err: errors.New("hammer")}
		}
		bal.Finish(p, ferr)
	})
	worker(func(i int) { // rollup ticks
		r.Collect(context.Background())
	})
	close(start)
	wg.Wait()

	var sb strings.Builder
	bal.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "polygraph_fleet_slo_sli") {
		t.Fatal("rollup families missing after hammer")
	}
}
