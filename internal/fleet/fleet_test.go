package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

var (
	modelOnce sync.Once
	testM     *core.Model
	testMHash string
)

// fleetModel trains one small model per test binary; fleet tests only
// need a valid serializable model, not an accurate one.
func fleetModel(t testing.TB) (*core.Model, string) {
	t.Helper()
	modelOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Sessions = 4000
		d, err := dataset.Generate(cfg)
		if err != nil {
			panic(err)
		}
		tc := core.DefaultTrainConfig()
		tc.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
		m, _, err := core.Train(d.Samples(), tc)
		if err != nil {
			panic(err)
		}
		h, err := m.Hash()
		if err != nil {
			panic(err)
		}
		testM, testMHash = m, h
	})
	return testM, testMHash
}

// fakeReplica is a minimal HTTP replica: /healthz plus the admin model
// endpoint. lieHash, when set, is reported instead of the hash of the
// actually deployed model — the corruption Distribute must refuse.
type fakeReplica struct {
	srv     *httptest.Server
	mu      sync.Mutex
	hash    string
	lieHash string
	healthy atomic.Bool
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc(AdminModelPath, func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			m, err := core.Load(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			h, err := m.Hash()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			f.mu.Lock()
			f.hash = h
			f.mu.Unlock()
			json.NewEncoder(w).Encode(ModelInfo{Hash: f.reportedHash()})
		case http.MethodGet:
			h := f.reportedHash()
			if h == "" {
				http.Error(w, "no model", http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(ModelInfo{Hash: h})
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) reportedHash() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lieHash != "" {
		return f.lieHash
	}
	return f.hash
}

func TestDistributeAdmitsOnlyHashMatches(t *testing.T) {
	m, wantHash := fleetModel(t)
	good1, good2, liar := newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)
	liar.lieHash = "deadbeef"

	b, err := NewBalancer(Config{Seed: 1, ExpectHash: wantHash},
		Member{Name: "r0", BaseURL: good1.srv.URL},
		Member{Name: "r1", BaseURL: good2.srv.URL},
		Member{Name: "r2", BaseURL: liar.srv.URL},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &Controller{}
	results, err := ctrl.Distribute(context.Background(), b, m)
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	admitted := 0
	for _, r := range results {
		if r.Admitted {
			admitted++
			if r.Hash != wantHash {
				t.Errorf("%s admitted with hash %s, want %s", r.Name, r.Hash, wantHash)
			}
		}
	}
	if admitted != 2 {
		t.Fatalf("admitted %d replicas, want 2: %+v", admitted, results)
	}
	if h := b.Healthy(); len(h) != 2 {
		t.Fatalf("healthy set %v, want 2 members", h)
	}
	for _, st := range b.Snapshot() {
		if st.Name == "r2" && st.State != "refused" {
			t.Fatalf("lying replica in state %q, want refused", st.State)
		}
	}
}

func TestDistributeAllMismatchedFails(t *testing.T) {
	m, _ := fleetModel(t)
	liar := newFakeReplica(t)
	liar.lieHash = "deadbeef"
	b, err := NewBalancer(Config{Seed: 1}, Member{Name: "r0", BaseURL: liar.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Controller{}).Distribute(context.Background(), b, m); err == nil {
		t.Fatal("distribution with zero admissible replicas succeeded")
	}
	if len(b.Healthy()) != 0 {
		t.Fatal("mismatched replica entered rotation")
	}
}

func mustBalancer(t *testing.T, cfg Config, members ...Member) *Balancer {
	t.Helper()
	b, err := NewBalancer(cfg, members...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func staticProbe(hash string, up *atomic.Bool) func(context.Context) (string, error) {
	return func(context.Context) (string, error) {
		if up != nil && !up.Load() {
			return "", errors.New("probe: down")
		}
		return hash, nil
	}
}

func TestPickSpreadsAndFinishEjectsOnDown(t *testing.T) {
	b := mustBalancer(t, Config{Seed: 3},
		Member{Name: "a", BaseURL: "http://a", Probe: staticProbe("h", nil)},
		Member{Name: "b", BaseURL: "http://b", Probe: staticProbe("h", nil)},
	)
	if _, err := b.Pick(); !errors.Is(err, ErrNoHealthy) {
		t.Fatalf("pick before admission: %v, want ErrNoHealthy", err)
	}
	b.Admit("a", "h")
	b.Admit("b", "h")

	seen := map[string]int{}
	var leases []Picked
	for i := 0; i < 64; i++ {
		p, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		seen[p.Name()]++
		leases = append(leases, p)
	}
	if seen["a"] == 0 || seen["b"] == 0 {
		t.Fatalf("p2c never picked one member: %v", seen)
	}
	// With held leases, p2c must have balanced in-flight counts closely.
	snap := b.Snapshot()
	if d := snap[0].Inflight - snap[1].Inflight; d > 2 || d < -2 {
		t.Fatalf("in-flight imbalance under p2c: %+v", snap)
	}
	for _, p := range leases {
		b.Finish(p, nil)
	}

	// A protocol failure must not eject.
	p, _ := b.Pick()
	b.Finish(p, &collect.ClientError{Kind: collect.FailBadFrame, Op: "submit", Err: errors.New("garbled")})
	if len(b.Healthy()) != 2 {
		t.Fatal("bad-frame error ejected a live replica")
	}
	// A transport failure ejects immediately.
	for {
		p, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() == "a" {
			b.Finish(p, &collect.ClientError{Kind: collect.FailDown, Op: "submit", Err: errors.New("refused")})
			break
		}
		b.Finish(p, nil)
	}
	if h := b.Healthy(); len(h) != 1 || h[0] != "b" {
		t.Fatalf("healthy after ejection: %v, want [b]", h)
	}
	for i := 0; i < 16; i++ {
		p, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != "b" {
			t.Fatalf("picked ejected replica %s", p.Name())
		}
		b.Finish(p, nil)
	}
}

func TestHealthLoopEjectsAndReadmits(t *testing.T) {
	var aUp atomic.Bool
	aUp.Store(true)
	b := mustBalancer(t, Config{Seed: 4, ExpectHash: "h"},
		Member{Name: "a", BaseURL: "http://a", Probe: staticProbe("h", &aUp)},
		Member{Name: "b", BaseURL: "http://b", Probe: staticProbe("h", nil)},
	)
	b.Admit("a", "h")
	b.Admit("b", "h")

	ctx := context.Background()
	aUp.Store(false)
	b.CheckOnce(ctx)
	if len(b.Healthy()) != 2 {
		t.Fatal("single probe failure ejected below failThreshold")
	}
	b.CheckOnce(ctx)
	if h := b.Healthy(); len(h) != 1 || h[0] != "b" {
		t.Fatalf("healthy after threshold: %v, want [b]", h)
	}

	aUp.Store(true)
	b.CheckOnce(ctx)
	if len(b.Healthy()) != 1 {
		t.Fatal("single healthy probe re-admitted below recoverThreshold")
	}
	b.CheckOnce(ctx)
	if len(b.Healthy()) != 2 {
		t.Fatalf("replica not re-admitted after %d healthy probes", recoverThreshold)
	}
	if got := b.Snapshot()[0]; got.State != "healthy" || got.ProbeFails != 0 {
		t.Fatalf("re-admitted row: %+v", got)
	}
}

func TestHealthLoopEjectsOnHashDrift(t *testing.T) {
	b := mustBalancer(t, Config{Seed: 5, ExpectHash: "good"},
		Member{Name: "a", BaseURL: "http://a", Probe: staticProbe("drifted", nil)},
	)
	b.Admit("a", "good") // admitted against the fleet hash, then drifts
	b.CheckOnce(context.Background())
	if len(b.Healthy()) != 0 {
		t.Fatal("hash-drifted replica stayed in rotation")
	}
	// Drifted hash keeps it out: probes succeed but never re-admit.
	b.CheckOnce(context.Background())
	b.CheckOnce(context.Background())
	b.CheckOnce(context.Background())
	if len(b.Healthy()) != 0 {
		t.Fatal("hash-drifted replica was re-admitted")
	}
}

func TestAdmitRefusesWrongHash(t *testing.T) {
	b := mustBalancer(t, Config{Seed: 6, ExpectHash: "good"},
		Member{Name: "a", BaseURL: "http://a"})
	if err := b.Admit("a", "evil"); err == nil {
		t.Fatal("admit with mismatched hash succeeded")
	}
	if st := b.Snapshot()[0].State; st != "refused" {
		t.Fatalf("state after bad admit: %q, want refused", st)
	}
}

func TestWriteMetricsLintsAndCounts(t *testing.T) {
	b := mustBalancer(t, Config{Seed: 7},
		Member{Name: "a", BaseURL: "http://a"},
		Member{Name: "b", BaseURL: "http://b"},
	)
	b.Admit("a", "h1")
	b.Admit("b", "h1")
	b.Eject("b", "test")
	b.CountRetry()

	var sb strings.Builder
	b.WriteMetrics(&sb)
	text := sb.String()

	problems, err := obs.Lint(strings.NewReader(text),
		"polygraph_fleet_replicas",
		"polygraph_fleet_ejections_total",
		"polygraph_fleet_readmissions_total",
		"polygraph_fleet_retries_total",
		"polygraph_fleet_replica_info",
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("lint: %s", p)
	}
	for _, want := range []string{
		`polygraph_fleet_replicas{state="healthy"} 1`,
		`polygraph_fleet_replicas{state="ejected"} 1`,
		`polygraph_fleet_replicas{state="pending"} 0`,
		"polygraph_fleet_ejections_total 1",
		"polygraph_fleet_retries_total 1",
		`polygraph_fleet_replica_info{replica="a",model_hash="h1",state="healthy"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// TestHealthTableConcurrency hammers every concurrent surface of the
// health table at once — the torn-read-safety test the race detector
// turns into a proof obligation (run via scripts/check.sh test-race).
func TestHealthTableConcurrency(t *testing.T) {
	var flaky atomic.Bool
	b := mustBalancer(t, Config{Seed: 8, ExpectHash: "h"},
		Member{Name: "a", BaseURL: "http://a", Probe: staticProbe("h", nil)},
		Member{Name: "b", BaseURL: "http://b", Probe: staticProbe("h", &flaky)},
		Member{Name: "c", BaseURL: "http://c", Probe: staticProbe("h", nil)},
	)
	for _, n := range []string{"a", "b", "c"} {
		b.Admit(n, "h")
	}
	flaky.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p, err := b.Pick()
				if err != nil {
					continue
				}
				if (i+g)%7 == 0 {
					b.Finish(p, &collect.ClientError{Kind: collect.FailDown, Op: "submit", Err: errors.New("x")})
					b.CountRetry()
				} else {
					b.Finish(p, nil)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// Two probes in each state: the thresholds are two.
			flaky.Store(i%4 < 2)
			b.CheckOnce(ctx)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, st := range b.Snapshot() {
				if st.Name == "" || st.State == "" {
					t.Error("torn snapshot row")
					return
				}
			}
			var sb strings.Builder
			b.WriteMetrics(&sb)
		}
	}()
	wg.Wait()
	cancel()

	// Leases must balance: nothing in flight once all Finish calls ran.
	for _, st := range b.Snapshot() {
		if st.Inflight != 0 {
			t.Errorf("replica %s leaked %d in-flight leases", st.Name, st.Inflight)
		}
	}
}

// TestQuiesceWaitsForInflight pins the orderly-drain contract: Quiesce
// ejects the member immediately but does not return while a lease is
// still held, and after it returns no Pick routes to the member.
func TestQuiesceWaitsForInflight(t *testing.T) {
	b := mustBalancer(t, Config{Seed: 5},
		Member{Name: "a", BaseURL: "http://a", Probe: staticProbe("h", nil)},
		Member{Name: "b", BaseURL: "http://b", Probe: staticProbe("h", nil)},
	)
	b.Admit("a", "h")
	b.Admit("b", "h")

	// Hold a lease on b so the quiesce has something to wait for.
	var lease Picked
	for {
		p, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() == "b" {
			lease = p
			break
		}
		b.Finish(p, nil)
	}

	done := make(chan error, 1)
	go func() { done <- b.Quiesce(context.Background(), "b") }()

	// The ejection is immediate even while the quiesce blocks.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ejected := false
		for _, st := range b.Snapshot() {
			if st.Name == "b" && st.State == "ejected" {
				ejected = true
			}
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quiesce never ejected the member")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("quiesce returned %v with a lease still held", err)
	case <-time.After(20 * time.Millisecond):
	}

	b.Finish(lease, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("quiesce: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("quiesce did not return after the last lease finished")
	}

	for i := 0; i < 32; i++ {
		p, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() == "b" {
			t.Fatal("pick routed to a quiesced member")
		}
		b.Finish(p, nil)
	}

	// A quiesce that cannot drain reports the context error.
	p, err := b.Pick()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := b.Quiesce(ctx, "a"); err == nil {
		t.Fatal("quiesce with a stuck lease returned nil")
	}
	b.Finish(p, nil)
	if err := b.Quiesce(context.Background(), "nope"); err == nil {
		t.Fatal("quiesce of an unknown member returned nil")
	}
}
