package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fleet"
	"polygraph/internal/serving"
	"polygraph/internal/ua"
)

// The package shares one trained model: training dominates test time and
// every test only needs a deterministic scoring target.
var (
	modelOnce sync.Once
	model     *core.Model
	modelErr  error
)

func sharedModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Sessions = 8000
		d, err := dataset.Generate(cfg)
		if err != nil {
			modelErr = err
			return
		}
		tc := core.DefaultTrainConfig()
		tc.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
		model, _, modelErr = core.Train(d.Samples(), tc)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

// target is a fresh rig with zeroed counters around the shared model,
// so per-test cross-check deltas start clean: n serving.Replica members
// behind a balancer, the first with a framed TCP listener when asked.
type target struct {
	fleet   *fleet.Balancer
	tcpAddr string
}

func freshTarget(t testing.TB, n int, tcp bool) target {
	t.Helper()
	members := make([]fleet.Member, n)
	hash := ""
	var tg target
	for i := range members {
		cfg := serving.Config{Name: fmt.Sprintf("r%d", i), Addr: "127.0.0.1:0", Model: sharedModel(t)}
		if tcp {
			cfg.TCPAddr = "127.0.0.1:0"
		}
		r, err := serving.New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		members[i], hash = r.Member(), r.ModelHash()
		if i == 0 {
			tg.tcpAddr = r.TCPAddr()
		}
	}
	tg.fleet = admitAll(t, hash, members...)
	return tg
}

// admitAll puts members behind a balancer with everyone in rotation.
func admitAll(t testing.TB, hash string, members ...fleet.Member) *fleet.Balancer {
	t.Helper()
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1}, members...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if err := b.Admit(m.Name, hash); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// rigs is the table every end-to-end property runs over: the three
// shapes cmd/loadgen builds in-process.
var rigs = []struct {
	name     string
	replicas int
	tcp      bool
}{
	{"http-single", 1, false},
	{"http-fleet-3", 3, false},
	{"tcp", 1, true},
}

// scenarioFor constrains sc to what the rig's transport can carry: TCP
// frames are binary-only and nothing is deliberately malformed.
func scenarioFor(tcp bool, sc *Scenario) *Scenario {
	if tcp {
		sc.JSONMix = 0
		sc.InvalidMix = 0
	}
	return sc
}

func poolFor(t testing.TB, sc *Scenario) *Pool {
	t.Helper()
	pool, err := BuildPool(sc, sharedModel(t).Features)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// smallScenario is the CI short scenario scaled down for unit tests.
func smallScenario(seed uint64) *Scenario {
	return &Scenario{
		Name:     "test",
		Seed:     seed,
		Pool:     128,
		FraudMix: 0.05,
		JSONMix:  0.3,
		Budget:   Duration(time.Minute),
		Phases: []Phase{
			{Name: "ramp", Requests: 60, Concurrency: 2, RPS: 600},
			{Name: "steady", Requests: 200, Concurrency: 4},
			{Name: "burst", Requests: 100, Concurrency: 8},
		},
	}
}

func TestBuildPoolDeterministic(t *testing.T) {
	m := sharedModel(t)
	sc := smallScenario(42)
	p1, err := BuildPool(sc, m.Features)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPool(sc, m.Features)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Requests) != sc.Pool || len(p2.Requests) != sc.Pool {
		t.Fatalf("pool sizes %d/%d, want %d", len(p1.Requests), len(p2.Requests), sc.Pool)
	}
	for i := range p1.Requests {
		a, b := p1.Requests[i], p2.Requests[i]
		if !bytes.Equal(a.Body, b.Body) || a.Path != b.Path || a.Fraud != b.Fraud || a.Invalid != b.Invalid {
			t.Fatalf("pool entry %d differs between identical builds", i)
		}
	}
	// A different seed must move the stream.
	p3, err := BuildPool(smallScenario(43), m.Features)
	if err != nil {
		t.Fatal(err)
	}
	if p1.streamDigest(int64(sc.Pool)) == p3.streamDigest(int64(sc.Pool)) {
		t.Fatal("different seeds produced identical streams")
	}
	// The mix must actually contain both endpoints and some fraud.
	var json, fraud int
	for _, r := range p1.Requests {
		if r.Path == EndpointJSON {
			json++
		}
		if r.Fraud {
			fraud++
		}
	}
	if json == 0 || json == len(p1.Requests) {
		t.Fatalf("json mix degenerate: %d/%d", json, len(p1.Requests))
	}
	if fraud == 0 {
		t.Fatal("no fraud sessions in pool")
	}
}

func TestStreamDigestCycles(t *testing.T) {
	m := sharedModel(t)
	pool, err := BuildPool(smallScenario(1), m.Features)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(pool.Requests))
	if pool.streamDigest(n) == pool.streamDigest(n+1) {
		t.Fatal("digest ignores stream length")
	}
	if pool.streamDigest(5) != pool.streamDigest(5) {
		t.Fatal("digest not a pure function")
	}
}

// TestRunDeterministicLedger is the acceptance-criteria pin, on every
// rig: two runs of the same seeded, count-bounded scenario against
// fresh deterministic targets produce byte-identical request streams
// and identical ledgers, and each run's ledger reconciles exactly with
// the sum of its members' counters.
func TestRunDeterministicLedger(t *testing.T) {
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			sc := scenarioFor(rig.tcp, smallScenario(7))
			pool := poolFor(t, sc)
			runOnce := func() *Report {
				tg := freshTarget(t, rig.replicas, rig.tcp)
				rep, err := Run(context.Background(), Options{Scenario: sc, Pool: pool, Fleet: tg.fleet, TCPAddr: tg.tcpAddr})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			r1, r2 := runOnce(), runOnce()
			if !reflect.DeepEqual(r1.Ledger, r2.Ledger) {
				t.Fatalf("ledgers differ:\n%+v\n%+v", r1.Ledger, r2.Ledger)
			}
			if r1.Ledger.Sent != 360 {
				t.Fatalf("sent %d, want 360", r1.Ledger.Sent)
			}
			if r1.Ledger.Errors() != 0 {
				t.Fatalf("errors %d, want 0: %+v", r1.Ledger.Errors(), r1.Ledger)
			}
			if r1.Ledger.Flagged == 0 {
				t.Fatal("no flagged decisions decoded from the replies")
			}
			for _, r := range []*Report{r1, r2} {
				cc := r.CrossCheck
				if cc == nil || !cc.OK {
					t.Fatalf("cross-check failed: %+v", cc)
				}
				if cc.ClientOK != cc.ServerReceivedDelta || cc.ClientOK != r.Ledger.Sent {
					t.Fatalf("ingest counters disagree: %+v", cc)
				}
				if cc.ClientFlagged != cc.ServerFlaggedDelta {
					t.Fatalf("flagged counters disagree: %+v", cc)
				}
				// Several members are itemized; one is not.
				var itemized int64
				for _, rd := range cc.Replicas {
					itemized += rd.ReceivedDelta
				}
				if want := rig.replicas; want > 1 && (len(cc.Replicas) != want || itemized != r.Ledger.Sent) {
					t.Fatalf("replica breakdown %+v does not sum to %d over %d members", cc.Replicas, r.Ledger.Sent, want)
				} else if want == 1 && cc.Replicas != nil {
					t.Fatalf("one-member target itemized replicas: %+v", cc.Replicas)
				}
			}
			// Latency was recorded for every request: one sample each over
			// HTTP, one per pipelined block over TCP.
			var n uint64
			for _, q := range r1.Overall {
				n += q.Count
			}
			if rig.tcp {
				if _, ok := r1.Overall[EndpointTCPLabel]; !ok || n == 0 || n >= uint64(r1.Ledger.Sent) {
					t.Fatalf("tcp latency series: %+v", r1.Overall)
				}
			} else if n != uint64(r1.Ledger.Sent) {
				t.Fatalf("recorded %d latencies for %d requests", n, r1.Ledger.Sent)
			}
			if r1.P99() <= 0 {
				t.Fatal("no p99 recorded")
			}
		})
	}
}

// TestRunLiveMember drives a plain collect server the way -addr does:
// the one member has no in-process overrides, so the pre/post scrapes
// and the stats read go over HTTP and must still reconcile.
func TestRunLiveMember(t *testing.T) {
	srv, err := collect.NewServer(collect.Config{Model: sharedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sc := smallScenario(11)
	rep, err := Run(context.Background(), Options{
		Scenario: sc, Pool: poolFor(t, sc),
		Fleet: admitAll(t, "", fleet.Member{Name: "live", BaseURL: ts.URL}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cc := rep.CrossCheck; cc == nil || !cc.OK || cc.ServerReceivedDelta != 360 || int64(cc.MetricsReceived) != 360 {
		t.Fatalf("cross-check over the HTTP member path: %+v", cc)
	}
}

// TestRunErrorTaxonomy feeds deliberately malformed payloads and checks
// they surface as counted 4xx rejections that still reconcile with the
// server's rejected counter — and that a target refusing connections
// costs exactly one conn error per request.
func TestRunErrorTaxonomy(t *testing.T) {
	sc := smallScenario(21)
	sc.InvalidMix = 0.3
	pool := poolFor(t, sc)
	var invalid int64
	for _, r := range pool.Requests {
		if r.Invalid {
			invalid++
		}
	}
	if invalid == 0 {
		t.Fatal("no invalid requests generated at 30% mix")
	}
	rep, err := Run(context.Background(), Options{Scenario: sc, Pool: pool, Fleet: freshTarget(t, 1, false).fleet})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ledger.Errors() == 0 {
		t.Fatal("invalid payloads produced no errors")
	}
	if rep.Ledger.ByStatus["400"] == 0 {
		t.Fatalf("no 400s in taxonomy: %+v", rep.Ledger.ByStatus)
	}
	var total int64
	for _, c := range rep.Ledger.ByStatus {
		total += c
	}
	total += rep.Ledger.Timeouts + rep.Ledger.ConnErrors
	if total != rep.Ledger.Sent {
		t.Fatalf("taxonomy accounts for %d of %d requests", total, rep.Ledger.Sent)
	}
	if cc := rep.CrossCheck; cc == nil || !cc.OK {
		t.Fatalf("cross-check failed with invalid traffic: %+v", cc)
	}

	// A dead one-member target: the first refusal ejects the member and
	// nothing is left to retry on, so every request is one conn error —
	// no retry may inflate the count — and the cross-check fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	rep, err = Run(context.Background(), Options{
		Scenario: sc, Pool: pool,
		Fleet: admitAll(t, "", fleet.Member{Name: "dead", BaseURL: dead}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ledger.ConnErrors != rep.Ledger.Sent || rep.Ledger.Sent != 360 || len(rep.Ledger.ByStatus) != 0 {
		t.Fatalf("refused target: %+v", rep.Ledger)
	}
	if cc := rep.CrossCheck; cc == nil || cc.OK || cc.Retries != 0 {
		t.Fatalf("refused target cross-check: %+v", cc)
	}
}

func TestRunDurationPhase(t *testing.T) {
	sc := &Scenario{
		Name: "soak", Seed: 3, Pool: 64, JSONMix: 0.2,
		Phases: []Phase{
			{Name: "steady", Duration: Duration(300 * time.Millisecond), Concurrency: 2, RPS: 400},
		},
	}
	rep, err := Run(context.Background(), Options{Scenario: sc, Pool: poolFor(t, sc), Fleet: freshTarget(t, 1, false).fleet})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ledger.Sent == 0 {
		t.Fatal("duration phase sent nothing")
	}
	if rep.Ledger.Errors() != 0 {
		t.Fatalf("errors: %+v", rep.Ledger.ByStatus)
	}
	// 400 RPS for 300 ms is ~120 requests; pacing should keep the total
	// in the right order of magnitude (generous bounds for CI boxes).
	if rep.Ledger.Sent > 400 {
		t.Fatalf("pacing did not bound throughput: %d requests", rep.Ledger.Sent)
	}
}

// TestRunBudgetTruncates: on every rig the scenario budget stops a
// phase that would run for seconds, and the cross-check still audits
// what did complete.
func TestRunBudgetTruncates(t *testing.T) {
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			sc := scenarioFor(rig.tcp, &Scenario{
				Name: "over-budget", Seed: 5, Pool: 32,
				Budget: Duration(150 * time.Millisecond),
				Phases: []Phase{
					{Name: "long", Duration: Duration(5 * time.Second), Concurrency: 1, RPS: 50},
				},
			})
			tg := freshTarget(t, rig.replicas, rig.tcp)
			start := time.Now()
			rep, err := Run(context.Background(), Options{Scenario: sc, Pool: poolFor(t, sc), Fleet: tg.fleet, TCPAddr: tg.tcpAddr})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.BudgetExceeded || !rep.Phases[0].Truncated {
				t.Fatalf("budget exceeded flag not set: %+v", rep.Phases)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("budget did not bound the run: %v", elapsed)
			}
			if cc := rep.CrossCheck; cc == nil || !cc.OK {
				t.Fatalf("cross-check failed after budget stop: %+v", cc)
			}
		})
	}
}

func TestRunOptionValidation(t *testing.T) {
	sc := smallScenario(1) // JSONMix 0.3: some entries carry no payload
	pool := poolFor(t, sc)
	b := admitAll(t, "", fleet.Member{Name: "x", BaseURL: "http://x"})
	cases := map[string]Options{
		"no scenario":          {Pool: pool, Fleet: b},
		"no pool":              {Scenario: sc, Fleet: b},
		"no target":            {Scenario: sc, Pool: pool},
		"invalid scenario":     {Scenario: &Scenario{}, Pool: pool, Fleet: b},
		"tcp without a target": {Scenario: sc, Pool: pool, TCPAddr: "127.0.0.1:1"},
		"tcp, mixed encodings": {Scenario: sc, Pool: pool, TCPAddr: "127.0.0.1:1", SkipCrossCheck: true},
	}
	for name, opts := range cases {
		if _, err := Run(context.Background(), opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := BuildPool(sc, nil); err == nil {
		t.Error("BuildPool accepted empty features")
	}
}

// TestBlockClaims runs the phase loop over a fake transport at block
// sizes 1 (HTTP), 16 and 64 (TCP), with phase counts no block size
// divides: a claim straddling a phase boundary must give back exactly
// the indices past it. Every index of the serial stream is sent once,
// in its own phase; the Midpoint hook fires once per fixed-count phase,
// before the claim holding the halfway index goes out — the same index
// whatever the block size — and never for a duration phase.
func TestBlockClaims(t *testing.T) {
	sc := &Scenario{
		Name: "blocks", Seed: 3, Pool: 50, Budget: Duration(time.Minute),
		Phases: []Phase{
			{Name: "a", Requests: 100, Concurrency: 3},
			{Name: "b", Requests: 251, Concurrency: 4},
			{Name: "c", Requests: 37, Concurrency: 2},
			// One worker: concurrent workers of a duration phase can give
			// back a claim below one still in flight, so only the count of
			// what they sent is exact, not the set.
			{Name: "soak", Duration: Duration(time.Millisecond), Concurrency: 1},
		},
	}
	const fixed = 100 + 251 + 37
	// phaseOf is where the serial stream puts index i; mids are the
	// fixed-count phases' halfway indices.
	phaseOf := func(i int64) string {
		switch {
		case i < 100:
			return "a"
		case i < 351:
			return "b"
		case i < fixed:
			return "c"
		}
		return "soak"
	}
	mids := map[string]int64{"a": 50, "b": 100 + 125, "c": 351 + 18}
	pool := poolFor(t, sc)
	for _, block := range []int64{1, 16, 64} {
		t.Run(fmt.Sprintf("block-%d", block), func(t *testing.T) {
			var (
				mu      sync.Mutex
				sent    = map[int64]bool{}
				fired   = map[string]int{}
				midSent = map[string]bool{} // the halfway claim went out after the hook
			)
			tr := transport{
				block:     block,
				endpoints: []string{"fake"},
				worker: func(_ context.Context, ps *phaseState) (func(start, n int64), func()) {
					return func(start, n int64) {
						ps.sent.Add(n)
						mu.Lock()
						defer mu.Unlock()
						phase := phaseOf(start)
						for i := start; i < start+n; i++ {
							if sent[i] || phaseOf(i) != phase {
								t.Errorf("claim [%d,%d): index %d already sent (%v) or in another phase", start, start+n, i, sent[i])
							}
							sent[i] = true
						}
						if mid, ok := mids[phase]; ok && start <= mid && mid < start+n {
							midSent[phase] = fired[phase] == 1
						}
					}, func() {}
				},
			}
			hook := &PhaseHook{Midpoint: func(name string) {
				mu.Lock()
				defer mu.Unlock()
				fired[name]++
			}}
			rep, err := run(context.Background(), Options{Scenario: sc, Pool: pool, Hook: hook, SkipCrossCheck: true}, tr)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for i, p := range rep.Phases {
				sum += p.Sent
				if want := int64(sc.Phases[i].Requests); want > 0 && p.Sent != want {
					t.Errorf("phase %s sent %d, want %d", p.Name, p.Sent, want)
				}
			}
			// As many distinct indices as were sent, none at or past the
			// count: the sent set is the serial stream's prefix, so the
			// ledger's digest is the digest of what went out.
			if sum != rep.Ledger.Sent || int64(len(sent)) != sum {
				t.Fatalf("phases sum to %d, ledger sent %d, %d distinct indices", sum, rep.Ledger.Sent, len(sent))
			}
			for i := range sent {
				if i >= sum {
					t.Fatalf("index %d sent but the ledger counts %d", i, sum)
				}
			}
			if rep.Ledger.StreamDigest != pool.streamDigest(sum) {
				t.Fatal("ledger digest is not the serial stream's")
			}
			for name := range mids {
				if fired[name] != 1 || !midSent[name] {
					t.Errorf("phase %s: midpoint fired %d times, halfway claim sent after it: %v", name, fired[name], midSent[name])
				}
			}
			if fired["soak"] != 0 {
				t.Errorf("midpoint fired %d times for a duration phase", fired["soak"])
			}
		})
	}
}

func TestFormatReportShape(t *testing.T) {
	sc := smallScenario(9)
	rep, err := Run(context.Background(), Options{Scenario: sc, Pool: poolFor(t, sc), Fleet: freshTarget(t, 1, false).fleet})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatReport(rep)
	for _, needle := range []string{"scenario test", "ramp", "steady", "burst", "/v1/collect", "stream digest", "cross-check: OK"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("report missing %q:\n%s", needle, out)
		}
	}
}
