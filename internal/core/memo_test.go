package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// memoPair is one (vector, user-agent) pair with the oracle's verdict.
type memoPair struct {
	vec  []float64
	ua   string
	want Result
}

// memoPairs draws pairs from the fixture samples whose verdicts differ:
// the honest claim, a cross-vendor lie, one that does not parse, and the
// sample with its first coordinate negated as a −0/+0 or sign twin.
func memoPairs(t *testing.T, m *Model, perUA int) []memoPair {
	t.Helper()
	samples, _ := trainFixture(t, perUA)
	var out []memoPair
	for _, s := range samples {
		twin := append([]float64(nil), s.Vector...)
		twin[0] = -twin[0]
		for _, vec := range [][]float64{s.Vector, twin} {
			for _, claim := range []string{
				ua.UserAgent(s.UA, ua.Windows10),
				ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 48}, ua.Windows10),
				"definitely not a browser",
			} {
				out = append(out, memoPair{vec, claim, algorithm1(m, vec, claim)})
			}
		}
	}
	return out
}

// checkPair scores p once with scratch s (the scorer whose doorkeeper
// admits a pair) and requires the oracle's verdict.
func checkPair(t testing.TB, m *Model, s *Scratch, p memoPair, what string) {
	t.Helper()
	got, err := m.ScoreStringWith(s, p.vec, p.ua)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, p.want) {
		t.Fatalf("%s: vector %v claim %q: got %+v, oracle %+v", what, p.vec[:2], p.ua, got, p.want)
	}
}

// TestMemoForcedCollisions shrinks the memo to two, four and eight slots,
// so many pairs share every slot: each pair scored three times in a row
// is memoised and answered with its own verdict, and interleaved passes,
// which evict entries on every call, never return a neighbour's.
func TestMemoForcedCollisions(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	pairs := memoPairs(t, m, 1)
	verdicts := map[Result]bool{}
	for _, p := range pairs {
		verdicts[p.want] = true
	}
	if len(verdicts) < 3 {
		t.Fatalf("pairs have %d distinct verdicts; a collision could not show", len(verdicts))
	}
	s := m.NewScratch()
	for _, slots := range []int{2, 4, 8} {
		m.scorePlanNow().memo = newVerdictMemo(slots)
		for i, p := range pairs {
			for pass := 0; pass < 3; pass++ {
				checkPair(t, m, s, p, fmt.Sprintf("%d slots, pair %d, pass %d", slots, i, pass))
			}
			if !MemoHolds(m, p.vec, p.ua) {
				t.Fatalf("%d slots, pair %d: not memoised after three sightings", slots, i)
			}
		}
		for round := 0; round < 4; round++ {
			for i := range pairs {
				p := pairs[(i*7+round)%len(pairs)]
				checkPair(t, m, s, p, fmt.Sprintf("%d slots, round %d", slots, round))
				checkPair(t, m, s, p, fmt.Sprintf("%d slots, round %d, repeated", slots, round))
			}
		}
	}
	// A 64-bit hash collision cannot be produced on demand, so plant one:
	// an entry under pair b's hash holding pair a's key and a verdict
	// nothing gives. b must still get its own verdict.
	memo := m.scorePlanNow().memo
	for i, b := range pairs {
		a := pairs[(i+1)%len(pairs)]
		if (&memoEntry{hash: 1, vec: a.vec, ua: a.ua}).holds(1, b.vec, b.ua) {
			a = pairs[(i+3)%len(pairs)] // the same key (an honest Firefox 48 claim): take the sign twin
		}
		h := memo.hasher.Pair(b.vec, b.ua)
		set := memo.slots[h&uint64(len(memo.slots)-2):][:2]
		for w := range set {
			set[w].Store(&memoEntry{hash: h, vec: a.vec, ua: a.ua, res: Result{Cluster: -1},
				versionDivisor: m.VersionDivisor, noveltyThreshold: m.NoveltyThreshold})
		}
		checkPair(t, m, s, b, fmt.Sprintf("pair %d under a planted collision", i))
	}
}

// TestMemoFollowsLiveFields changes VersionDivisor and NoveltyThreshold
// between calls on memoised pairs: the next verdict must be what a fresh
// Load of the model at the new setting gives, never the remembered one.
func TestMemoFollowsLiveFields(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	pairs := memoPairs(t, m, 2)
	var dists []float64
	for _, p := range pairs {
		_, d := m.scorePlanNow().assign(m.scorePlanNow().transform(m.NewScratch(), p.vec))
		dists = append(dists, d)
	}
	settings := []struct {
		div int
		thr float64
	}{{m.VersionDivisor, 0}, {1, 0}, {1, dists[len(dists)/2]}, {1, 1e-12}, {m.VersionDivisor, 0}}

	s := m.NewScratch()
	var prev []Result
	moved := 0
	for si, set := range settings {
		m.VersionDivisor, m.NoveltyThreshold = set.div, set.thr
		var saved bytes.Buffer
		if err := m.Save(&saved); err != nil {
			t.Fatal(err)
		}
		fresh, err := Load(&saved)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Result, len(pairs))
		for i, p := range pairs {
			want, err := fresh.ScoreString(p.vec, p.ua)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 3; pass++ {
				res, err := m.ScoreStringWith(s, p.vec, p.ua)
				if err != nil {
					t.Fatal(err)
				}
				if res != want {
					t.Fatalf("setting %d (divisor %d, threshold %v), pair %d, pass %d: got %+v, fresh Load %+v",
						si, set.div, set.thr, i, pass, res, want)
				}
			}
			got[i] = want
			if prev != nil && prev[i] != want {
				moved++
			}
		}
		prev = got
	}
	if moved == 0 {
		t.Fatal("no verdict moved with the settings; the test shows nothing")
	}
}

// TestMemoPlanBoundary: verdicts memoised on a plan built before the UA
// table existed — what buildClusterTable's rare-UA alignment makes
// mid-training — are never served once the finished plan is stored, as
// Train stores it.
func TestMemoPlanBoundary(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	pairs := memoPairs(t, m, 1)
	table := m.ClusterUAs
	m.ClusterUAs = nil
	m.plan.Store(nil)
	s := m.NewScratch()
	stale := 0
	for _, p := range pairs {
		for pass := 0; pass < 3; pass++ {
			res, err := m.ScoreStringWith(s, p.vec, p.ua)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 2 && !sameResult(res, p.want) {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("the early plan agrees with the finished model everywhere; the test shows nothing")
	}
	m.ClusterUAs = table
	m.plan.Store(buildScorePlan(m))
	for i, p := range pairs {
		checkPair(t, m, s, p, fmt.Sprintf("pair %d after the final plan", i))
	}
}

// TestMemoConcurrentPairs: four goroutines score the same pairs in
// different orders, with the memo at full size and at eight slots, where
// entries are replaced under them. Run it with -race -count=10.
func TestMemoConcurrentPairs(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	pairs := memoPairs(t, m, 1)
	for _, slots := range []int{memoSlots, 8} {
		m.scorePlanNow().memo = newVerdictMemo(slots)
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := m.NewScratch()
				for round := 0; round < 20; round++ {
					for i := range pairs {
						p := pairs[(i*(g+1)+round)%len(pairs)]
						res, err := m.ScoreStringWith(s, p.vec, p.ua)
						if err != nil || !sameResult(res, p.want) {
							errs <- fmt.Sprintf("%d slots, goroutine %d: claim %q: got %+v (%v), oracle %+v", slots, g, p.ua, res, err, p.want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestMemoEdgeInputs: a NaN coordinate, −0 against +0, an empty or
// unparseable user-agent and one over memoMaxUA, each scored three times,
// agree with the oracle every time. Everything but the long user-agent is
// memoised; that one is scored every time.
func TestMemoEdgeInputs(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	samples, _ := trainFixture(t, 1)
	base := samples[4].Vector
	honest := ua.UserAgent(samples[4].UA, ua.Windows10)
	withAt := func(j int, v float64) []float64 {
		vec := append([]float64(nil), base...)
		vec[j] = v
		return vec
	}
	long := honest + strings.Repeat(" x", memoMaxUA)
	s := m.NewScratch()
	cases := []struct {
		name string
		vec  []float64
		ua   string
	}{
		{"NaN", withAt(3, math.NaN()), honest},
		{"NaN, other payload", withAt(3, math.Float64frombits(math.Float64bits(math.NaN())^1)), honest},
		{"+0", withAt(0, 0), honest},
		{"-0", withAt(0, math.Copysign(0, -1)), honest},
		{"empty user-agent", base, ""},
		{"unparseable", base, "Mozilla/5.0 Chrome/300.0.0.0"},
		{"over memoMaxUA", base, long},
	}
	for _, c := range cases {
		p := memoPair{c.vec, c.ua, algorithm1(m, c.vec, c.ua)}
		for pass := 0; pass < 3; pass++ {
			checkPair(t, m, s, p, fmt.Sprintf("%s, pass %d", c.name, pass))
		}
		if want := len(c.ua) <= memoMaxUA; MemoHolds(m, c.vec, c.ua) != want {
			t.Fatalf("%s: memoised = %v, want %v", c.name, !want, want)
		}
	}
}

// TestMemoOwnsItsKey: a served user-agent is a view of request bytes
// (fingerprint.Payload.BorrowUserAgent) that the next request overwrites.
// An entry keeps its own copy, so after the bytes are poisoned the entry
// still holds the user-agent it was stored under, and the poisoned view
// scores as what it now says.
func TestMemoOwnsItsKey(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	samples, _ := trainFixture(t, 1)
	vec := samples[4].Vector
	honest := ua.UserAgent(samples[4].UA, ua.Windows10)
	wire := []byte(honest)
	var p fingerprint.Payload
	p.BorrowUserAgent(wire)
	s := m.NewScratch()
	for pass := 0; pass < 3; pass++ {
		checkPair(t, m, s, memoPair{vec, p.UserAgent, algorithm1(m, vec, honest)}, fmt.Sprintf("borrowed, pass %d", pass))
	}
	copy(wire, bytes.Repeat([]byte{0xAA}, len(wire)))
	if !MemoHolds(m, vec, honest) {
		t.Fatal("the entry lost its user-agent when the request bytes were overwritten")
	}
	checkPair(t, m, s, memoPair{vec, p.UserAgent, algorithm1(m, vec, string(wire))}, "poisoned")
}
