package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"testing"

	"polygraph/internal/fingerprint"
	"polygraph/internal/matrix"
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
// so many pairs share every slot: each pair with class bytes scored three
// times in a row is memoised and answered with its own verdict, and
// interleaved passes, which evict entries on every call, never return a
// neighbour's; nor does a planted hash collision, to a pair scored as a
// vector or as a frame.
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
		mustPlan(t, m).memo = newVerdictMemo(slots)
		for i, p := range pairs {
			for pass := 0; pass < 3; pass++ {
				checkPair(t, m, s, p, fmt.Sprintf("%d slots, pair %d, pass %d", slots, i, pass))
			}
			if _, keyed := fingerprint.AppendVectorClass(nil, p.ua, p.vec); MemoHolds(m, p.vec, p.ua) != keyed {
				t.Fatalf("%d slots, pair %d: memoised = %v after three sightings, want %v", slots, i, !keyed, keyed)
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
	// under pair b's hash, two entries holding pair a's class bytes and a
	// verdict nothing gives. b must still get its own verdict, as a vector
	// and as a frame.
	memo := mustPlan(t, m).memo
	for i, b := range pairs {
		a := pairs[(i+1)%len(pairs)]
		classA, okA := fingerprint.AppendVectorClass(nil, a.ua, a.vec)
		classB, okB := fingerprint.AppendVectorClass(nil, b.ua, b.vec)
		if !okA || !okB || bytes.Equal(classA, classB) {
			continue
		}
		h := maphash.Bytes(memo.seed, classB)
		set := memo.set(h)
		for w := range set {
			set[w].Store(&memoEntry{hash: h, class: string(classA), vec: a.vec, ua: a.ua, res: Result{Cluster: -1},
				versionDivisor: m.VersionDivisor, noveltyThreshold: m.NoveltyThreshold})
		}
		checkPair(t, m, s, b, fmt.Sprintf("pair %d under a planted collision", i))
		fb := frameOf(t, b.vec, b.ua, 1)
		checkFrame(t, m, s, fb, algorithm1(m, frameVector(t, fb), b.ua), fmt.Sprintf("frame %d under a planted collision", i))
	}
}

// TestMemoOneEntryPerClass: a class scored as a vector and then as its
// frame, or the other way round, takes one memo entry, which the second
// form hits on its first sighting.
func TestMemoOneEntryPerClass(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	samples, _ := trainFixture(t, 1)
	for i, vectorFirst := range []bool{true, false} {
		vec, claim := samples[i].Vector, ua.UserAgent(samples[i].UA, ua.Windows10)
		frame := frameOf(t, vec, claim, byte(i))
		want := algorithm1(m, vec, claim)
		first, second := func(s *Scratch) { checkPair(t, m, s, memoPair{vec, claim, want}, "vector") },
			func(s *Scratch) { checkFrame(t, m, s, frame, want, "frame") }
		if !vectorFirst {
			first, second = second, first
		}
		s := m.NewScratch()
		first(s)
		first(s)
		if !MemoHoldsFrame(m, frame) {
			t.Fatalf("vector first %v: not memoised after two sightings", vectorFirst)
		}
		second(m.NewScratch())
		second(s)
		second(s)
		if _, class, _ := fingerprint.SplitFrame(frame); memoEntries(m, class) != 1 {
			t.Fatalf("vector first %v: the class has %d entries, want 1", vectorFirst, memoEntries(m, class))
		}
		var p fingerprint.Payload
		if _, _, err := scoreFrame(m, m.NewScratch(), &p, frame); err != nil || len(p.Values) != 0 {
			t.Fatalf("vector first %v: a fresh scorer's frame is not a hit (%v, %d values)", vectorFirst, err, len(p.Values))
		}
	}
}

// TestMemoFollowsLiveFields changes VersionDivisor and NoveltyThreshold
// between calls on memoised pairs, as vectors and as frames: the next
// verdict must be what a fresh Load of the model at the new setting
// gives, never the remembered one.
func TestMemoFollowsLiveFields(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	pairs := memoPairs(t, m, 2)
	var dists []float64
	for _, p := range pairs {
		_, d := mustPlan(t, m).assign(mustPlan(t, m).transform(m.NewScratch(), p.vec))
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
			frame := frameOf(t, p.vec, p.ua, byte(i))
			frameWant, err := fresh.ScoreString(frameVector(t, frame), p.ua)
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
				checkFrame(t, m, s, frame, frameWant, fmt.Sprintf("setting %d (divisor %d, threshold %v), pair %d, frame pass %d",
					si, set.div, set.thr, i, pass))
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
	replan(t, m)
	for i, p := range pairs {
		checkPair(t, m, s, p, fmt.Sprintf("pair %d after the final plan", i))
	}
}

// TestMemoConcurrentPairs: four goroutines score the same pairs in
// different orders, each pair as a vector and as a binary payload, with
// the memo at full size and at eight slots, where entries are replaced
// under them. Run it with -race -count=10.
func TestMemoConcurrentPairs(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	pairs := memoPairs(t, m, 1)
	frames, frameWants := make([][]byte, len(pairs)), make([]Result, len(pairs))
	for i, p := range pairs {
		frames[i] = frameOf(t, p.vec, p.ua, byte(i))
		frameWants[i] = algorithm1(m, frameVector(t, frames[i]), p.ua)
	}
	for _, slots := range []int{memoSlots, 8} {
		mustPlan(t, m).memo = newVerdictMemo(slots)
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := m.NewScratch()
				for round := 0; round < 20; round++ {
					for i := range pairs {
						k := (i*(g+1) + round) % len(pairs)
						p := pairs[k]
						res, err := m.ScoreStringWith(s, p.vec, p.ua)
						if err != nil || !sameResult(res, p.want) {
							errs <- fmt.Sprintf("%d slots, goroutine %d: claim %q: got %+v (%v), oracle %+v", slots, g, p.ua, res, err, p.want)
							return
						}
						if msg := frameMismatch(m, s, frames[k], frameWants[k]); msg != "" {
							errs <- fmt.Sprintf("%d slots, goroutine %d: frame of claim %q: %s", slots, g, p.ua, msg)
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

// TestMemoEdgeInputs: a NaN coordinate, −0 against +0, a fraction, an
// empty or unparseable user-agent and one over memoMaxUA, each scored
// three times, agree with the oracle every time. A pair is memoised when
// its user-agent is at most memoMaxUA bytes and every coordinate
// round-trips through int64 (it has class bytes); the others are scored
// every time.
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
		name     string
		vec      []float64
		ua       string
		memoised bool
	}{
		{"NaN", withAt(3, math.NaN()), honest, false},
		{"NaN, other payload", withAt(3, math.Float64frombits(math.Float64bits(math.NaN())^1)), honest, false},
		{"+0", withAt(0, 0), honest, true},
		{"-0", withAt(0, math.Copysign(0, -1)), honest, false},
		{"fraction", withAt(0, 0.5), honest, false},
		{"empty user-agent", base, "", true},
		{"unparseable", base, "Mozilla/5.0 Chrome/300.0.0.0", true},
		{"over memoMaxUA", base, long, false},
	}
	for _, c := range cases {
		p := memoPair{c.vec, c.ua, algorithm1(m, c.vec, c.ua)}
		for pass := 0; pass < 3; pass++ {
			checkPair(t, m, s, p, fmt.Sprintf("%s, pass %d", c.name, pass))
		}
		if MemoHolds(m, c.vec, c.ua) != c.memoised {
			t.Fatalf("%s: memoised = %v, want %v", c.name, !c.memoised, c.memoised)
		}
	}
}

// TestMemoOwnsItsKey: a served user-agent is a view of request bytes
// (fingerprint.Payload.BorrowUserAgent) that the next request overwrites.
// An entry keeps its own copy, so after the bytes are poisoned the entry
// still holds the user-agent it was stored under, and the poisoned view
// scores as what it now says. The same holds for an entry stored by a frame
// after its frame buffer and the scratch are reused.
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

	// As a frame: ScoreClass decodes in the caller's frame buffer,
	// which the next batch overwrites, and into the scratch's vector,
	// which the next miss overwrites. The entry keeps its own class
	// bytes, vector and user-agent, which a hit hands out.
	frame := frameOf(t, vec, honest, 1)
	other := frameOf(t, vec, ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 48}, ua.Windows10), 2)
	buf := append([]byte(nil), frame...)
	want := algorithm1(m, vec, honest)
	for pass := 0; pass < 3; pass++ {
		checkFrame(t, m, s, buf, want, fmt.Sprintf("frame, pass %d", pass))
	}
	var hit fingerprint.Payload
	_, hitVec, err := scoreFrame(m, s, &hit, buf)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, bytes.Repeat([]byte{0xAA}, len(buf)))
	buf = append(buf[:0], other...)
	checkFrame(t, m, s, buf, algorithm1(m, vec, ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 48}, ua.Windows10)), "the next frame in the buffer")
	if hit.UserAgent != honest || !matrix.SameBits(hitVec, vec) || !MemoHoldsFrame(m, frame) {
		t.Fatalf("the frame's entry changed with the buffer and the scratch: user agent %q, vector %v", hit.UserAgent, hitVec)
	}
	checkFrame(t, m, s, frame, want, "the frame again, after its buffer was overwritten")
}

// TestMemoSeededPerPlan: a memo hashes a class alike twice and two
// classes apart, and two memos — two plans — hash one class differently,
// so the slots of one plan cannot be aimed at from what another revealed.
func TestMemoSeededPerPlan(t *testing.T) {
	a, b := newVerdictMemo(2), newVerdictMemo(2)
	key := []byte("\x02ua\x03\x02\x04\x06")
	if maphash.Bytes(a.seed, key) != maphash.Bytes(a.seed, append([]byte(nil), key...)) {
		t.Fatal("the same class hashes twice differently")
	}
	if maphash.Bytes(a.seed, key) == maphash.Bytes(a.seed, []byte("\x02ua\x03\x02\x04\x07")) {
		t.Fatal("the last byte is not in the hash")
	}
	if maphash.Bytes(a.seed, key) == maphash.Bytes(b.seed, key) {
		t.Fatal("two memos agree on a class")
	}
}
