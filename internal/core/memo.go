package core

import (
	"math"
	"strings"
	"sync/atomic"

	"polygraph/internal/fphash"
	"polygraph/internal/matrix"
	"polygraph/internal/ua"
)

const (
	memoSlots = 4096 // a plan's memo: 32 KB of pointers (DESIGN.md §4 has the sizing)
	memoSeen  = 512  // a scorer's doorkeeper (Scratch.seen)
	memoMaxUA = 1024 // longer user-agents are never stored, so an entry is ≤ 1 KB + a vector
)

// verdictMemo holds ScoreString verdicts on one plan, keyed by the
// vector's bits and the raw user-agent. A pair has a set of two slots; a
// new entry takes the first and pushes the first's to the second. The
// hash is seeded per plan, so sets cannot be aimed at; a hit compares the
// whole key. A pair is stored on its second miss in a row at its slot of
// the scorer's own doorkeeper (Scratch.seen; a shared one bounces a cache
// line between cores on every miss), so one-off pairs allocate nothing.
type verdictMemo struct {
	hasher fphash.Hasher
	slots  []atomic.Pointer[memoEntry] // len a power of two, ≥ 2
}

// memoEntry is a verdict with its key and hash and the two Model fields
// scoring reads live, so that a change to either is a miss.
type memoEntry struct {
	hash             uint64
	vec              []float64
	ua               string
	res              Result
	versionDivisor   int
	noveltyThreshold float64
}

func newVerdictMemo(slots int) *verdictMemo {
	return &verdictMemo{hasher: fphash.New(), slots: make([]atomic.Pointer[memoEntry], slots)}
}

// holds reports whether e is the entry of (vector, userAgent), bit for bit.
func (e *memoEntry) holds(h uint64, vector []float64, userAgent string) bool {
	return e.hash == h && len(e.vec) == len(vector) && e.ua == userAgent && matrix.SameBits(e.vec, vector)
}

// scoreStringMemo is ScoreString on a valid plan for a vector of its
// width: the remembered verdict when the memo holds the pair under the
// model's current VersionDivisor and NoveltyThreshold, else the kernel.
func (m *Model) scoreStringMemo(p *scorePlan, s *Scratch, vector []float64, userAgent string) Result {
	h := p.memo.hasher.Pair(vector, userAgent)
	set := p.memo.slots[h&uint64(len(p.memo.slots)-2):][:2]
	div, thr := m.VersionDivisor, m.NoveltyThreshold
	for w := range set {
		if e := set[w].Load(); e != nil && e.holds(h, vector, userAgent) &&
			e.versionDivisor == div && math.Float64bits(e.noveltyThreshold) == math.Float64bits(thr) {
			return e.res
		}
	}
	claimed, parsed := ua.ParseRelease(userAgent)
	res := m.scoreOnPlan(p, s, vector, claimed, parsed)
	if seen := &s.seen[h%memoSeen]; *seen != h || len(userAgent) > memoMaxUA {
		*seen = h
	} else {
		set[1].Store(set[0].Load())
		set[0].Store(&memoEntry{hash: h, vec: append([]float64(nil), vector...), ua: strings.Clone(userAgent),
			res: res, versionDivisor: div, noveltyThreshold: thr})
	}
	return res
}
