package core

import (
	"math"
	"strings"
	"sync/atomic"

	"polygraph/internal/fingerprint"
	"polygraph/internal/fphash"
	"polygraph/internal/matrix"
	"polygraph/internal/ua"
)

const (
	memoSlots = 4096 // a plan's memo: 32 KB of pointers (DESIGN.md §4 has the sizing)
	memoSeen  = 512  // a scorer's doorkeeper (Scratch.seen)
	memoMaxUA = 1024 // longer user-agents are never stored, so an entry is ≤ 2 KB + a vector
)

// verdictMemo holds verdicts on one plan under two key forms of a class:
// the vector's bits and the raw user-agent (ScoreStringWith), or the
// class bytes of the binary payload that carried them (ScoreFrame:
// everything after the session ID, fingerprint.SplitFrame). A key has a
// set of two slots; a new entry takes the first and pushes the first's
// to the second. The hash is seeded per plan, so sets cannot be aimed
// at; a hit compares the whole key. A key is stored on its second miss
// in a row at its slot of the scorer's own doorkeeper (Scratch.seen; a
// shared one bounces a cache line between cores on every miss), so
// one-off keys allocate nothing.
type verdictMemo struct {
	hasher fphash.Hasher
	slots  []atomic.Pointer[memoEntry] // len a power of two, ≥ 2
}

// memoEntry is a verdict with its key and hash and the two Model fields
// scoring reads live, so that a change to either is a miss. An entry of
// the frame form keeps its class bytes beside the vector and user-agent
// they decode to, which a hit hands out.
type memoEntry struct {
	hash             uint64
	class            string // the frame form's key; "" in the vector form
	vec              []float64
	ua               string
	res              Result
	versionDivisor   int
	noveltyThreshold float64
}

func newVerdictMemo(slots int) *verdictMemo {
	return &verdictMemo{hasher: fphash.New(), slots: make([]atomic.Pointer[memoEntry], slots)}
}

// set returns the two slots of the keys hashed h.
func (memo *verdictMemo) set(h uint64) []atomic.Pointer[memoEntry] {
	return memo.slots[h&uint64(len(memo.slots)-2):][:2]
}

// holds reports whether e is the entry of (vector, userAgent), bit for bit.
func (e *memoEntry) holds(h uint64, vector []float64, userAgent string) bool {
	return e.hash == h && len(e.vec) == len(vector) && e.ua == userAgent && matrix.SameBits(e.vec, vector)
}

// holdsFrame reports whether e is the frame-form entry of class.
func (e *memoEntry) holdsFrame(h uint64, class []byte) bool {
	return e.hash == h && e.class != "" && e.class == string(class)
}

// live reports whether e was stored under the model's current
// VersionDivisor and NoveltyThreshold.
func (e *memoEntry) live(m *Model) bool {
	return e.versionDivisor == m.VersionDivisor && math.Float64bits(e.noveltyThreshold) == math.Float64bits(m.NoveltyThreshold)
}

// admits is the doorkeeper of a missed key hashed h: true on the key's
// second miss in a row at its slot of the scorer's doorkeeper, when the
// key is stored; otherwise it remembers the miss. A key whose user-agent
// is over memoMaxUA bytes is never stored.
func (s *Scratch) admits(h uint64, userAgent string) bool {
	if seen := &s.seen[h%memoSeen]; *seen != h || len(userAgent) > memoMaxUA {
		*seen = h
		return false
	}
	return true
}

// store puts e first in its set and moves the first entry second.
func store(set []atomic.Pointer[memoEntry], e *memoEntry) {
	set[1].Store(set[0].Load())
	set[0].Store(e)
}

// scoreStringMemo is ScoreString on a valid plan for a vector of its
// width: the remembered verdict when the memo holds the pair under the
// model's current VersionDivisor and NoveltyThreshold, else the kernel.
func (m *Model) scoreStringMemo(p *scorePlan, s *Scratch, vector []float64, userAgent string) Result {
	h := p.memo.hasher.Pair(vector, userAgent)
	set := p.memo.set(h)
	for w := range set {
		if e := set[w].Load(); e != nil && e.holds(h, vector, userAgent) && e.live(m) {
			return e.res
		}
	}
	claimed, parsed := ua.ParseRelease(userAgent)
	res := m.scoreOnPlan(p, s, vector, claimed, parsed)
	if s.admits(h, userAgent) {
		store(set, &memoEntry{hash: h, vec: append([]float64(nil), vector...), ua: strings.Clone(userAgent),
			res: res, versionDivisor: m.VersionDivisor, noveltyThreshold: m.NoveltyThreshold})
	}
	return res
}

// scoreFrameMemo is ScoreFrame on a valid plan, for a frame whose header
// checked out: the remembered verdict when the memo holds its class
// bytes under the model's current VersionDivisor and NoveltyThreshold,
// with no decoding, else a decode and the kernel.
func (m *Model) scoreFrameMemo(p *scorePlan, s *Scratch, pay *fingerprint.Payload, frame, sessionID, class []byte) (Result, []float64, error) {
	h := p.memo.hasher.Bytes(class)
	set := p.memo.set(h)
	for w := range set {
		if e := set[w].Load(); e != nil && e.holdsFrame(h, class) && e.live(m) {
			copy(pay.SessionID[:], sessionID)
			pay.UserAgent, pay.Values = e.ua, pay.Values[:0]
			return e.res, e.vec, nil
		}
	}
	if err := m.decodeFrame(s, pay, frame); err != nil {
		return Result{}, nil, err
	}
	claimed, parsed := ua.ParseRelease(pay.UserAgent)
	res := m.scoreOnPlan(p, s, s.vec, claimed, parsed)
	if s.admits(h, pay.UserAgent) {
		// pay.UserAgent may be a view of frame, which its owner reuses.
		store(set, &memoEntry{hash: h, class: string(class), vec: append([]float64(nil), s.vec...), ua: strings.Clone(pay.UserAgent),
			res: res, versionDivisor: m.VersionDivisor, noveltyThreshold: m.NoveltyThreshold})
	}
	return res, s.vec, nil
}
