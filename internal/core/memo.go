package core

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sync/atomic"

	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

const (
	memoSlots = 4096 // a plan's memo: 32 KB of pointers (DESIGN.md §4 has the sizing)
	memoSeen  = 512  // a scorer's doorkeeper (Scratch.seen)
	memoMaxUA = 1024 // longer user-agents are never stored, so a key is ≤ 1 KB + its values
)

// verdictMemo holds verdicts on one plan keyed by class bytes (the user
// agent and the values, everything a binary payload carries after its
// session ID), whichever way the class arrived: as the bytes a served
// route hands in (ScoreClass) or encoded from a vector and a user agent
// (ScoreStringWith, fingerprint.AppendVectorClass). A key has a set of
// two slots; a new entry takes the first and pushes the first's to the
// second. The hash (hash/maphash) is seeded per plan, so sets cannot be
// aimed at; a hit compares the whole key. A key is stored on its second
// miss in a row at its slot of the scorer's own doorkeeper (Scratch.seen;
// a shared one bounces a cache line between cores on every miss), so
// one-off keys allocate nothing.
type verdictMemo struct {
	seed  maphash.Seed
	slots []atomic.Pointer[memoEntry] // len a power of two, ≥ 2
}

// memoEntry is a verdict with its key and hash and the two Model fields
// scoring reads live, so that a change to either is a miss. It keeps the
// vector and user agent its class bytes decode to, which a ScoreClass
// hit hands out; the user agent is a view of the class bytes.
type memoEntry struct {
	hash             uint64
	class            string // the key
	vec              []float64
	ua               string
	res              Result
	versionDivisor   int
	noveltyThreshold float64
}

func newVerdictMemo(slots int) *verdictMemo {
	return &verdictMemo{seed: maphash.MakeSeed(), slots: make([]atomic.Pointer[memoEntry], slots)}
}

// set returns the two slots of the keys hashed h.
func (memo *verdictMemo) set(h uint64) []atomic.Pointer[memoEntry] {
	return memo.slots[h&uint64(len(memo.slots)-2):][:2]
}

// lookup returns the entry of class, hashed h, stored under the model's
// current VersionDivisor and NoveltyThreshold, or nil.
func (memo *verdictMemo) lookup(m *Model, h uint64, class []byte) *memoEntry {
	set := memo.set(h)
	for w := range set {
		if e := set[w].Load(); e != nil && e.hash == h && e.class == string(class) && e.versionDivisor == m.VersionDivisor &&
			math.Float64bits(e.noveltyThreshold) == math.Float64bits(m.NoveltyThreshold) {
			return e
		}
	}
	return nil
}

// admit is the doorkeeper of a missed class hashed h, scored res: on the
// key's second miss in a row at its slot of the scorer's doorkeeper it
// stores the entry first in its set and moves the first entry second;
// otherwise it remembers the miss. A class whose user agent, of uaLen
// bytes, is over memoMaxUA is never stored. class and vec are copied,
// since their owners reuse them.
func (memo *verdictMemo) admit(m *Model, s *Scratch, h uint64, class []byte, uaLen int, vec []float64, res Result) {
	if seen := &s.seen[h%memoSeen]; *seen != h || uaLen > memoMaxUA {
		*seen = h
		return
	}
	key := string(class)
	_, at := binary.Uvarint(class)
	set := memo.set(h)
	set[1].Store(set[0].Load())
	set[0].Store(&memoEntry{hash: h, class: key, vec: slices.Clone(vec), ua: key[at : at+uaLen],
		res: res, versionDivisor: m.VersionDivisor, noveltyThreshold: m.NoveltyThreshold})
}

// scoreStringMemo is ScoreString on plan p for a vector of its
// width: the remembered verdict when the memo holds the pair's class
// bytes, else the kernel. A pair with no class bytes (a coordinate that
// does not round-trip through int64) goes to the kernel every time.
func (m *Model) scoreStringMemo(p *scorePlan, s *Scratch, vector []float64, userAgent string) Result {
	var keyed bool
	s.class, keyed = fingerprint.AppendVectorClass(s.class[:0], userAgent, vector)
	h := maphash.Bytes(p.memo.seed, s.class)
	if e := p.memo.lookup(m, h, s.class); keyed && e != nil {
		return e.res
	}
	claimed, parsed := ua.ParseRelease(userAgent)
	res := m.scoreOnPlan(p, s, vector, claimed, parsed)
	if keyed {
		p.memo.admit(m, s, h, s.class, len(userAgent), vector, res)
	}
	return res
}
