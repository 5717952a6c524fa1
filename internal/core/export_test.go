package core

import (
	"bytes"
	"hash/maphash"
	"testing"

	"polygraph/internal/fingerprint"
)

// MemoHolds reports whether m's verdict memo holds an entry for the
// class bytes of (vector, userAgent) — whatever VersionDivisor and
// NoveltyThreshold it was stored under — so a test can tell that the call
// that follows is answered from the memo. A pair with no class bytes is
// never held.
func MemoHolds(m *Model, vector []float64, userAgent string) bool {
	class, ok := fingerprint.AppendVectorClass(nil, userAgent, vector)
	return ok && memoEntries(m, class) > 0
}

// MemoHoldsFrame is MemoHolds for the class bytes of frame.
func MemoHoldsFrame(m *Model, frame []byte) bool {
	_, class, err := fingerprint.SplitFrame(frame)
	return err == nil && memoEntries(m, class) > 0
}

// memoEntries counts the entries of m's verdict memo keyed by class.
func memoEntries(m *Model, class []byte) int {
	p, err := m.readyPlan()
	if err != nil {
		return 0
	}
	h := maphash.Bytes(p.memo.seed, class)
	set, n := p.memo.set(h), 0
	for w := range set {
		if e := set[w].Load(); e != nil && e.hash == h && e.class == string(class) {
			n++
		}
	}
	return n
}

// SavedFixture returns the JSON of a trained fixture model.
func SavedFixture(t testing.TB) []byte {
	t.Helper()
	m, _, _ := trainFixtureModel(t, 10)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
