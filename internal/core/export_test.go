package core

import (
	"bytes"
	"testing"

	"polygraph/internal/fingerprint"
)

// MemoHolds reports whether m's verdict memo holds an entry for (vector,
// userAgent) — whatever VersionDivisor and NoveltyThreshold it was stored
// under — so a test can tell that the call that follows is answered from
// the memo.
func MemoHolds(m *Model, vector []float64, userAgent string) bool {
	memo := m.scorePlanNow().memo
	h := memo.hasher.Pair(vector, userAgent)
	set := memo.set(h)
	for w := range set {
		if e := set[w].Load(); e != nil && e.holds(h, vector, userAgent) {
			return true
		}
	}
	return false
}

// MemoHoldsFrame is MemoHolds for the frame form: whether the memo holds
// an entry for the class bytes of frame.
func MemoHoldsFrame(m *Model, frame []byte) bool {
	_, class, err := fingerprint.SplitFrame(frame)
	if err != nil {
		return false
	}
	memo := m.scorePlanNow().memo
	h := memo.hasher.Bytes(class)
	set := memo.set(h)
	for w := range set {
		if e := set[w].Load(); e != nil && e.holdsFrame(h, class) {
			return true
		}
	}
	return false
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
