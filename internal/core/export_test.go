package core

// MemoHolds reports whether m's verdict memo holds an entry for (vector,
// userAgent) — whatever VersionDivisor and NoveltyThreshold it was stored
// under — so a test can tell that the call that follows is answered from
// the memo.
func MemoHolds(m *Model, vector []float64, userAgent string) bool {
	memo := m.scorePlanNow().memo
	h := memo.hasher.Pair(vector, userAgent)
	set := memo.slots[h&uint64(len(memo.slots)-2):][:2]
	for w := range set {
		if e := set[w].Load(); e != nil && e.holds(h, vector, userAgent) {
			return true
		}
	}
	return false
}
