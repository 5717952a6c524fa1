package fphash

import (
	"math"
	"testing"
)

// TestPairTellsKeysApart: for every vector length through both loops of
// Pair, flipping any one bit of any element, or the sign of a zero, or
// changing the user-agent, changes the hash; the same key hashes the same.
func TestPairTellsKeysApart(t *testing.T) {
	h := New()
	for n := 0; n <= 9; n++ {
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = float64(i) * 1.5
		}
		base := h.Pair(vec, "Firefox 110")
		if h.Pair(append([]float64(nil), vec...), "Firefox 110") != base {
			t.Fatalf("len %d: the same key hashes twice differently", n)
		}
		if h.Pair(vec, "Firefox 111") == base {
			t.Fatalf("len %d: the user-agent is not in the hash", n)
		}
		for i := range vec {
			for _, bit := range []uint{0, 31, 52, 63} {
				flipped := append([]float64(nil), vec...)
				flipped[i] = math.Float64frombits(math.Float64bits(vec[i]) ^ 1<<bit)
				if h.Pair(flipped, "Firefox 110") == base {
					t.Fatalf("len %d: bit %d of element %d is not in the hash", n, bit, i)
				}
			}
		}
	}
	if h.Pair([]float64{0}, "") == h.Pair([]float64{math.Copysign(0, -1)}, "") {
		t.Fatal("0 and −0 hash alike")
	}
}

// TestSeeded: two Hashers disagree, and Mix and String depend on their
// inputs.
func TestSeeded(t *testing.T) {
	a, b := New(), New()
	if a.Pair([]float64{1, 2, 3}, "ua") == b.Pair([]float64{1, 2, 3}, "ua") {
		t.Fatal("two hashers agree on a key")
	}
	if a.String("m1") == a.String("m2") || a.Mix(1, 2) == a.Mix(1, 3) || a.Mix(1, 2) == a.Mix(2, 2) {
		t.Fatal("String or Mix ignores an input")
	}
}
