// Package matrixtest builds the inputs, and the bitwise comparison, that
// the distinct-row differential tests of matrix, iforest, pca and kmeans
// share: each of them checks a kernel that runs once per class of
// bitwise-equal rows against a literal row-at-a-time reference.
package matrixtest

import (
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/rng"
)

// Two quiet NaNs that differ only in payload.
var (
	NaN1 = math.Float64frombits(0x7ff8000000000001)
	NaN2 = math.Float64frombits(0x7ff8000000000002)
)

// FewDistinct returns an n×d matrix (d >= 2) whose rows are drawn with
// replacement from `distinct` (>= 4) random base rows — or, when distinct
// >= n, are the first n base rows, all different: the case where
// grouping finds nothing to share. The first two base rows are equal
// under == and differ in the sign of a zero; with nans, two more differ
// from the first only in the last element: NaN1 in one, NaN2 in the
// other.
func FewDistinct(seed uint64, n, d, distinct int, nans bool) *matrix.Dense {
	gen := rng.New(seed)
	base := make([][]float64, distinct)
	for i := range base {
		base[i] = make([]float64, d)
		for j := range base[i] {
			base[i][j] = gen.NormFloat64()
		}
	}
	base[0][0] = 0
	copy(base[1], base[0])
	base[1][0] = math.Copysign(0, -1)
	if nans {
		copy(base[2], base[0])
		copy(base[3], base[0])
		base[2][d-1], base[3][d-1] = NaN1, NaN2
	}
	m := matrix.NewDense(n, d)
	for i := 0; i < n; i++ {
		pick := i
		if distinct < n {
			pick = gen.Intn(distinct)
		}
		copy(m.RawRow(i), base[pick])
	}
	return m
}

// RequireSameBits fails the test unless got and want agree element for
// element in math.Float64bits (see matrix.SameBits), naming the first
// element that differs.
func RequireSameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
