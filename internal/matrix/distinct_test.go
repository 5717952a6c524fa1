package matrix_test

import (
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/matrix/matrixtest"
)

// checkRowGroups asserts the whole DistinctRows contract against a
// quadratic row-by-row comparison.
func checkRowGroups(t *testing.T, m *matrix.Dense, rg matrix.RowGroups) {
	t.Helper()
	n, _ := m.Dims()
	if len(rg.Group) != n {
		t.Fatalf("len(Group) = %d, want %d", len(rg.Group), n)
	}
	for g, first := range rg.First {
		if g > 0 && first <= rg.First[g-1] {
			t.Fatalf("First not strictly ascending at %d: %v", g, rg.First)
		}
		if first < 0 || first >= n || int(rg.Group[first]) != g {
			t.Fatalf("First[%d] = %d is not a row of class %d", g, first, g)
		}
	}
	same := func(i, j int) bool { return matrix.SameBits(m.RawRow(i), m.RawRow(j)) }
	for i := 0; i < n; i++ {
		g := int(rg.Group[i])
		if g < 0 || g >= len(rg.First) || rg.First[g] > i {
			t.Fatalf("Group[%d] = %d with First %v", i, g, rg.First)
		}
		for j := 0; j < i; j++ {
			if (rg.Group[i] == rg.Group[j]) != same(i, j) {
				t.Fatalf("rows %d and %d: classes %d and %d, bitwise equal %v",
					j, i, rg.Group[j], rg.Group[i], same(i, j))
			}
		}
	}
}

func TestDistinctRows(t *testing.T) {
	cases := []struct {
		name             string
		n, d, distinct   int
		nans             bool
		wantDistinctRows int
	}{
		{"few", 500, 5, 9, true, 9},
		{"sign-of-zero-only", 300, 3, 4, false, 4},
		{"all-distinct", 400, 6, 400, true, 400}, // also grows the table several times
		{"one-row", 1, 4, 4, false, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := matrixtest.FewDistinct(17, tc.n, tc.d, tc.distinct, tc.nans)
			rg := m.DistinctRows()
			checkRowGroups(t, m, rg)
			// Every base row is drawn at these sizes, so the class count
			// is the base count.
			if len(rg.First) != tc.wantDistinctRows {
				t.Fatalf("%d classes, want %d", len(rg.First), tc.wantDistinctRows)
			}
		})
	}

	t.Run("empty", func(t *testing.T) {
		rg := matrix.NewDense(0, 3).DistinctRows()
		if len(rg.Group) != 0 || len(rg.First) != 0 {
			t.Fatalf("empty matrix: %+v", rg)
		}
	})
	t.Run("no-columns", func(t *testing.T) {
		m := matrix.NewDense(5, 0)
		rg := m.DistinctRows()
		checkRowGroups(t, m, rg)
		if len(rg.First) != 1 {
			t.Fatalf("rows without columns are all equal; got %d classes", len(rg.First))
		}
	})
}

// FuzzDistinctRows drives DistinctRows with matrices spelled from a small
// palette — so repeats, ±0 and NaN-payload near-misses are the common
// case, not the rare one — and checks the contract exhaustively.
func FuzzDistinctRows(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 1, 1, 0, 0, 2})
	f.Add([]byte{1, 3, 4, 3, 4, 5, 6})
	f.Add([]byte{3, 7, 7, 7, 7, 7, 7, 0, 0, 0})
	palette := []float64{0, math.Copysign(0, -1), 1, matrixtest.NaN1, matrixtest.NaN2, -1, math.Inf(1), 0.5}
	f.Fuzz(func(t *testing.T, spec []byte) {
		if len(spec) == 0 {
			return
		}
		d := 1 + int(spec[0])%4
		cells := spec[1:]
		m := matrix.NewDense(len(cells)/d, d)
		for i := 0; i < len(cells)/d; i++ {
			for j := 0; j < d; j++ {
				m.Set(i, j, palette[int(cells[i*d+j])%len(palette)])
			}
		}
		checkRowGroups(t, m, m.DistinctRows())
	})
}

func benchmarkDistinctRows(b *testing.B, n, d, distinct int) {
	m := matrixtest.FewDistinct(1, n, d, distinct, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rg := m.DistinctRows(); len(rg.First) > distinct {
			b.Fatal(len(rg.First))
		}
	}
}

// The training shape (60 000 sessions, 150 distinct 28-feature vectors)
// and the shape with nothing to share.
func BenchmarkDistinctRowsFew(b *testing.B)         { benchmarkDistinctRows(b, 60000, 28, 150) }
func BenchmarkDistinctRowsAllDistinct(b *testing.B) { benchmarkDistinctRows(b, 20000, 28, 20000) }
