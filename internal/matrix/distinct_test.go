package matrix_test

import (
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/matrix/matrixtest"
	"polygraph/internal/rng"
)

// checkRowGroups asserts the whole GroupRows contract for the rows of m
// under keys (nil: every key zero) against a quadratic row-by-row
// comparison: first-appearance numbering, counts, keys and the table.
func checkRowGroups(t *testing.T, m *matrix.Dense, keys []uint64, rg matrix.RowGroups) {
	t.Helper()
	n, d := m.Dims()
	key := func(i int) uint64 {
		if keys == nil {
			return 0
		}
		return keys[i]
	}
	if len(rg.Group) != n {
		t.Fatalf("len(Group) = %d, want %d", len(rg.Group), n)
	}
	if r, c := rg.Rows.Dims(); r != len(rg.Count) || c != d || len(rg.Key) != r {
		t.Fatalf("table %dx%d, %d counts, %d keys; want %d columns", r, c, len(rg.Count), len(rg.Key), d)
	}
	counts := make([]int, len(rg.Count))
	next := int32(0)
	for i := 0; i < n; i++ {
		g := rg.Group[i]
		if g < 0 || g > next || int(g) >= len(rg.Count) {
			t.Fatalf("Group[%d] = %d, next new class %d of %d", i, g, next, len(rg.Count))
		}
		if g == next {
			next++
		}
		counts[g]++
		if rg.Key[g] != key(i) || !matrix.SameBits(m.RawRow(i), rg.Rows.RawRow(int(g))) {
			t.Fatalf("row %d is not class %d's key and table row", i, g)
		}
		for j := 0; j < i; j++ {
			same := key(i) == key(j) && matrix.SameBits(m.RawRow(i), m.RawRow(j))
			if (rg.Group[i] == rg.Group[j]) != same {
				t.Fatalf("rows %d and %d: classes %d and %d, equal %v", j, i, rg.Group[j], rg.Group[i], same)
			}
		}
	}
	if int(next) != len(rg.Count) {
		t.Fatalf("%d classes appear, table has %d", next, len(rg.Count))
	}
	for g, c := range counts {
		if rg.Count[g] != c {
			t.Fatalf("Count[%d] = %d, class has %d rows", g, rg.Count[g], c)
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
			checkRowGroups(t, m, nil, rg)
			// Every base row is drawn at these sizes, so the class count
			// is the base count.
			if len(rg.Count) != tc.wantDistinctRows {
				t.Fatalf("%d classes, want %d", len(rg.Count), tc.wantDistinctRows)
			}
			// Where nothing is shared the table is the matrix, not a copy.
			if (rg.Rows == m) != (tc.wantDistinctRows == tc.n) {
				t.Fatalf("table aliases the matrix: %v, all rows distinct: %v", rg.Rows == m, tc.wantDistinctRows == tc.n)
			}
		})
	}

	t.Run("empty", func(t *testing.T) {
		rg := matrix.NewDense(0, 3).DistinctRows()
		if len(rg.Group) != 0 || len(rg.Count) != 0 {
			t.Fatalf("empty matrix: %+v", rg)
		}
	})
	t.Run("no-columns", func(t *testing.T) {
		m := matrix.NewDense(5, 0)
		rg := m.DistinctRows()
		checkRowGroups(t, m, nil, rg)
		if len(rg.Count) != 1 {
			t.Fatalf("rows without columns are all equal; got %d classes", len(rg.Count))
		}
	})
}

// TestGroupRowsKeys: equal vectors under different keys are different
// classes, and equal keys do not join different vectors.
func TestGroupRowsKeys(t *testing.T) {
	m := matrixtest.FewDistinct(18, 600, 4, 7, true)
	gen := rng.New(18)
	keys := make([]uint64, 600)
	for i := range keys {
		keys[i] = uint64(gen.Intn(3)) << 32
	}
	rg := matrix.GroupRows(600, 4, func(i int) (uint64, []float64) { return keys[i], m.RawRow(i) })
	checkRowGroups(t, m, keys, rg)
	if plain := m.DistinctRows(); len(rg.Count) <= len(plain.Count) {
		t.Fatalf("%d keyed classes over %d distinct rows", len(rg.Count), len(plain.Count))
	}
}

// TestDrop: dropping rows is grouping what remains, whichever rows go —
// none, a class's first row, every row of a class, all but one.
func TestDrop(t *testing.T) {
	m := matrixtest.FewDistinct(19, 300, 4, 9, true)
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i % 2)
	}
	rg := matrix.GroupRows(300, 4, func(i int) (uint64, []float64) { return keys[i], m.RawRow(i) })
	whole := func(g int32) []int {
		var rows []int
		for i, c := range rg.Group {
			if c == g {
				rows = append(rows, i)
			}
		}
		return rows
	}
	allButOne := make([]int, 299)
	for i := range allButOne {
		allButOne[i] = i + 1
	}
	for _, drop := range [][]int{nil, {0}, {0, 1, 2, 150, 299}, whole(0), whole(3), allButOne} {
		var rest [][]float64
		var restKeys []uint64
		for i, next := 0, 0; i < 300; i++ {
			if next < len(drop) && drop[next] == i {
				next++
				continue
			}
			rest = append(rest, m.RawRow(i))
			restKeys = append(restKeys, keys[i])
		}
		checkRowGroups(t, matrix.FromRows(rest), restKeys, rg.Drop(drop))
	}
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
		checkRowGroups(t, m, nil, m.DistinctRows())
	})
}

func benchmarkDistinctRows(b *testing.B, n, d, distinct int) {
	m := matrixtest.FewDistinct(1, n, d, distinct, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rg := m.DistinctRows(); len(rg.Count) > distinct {
			b.Fatal(len(rg.Count))
		}
	}
}

// The training shape (60 000 sessions, 150 distinct 28-feature vectors)
// and the shape with nothing to share.
func BenchmarkDistinctRowsFew(b *testing.B)         { benchmarkDistinctRows(b, 60000, 28, 150) }
func BenchmarkDistinctRowsAllDistinct(b *testing.B) { benchmarkDistinctRows(b, 20000, 28, 20000) }
