package matrix

import (
	"fmt"
	"math"
	"math/bits"
)

// RowGroups is a set of rows seen through its classes of equal rows: a
// table with one row per class and the class of every row. It is what the
// training stages read instead of the rows themselves. A pure per-row
// function needs evaluating once per class, on the class's table row, and
// holds for every row i with Group[i] == g; a sum over the rows is the
// count-weighted sum over the table. The training set of coarse-grained
// fingerprints is what makes this pay: tens of thousands of sessions
// share a few hundred distinct vectors.
type RowGroups struct {
	// Group[i] is the class of row i. Classes are numbered by first
	// appearance, so Group[0] == 0, a new class is always the next unused
	// number, and of two classes the lower holds the lower first row.
	Group []int32
	// Count[g] is the number of rows in class g; every class has one.
	Count []int
	// Key[g] is the key the rows of class g share (see GroupRows).
	Key []uint64
	// Rows is the distinct-row table: row g is the vector of class g.
	Rows *Dense
}

// GroupRows groups n rows of width cols, row(i) returning row i's key and
// vector. Two rows share a class iff their keys are equal and every
// element pair has the same math.Float64bits, so +0 and −0, and NaNs with
// different payloads, stay apart — whatever a kernel computes from the
// bits of one row it computes from the other. The table copies each
// class's vector from its first row.
func GroupRows(n, cols int, row func(i int) (key uint64, vec []float64)) RowGroups {
	return group(n, cols, row, nil)
}

// DistinctRows groups the rows of m by bit pattern (GroupRows with every
// key zero). When no two rows are equal the table is m itself, so the
// grouping copies nothing where it finds nothing to share; the stages
// only read the table.
func (m *Dense) DistinctRows() RowGroups {
	return group(m.rows, m.cols, func(i int) (uint64, []float64) { return 0, m.data[i*m.cols : (i+1)*m.cols] }, m)
}

// group is GroupRows, with rows itself for the table when every row is
// distinct and rows is not nil.
func group(n, cols int, row func(i int) (key uint64, vec []float64), rows *Dense) RowGroups {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("matrix: GroupRows on %d rows", n))
	}
	rg := RowGroups{Group: make([]int32, n)}
	// Open-addressing table of class numbers + 1 (0 marks a free slot),
	// kept at most half full, so its size follows the number of distinct
	// rows and not the number of rows.
	table := make([]int32, 64)
	mask := uint64(len(table) - 1)
	var (
		hashes []uint64 // per class: a cheap first compare, and what regrowth re-inserts
		firsts []int    // per class: its first row, what the table row is copied from
	)
	for i := 0; i < n; i++ {
		key, vec := row(i)
		h := hashRow(key, vec[:cols])
		slot := h & mask
		for ; table[slot] != 0; slot = (slot + 1) & mask {
			g := table[slot] - 1
			if hashes[g] != h || rg.Key[g] != key {
				continue
			}
			if _, first := row(firsts[g]); SameBits(vec[:cols], first) {
				break
			}
		}
		if id := table[slot]; id != 0 {
			rg.Group[i] = id - 1
			rg.Count[id-1]++
			continue
		}
		rg.Group[i] = int32(len(rg.Count))
		rg.Count = append(rg.Count, 1)
		rg.Key = append(rg.Key, key)
		hashes = append(hashes, h)
		firsts = append(firsts, i)
		table[slot] = int32(len(rg.Count))
		if 2*len(rg.Count) > len(table) {
			table = make([]int32, 2*len(table))
			mask = uint64(len(table) - 1)
			for g, gh := range hashes {
				slot := gh & mask
				for table[slot] != 0 {
					slot = (slot + 1) & mask
				}
				table[slot] = int32(g + 1)
			}
		}
	}
	if rows != nil && len(firsts) == n {
		rg.Rows = rows
		return rg
	}
	rg.Rows = NewDense(len(firsts), cols)
	for g, i := range firsts {
		_, vec := row(i)
		copy(rg.Rows.RawRow(g), vec)
	}
	return rg
}

// Dims returns the number of rows (not classes) and the row width.
func (rg RowGroups) Dims() (rows, cols int) { return len(rg.Group), rg.Rows.cols }

// Drop returns the grouping of the rows that remain once the listed ones,
// ascending and in range, are removed. The remaining rows keep their
// order and are numbered from 0; their classes are renumbered by first
// appearance among them, and a class left without rows leaves the table.
func (rg RowGroups) Drop(rows []int) RowGroups {
	if len(rows) == 0 {
		return rg
	}
	_, cols := rg.Dims()
	out := RowGroups{Group: make([]int32, 0, len(rg.Group)-len(rows))}
	renumber := make([]int32, len(rg.Count)) // old class → new class + 1
	var data []float64
	for i, g := range rg.Group {
		if len(rows) > 0 && rows[0] == i {
			rows = rows[1:]
			continue
		}
		if renumber[g] == 0 {
			out.Count = append(out.Count, 0)
			out.Key = append(out.Key, rg.Key[g])
			data = append(data, rg.Rows.RawRow(int(g))...)
			renumber[g] = int32(len(out.Count))
		}
		ng := renumber[g] - 1
		out.Count[ng]++
		out.Group = append(out.Group, ng)
	}
	out.Rows = &Dense{rows: len(out.Count), cols: cols, data: data}
	return out
}

// ColMeans returns the per-column mean over the rows: each table row
// weighted by its count, summed in class order. No rows yield all zeros.
func (rg RowGroups) ColMeans() []float64 {
	n, cols := rg.Dims()
	means := make([]float64, cols)
	if n == 0 {
		return means
	}
	for g, c := range rg.Count {
		w := float64(c)
		for j, v := range rg.Rows.RawRow(g) {
			means[j] += w * v
		}
	}
	inv := 1 / float64(n)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// ColStds returns the per-column population standard deviation over the
// rows, count-weighted like ColMeans.
func (rg RowGroups) ColStds() []float64 {
	n, cols := rg.Dims()
	stds := make([]float64, cols)
	if n == 0 {
		return stds
	}
	means := rg.ColMeans()
	for g, c := range rg.Count {
		w := float64(c)
		for j, v := range rg.Rows.RawRow(g) {
			d := v - means[j]
			stds[j] += w * d * d
		}
	}
	inv := 1 / float64(n)
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] * inv)
	}
	return stds
}

// Covariance returns the cols×cols sample covariance matrix of the rows
// (dividing by n-1). Fewer than two rows yield zeros. Each cell adds up
// the classes in order, term count·(x_a−μ_a)·(x_b−μ_b), skipping the
// classes whose first factor is zero. With every count 1 — a table of
// all-distinct rows — that is the plain row-order sum, bit for bit.
func (rg RowGroups) Covariance() *Dense {
	n, cols := rg.Dims()
	cov := NewDense(cols, cols)
	if n < 2 {
		return cov
	}
	means := rg.ColMeans()
	centered := make([]float64, cols)
	for g, c := range rg.Count {
		w := float64(c)
		for b, v := range rg.Rows.RawRow(g) {
			centered[b] = v - means[b]
		}
		for a, ca := range centered {
			if ca == 0 {
				continue
			}
			wa := w * ca
			crow := cov.data[a*cols : (a+1)*cols]
			for b := a; b < cols; b++ {
				crow[b] += wa * centered[b]
			}
		}
	}
	inv := 1 / float64(n-1)
	for a := 0; a < cols; a++ {
		for b := a; b < cols; b++ {
			v := cov.data[a*cols+b] * inv
			cov.data[a*cols+b] = v
			cov.data[b*cols+a] = v
		}
	}
	return cov
}

// hashRow mixes a key and the bit patterns of a row into 64 bits. Four
// independent multiply chains keep the CPU's multiplier busy (one chain
// is latency bound, and this loop is most of GroupRows' cost); the
// closing rotate-and-fold carries high bits down, because integer-valued
// floats keep all their information in the top of the word and the table
// indexes with the bottom.
func hashRow(key uint64, row []float64) uint64 {
	const k = 0x9e3779b97f4a7c15
	h0, h1, h2, h3 := uint64(len(row))^key, uint64(k), uint64(k>>1), uint64(k>>2)
	for ; len(row) >= 4; row = row[4:] {
		h0 = (h0 ^ math.Float64bits(row[0])) * k
		h1 = (h1 ^ math.Float64bits(row[1])) * k
		h2 = (h2 ^ math.Float64bits(row[2])) * k
		h3 = (h3 ^ math.Float64bits(row[3])) * k
	}
	for _, v := range row {
		h0 = (h0 ^ math.Float64bits(v)) * k
	}
	h := (h0 ^ bits.RotateLeft64(h1, 17) ^ bits.RotateLeft64(h2, 31) ^ bits.RotateLeft64(h3, 47)) * k
	return h ^ h>>32
}

// SameBits reports whether a and b, of equal length, agree element for
// element in math.Float64bits — stricter than ==, which equates ±0 and
// no NaN with itself.
func SameBits(a, b []float64) bool {
	b = b[:len(a)]
	for j, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}
