package matrix

import (
	"fmt"
	"math"
	"math/bits"
)

// RowGroups partitions the rows of a matrix into classes of bitwise-equal
// rows. A pure per-row function needs evaluating once per class — on row
// First[g] — and its result holds for every row i with Group[i] == g. The
// training set of coarse-grained fingerprints is what makes this pay:
// tens of thousands of sessions share a few hundred distinct vectors.
type RowGroups struct {
	// Group[i] is the class of row i. Classes are numbered by first
	// appearance, so Group[0] == 0 and a new class is always the next
	// unused number.
	Group []int32
	// First[g] is the lowest row index in class g; strictly ascending.
	First []int
}

// DistinctRows groups the rows of m by bit pattern: two rows share a
// class iff every element pair has the same math.Float64bits, so +0 and
// −0, and NaNs with different payloads, stay apart — whatever a kernel
// computes from the bits of one row it computes from the other. A matrix
// of all-distinct rows yields as many classes as rows.
func (m *Dense) DistinctRows() RowGroups {
	if m.rows > math.MaxInt32 {
		panic(fmt.Sprintf("matrix: DistinctRows on %d rows", m.rows))
	}
	rg := RowGroups{Group: make([]int32, m.rows)}
	// Open-addressing table of class numbers + 1 (0 marks a free slot),
	// kept at most half full, so its size follows the number of distinct
	// rows and not the number of rows.
	table := make([]int32, 64)
	mask := uint64(len(table) - 1)
	var hashes []uint64 // per class: a cheap first compare, and what regrowth re-inserts
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		h := hashRow(row)
		slot := h & mask
		for ; table[slot] != 0; slot = (slot + 1) & mask {
			g := table[slot] - 1
			if first := rg.First[g]; hashes[g] == h && SameBits(row, m.data[first*m.cols:(first+1)*m.cols]) {
				break
			}
		}
		if id := table[slot]; id != 0 {
			rg.Group[i] = id - 1
			continue
		}
		rg.Group[i] = int32(len(rg.First))
		rg.First = append(rg.First, i)
		hashes = append(hashes, h)
		table[slot] = int32(len(rg.First))
		if 2*len(rg.First) > len(table) {
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
	return rg
}

// hashRow mixes the bit patterns of a row into 64 bits. Four independent
// multiply chains keep the CPU's multiplier busy (one chain is latency
// bound, and this loop is most of DistinctRows' cost); the closing
// rotate-and-fold carries high bits down, because integer-valued floats
// keep all their information in the top of the word and the table
// indexes with the bottom.
func hashRow(row []float64) uint64 {
	const k = 0x9e3779b97f4a7c15
	h0, h1, h2, h3 := uint64(len(row)), uint64(k), uint64(k>>1), uint64(k>>2)
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
