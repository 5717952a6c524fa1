// Package matrix implements the small dense linear-algebra kernel the
// Browser Polygraph training pipeline needs: row-major float64 matrices,
// products, column statistics, covariance, and a cyclic Jacobi
// eigendecomposition for symmetric matrices (used by PCA).
//
// The package favors clarity and predictable allocation over absolute
// throughput; training in this system runs offline (paper §6.5) and the
// matrices involved are modest (≲ 205k × 28).
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. The zero value is an empty matrix;
// construct with NewDense or FromRows.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix. It panics if r or c is negative,
// or if both are zero while the other is not (a degenerate shape).
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equally long rows. The data is
// copied. It panics on ragged input.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged row %d: len %d want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Dims returns the matrix shape.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i backed by the matrix storage. Mutating the result
// mutates the matrix; callers that need isolation must use Row.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: col %d out of %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// MulVec returns m · v as a new vector. It panics on shape mismatch.
func (m *Dense) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("matrix: mulvec shape mismatch %dx%d · %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// ColMeans returns the per-column mean. An empty matrix yields all zeros.
func (m *Dense) ColMeans() []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(m.rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// ColStds returns the per-column population standard deviation.
func (m *Dense) ColStds() []float64 {
	stds := make([]float64, m.cols)
	if m.rows == 0 {
		return stds
	}
	means := m.ColMeans()
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	inv := 1 / float64(m.rows)
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] * inv)
	}
	return stds
}

// Covariance returns the c×c sample covariance matrix of the rows
// (dividing by n-1). A matrix with fewer than two rows yields zeros.
func (m *Dense) Covariance() *Dense {
	cov := NewDense(m.cols, m.cols)
	if m.rows < 2 {
		return cov
	}
	means := m.ColMeans()
	// One pass over the rows: each cov[a][b] cell accumulates the input
	// rows in ascending order.
	centered := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for b, v := range m.data[i*m.cols : (i+1)*m.cols] {
			centered[b] = v - means[b]
		}
		for a, ca := range centered {
			if ca == 0 {
				continue
			}
			crow := cov.data[a*m.cols : (a+1)*m.cols]
			for b := a; b < m.cols; b++ {
				crow[b] += ca * centered[b]
			}
		}
	}
	inv := 1 / float64(m.rows-1)
	for a := 0; a < m.cols; a++ {
		for b := a; b < m.cols; b++ {
			v := cov.data[a*m.cols+b] * inv
			cov.data[a*m.cols+b] = v
			cov.data[b*m.cols+a] = v
		}
	}
	return cov
}

// IsSymmetric reports whether the matrix is square and symmetric within
// tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Eigen holds the result of a symmetric eigendecomposition. Values are
// sorted in descending order; Vectors column j is the unit eigenvector for
// Values[j].
type Eigen struct {
	Values  []float64
	Vectors *Dense
}

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns an error if the input is not square or
// not symmetric (tolerance 1e-9 relative to the largest entry), or if the
// iteration fails to converge.
func SymEigen(a *Dense) (*Eigen, error) {
	n := a.rows
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: SymEigen on non-square %dx%d", a.rows, a.cols)
	}
	maxAbs := 0.0
	for _, v := range a.data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	if !a.IsSymmetric(1e-9*maxAbs + 1e-300) {
		return nil, fmt.Errorf("matrix: SymEigen on non-symmetric matrix")
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: NewDense(0, 0)}, nil
	}

	w := a.Clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.data[i*n+i] = 1
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.data[i*n+j] * w.data[i*n+j]
			}
		}
		if off <= 1e-22*(maxAbs*maxAbs+1e-300)*float64(n*n) {
			return sortedEigen(w, v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if apq == 0 {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s, n)
			}
		}
	}
	return nil, fmt.Errorf("matrix: Jacobi did not converge in %d sweeps", maxSweeps)
}

// rotate applies the Jacobi rotation J(p,q,θ) to w (two-sided) and
// accumulates it into v (one-sided).
func rotate(w, v *Dense, p, q int, c, s float64, n int) {
	for k := 0; k < n; k++ {
		wkp := w.data[k*n+p]
		wkq := w.data[k*n+q]
		w.data[k*n+p] = c*wkp - s*wkq
		w.data[k*n+q] = s*wkp + c*wkq
	}
	for k := 0; k < n; k++ {
		wpk := w.data[p*n+k]
		wqk := w.data[q*n+k]
		w.data[p*n+k] = c*wpk - s*wqk
		w.data[q*n+k] = s*wpk + c*wqk
	}
	for k := 0; k < n; k++ {
		vkp := v.data[k*n+p]
		vkq := v.data[k*n+q]
		v.data[k*n+p] = c*vkp - s*vkq
		v.data[k*n+q] = s*vkp + c*vkq
	}
}

// sortedEigen extracts diagonal eigenvalues and reorders eigenvector
// columns in descending eigenvalue order.
func sortedEigen(w, v *Dense) *Eigen {
	n := w.rows
	idx := make([]int, n)
	vals := make([]float64, n)
	for i := range idx {
		idx[i] = i
		vals[i] = w.data[i*n+i]
	}
	// Insertion sort by descending eigenvalue: n is small.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[idx[j]] > vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := make([]float64, n)
	vecs := NewDense(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			vecs.data[r*n+newCol] = v.data[r*n+oldCol]
		}
	}
	return &Eigen{Values: sortedVals, Vectors: vecs}
}
