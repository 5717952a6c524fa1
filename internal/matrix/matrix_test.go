package matrix

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"polygraph/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// T and Mul have no production caller; the SymEigen tests check VᵀV = I
// with them.

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns m · b. It panics on shape mismatch.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			for j := 0; j < b.cols; j++ {
				out.data[i*b.cols+j] += m.data[i*m.cols+k] * b.data[k*b.cols+j]
			}
		}
	}
	return out
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("dims = %dx%d", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative dims")
		}
	}()
	NewDense(-1, 2)
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsCopies(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	m := FromRows(src)
	src[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromRows did not copy input")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if r, c := m.Dims(); r != 0 || c != 0 {
		t.Fatalf("empty FromRows dims = %dx%d", r, c)
	}
}

func TestAtSetBounds(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(1, 1, 5)
	if m.At(1, 1) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range At")
		}
	}()
	m.At(2, 0)
}

func TestRowColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	row[0] = 99
	if m.At(1, 0) != 4 {
		t.Fatal("Row returned aliased storage")
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Fatalf("Col = %v", col)
	}
	col[0] = 99
	if m.At(0, 2) != 3 {
		t.Fatal("Col returned aliased storage")
	}
}

func TestRawRowAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.RawRow(0)[1] = 42
	if m.At(0, 1) != 42 {
		t.Fatal("RawRow should alias storage")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("transpose dims %dx%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("mul mismatch at (%d,%d): %v", i, j, got.At(i, j))
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestMulAssociatesWithIdentity(t *testing.T) {
	p := rng.New(5)
	f := func(n uint8) bool {
		size := int(n%6) + 1
		m := NewDense(size, size)
		id := NewDense(size, size)
		for i := 0; i < size; i++ {
			id.Set(i, i, 1)
			for j := 0; j < size; j++ {
				m.Set(i, j, p.NormFloat64())
			}
		}
		prod := m.Mul(id)
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if prod.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColMeansStds(t *testing.T) {
	m := FromRows([][]float64{{1, 10}, {3, 10}, {5, 10}})
	rows := m.DistinctRows()
	means := rows.ColMeans()
	if means[0] != 3 || means[1] != 10 {
		t.Fatalf("means = %v", means)
	}
	stds := rows.ColStds()
	if !almostEqual(stds[0], math.Sqrt(8.0/3.0), 1e-12) {
		t.Fatalf("std[0] = %v", stds[0])
	}
	if stds[1] != 0 {
		t.Fatalf("constant column std = %v", stds[1])
	}
}

func TestColMeansEmpty(t *testing.T) {
	means := NewDense(0, 3).DistinctRows().ColMeans()
	if len(means) != 3 || means[0] != 0 {
		t.Fatalf("empty means = %v", means)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Perfectly correlated columns: cov = var.
	cov := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}).DistinctRows().Covariance()
	if !almostEqual(cov.At(0, 0), 1, 1e-12) {
		t.Fatalf("var x = %v", cov.At(0, 0))
	}
	if !almostEqual(cov.At(1, 1), 4, 1e-12) {
		t.Fatalf("var y = %v", cov.At(1, 1))
	}
	if !almostEqual(cov.At(0, 1), 2, 1e-12) || !almostEqual(cov.At(1, 0), 2, 1e-12) {
		t.Fatalf("cov xy = %v", cov.At(0, 1))
	}
}

func TestCovarianceSymmetricProperty(t *testing.T) {
	p := rng.New(11)
	f := func(rows, cols uint8) bool {
		r := int(rows%20) + 2
		c := int(cols%8) + 1
		m := NewDense(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				m.Set(i, j, p.NormFloat64()*10)
			}
		}
		cov := m.DistinctRows().Covariance()
		if !cov.isSymmetric(1e-9) {
			return false
		}
		// Diagonal entries are variances: non-negative.
		for j := 0; j < c; j++ {
			if cov.At(j, j) < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 1}})
	e, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Values[0], 3, 1e-10) || !almostEqual(e.Values[1], 1, 1e-10) {
		t.Fatalf("values = %v", e.Values)
	}
}

func TestSymEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := FromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Values[0], 3, 1e-10) || !almostEqual(e.Values[1], 1, 1e-10) {
		t.Fatalf("values = %v", e.Values)
	}
	// Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
	v0 := []float64{e.Vectors.At(0, 0), e.Vectors.At(1, 0)}
	if !almostEqual(math.Abs(v0[0]), 1/math.Sqrt2, 1e-8) || !almostEqual(math.Abs(v0[1]), 1/math.Sqrt2, 1e-8) {
		t.Fatalf("vector = %v", v0)
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, err := SymEigen(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square")
	}
}

func TestSymEigenNonSymmetric(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := SymEigen(m); err == nil {
		t.Fatal("expected error for non-symmetric")
	}
}

func TestSymEigenEmpty(t *testing.T) {
	e, err := SymEigen(NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Values) != 0 {
		t.Fatalf("values = %v", e.Values)
	}
}

// TestSymEigenReconstruction checks A·v = λ·v and orthonormality of the
// eigenvector basis for random symmetric matrices.
func TestSymEigenReconstruction(t *testing.T) {
	p := rng.New(21)
	for trial := 0; trial < 25; trial++ {
		n := p.IntRange(1, 12)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := p.NormFloat64() * 5
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		e, err := SymEigen(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Sorted descending.
		for k := 1; k < n; k++ {
			if e.Values[k] > e.Values[k-1]+1e-9 {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, e.Values)
			}
		}
		av := a.Mul(e.Vectors) // column k is A·v_k
		for k := 0; k < n; k++ {
			vec := e.Vectors.Col(k)
			for i := 0; i < n; i++ {
				if !almostEqual(av.At(i, k), e.Values[k]*vec[i], 1e-6*(1+math.Abs(e.Values[k]))) {
					t.Fatalf("trial %d: A·v != λ·v at eig %d row %d: %v vs %v",
						trial, k, i, av.At(i, k), e.Values[k]*vec[i])
				}
			}
		}
		// Orthonormality: Vᵀ·V = I.
		vtv := e.Vectors.T().Mul(e.Vectors)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEqual(vtv.At(i, j), want, 1e-8) {
					t.Fatalf("trial %d: VᵀV not identity at (%d,%d): %v", trial, i, j, vtv.At(i, j))
				}
			}
		}
		// Trace preservation: sum λ = trace A.
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += e.Values[i]
		}
		if !almostEqual(trace, sum, 1e-7*(1+math.Abs(trace))) {
			t.Fatalf("trial %d: trace %v != eigsum %v", trial, trace, sum)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliased storage")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !FromRows([][]float64{{1, 2}, {2, 1}}).isSymmetric(0) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	if FromRows([][]float64{{1, 2}, {2.1, 1}}).isSymmetric(0.01) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if NewDense(2, 3).isSymmetric(1) {
		t.Fatal("non-square matrix reported symmetric")
	}
}

// BenchmarkCovariance times the covariance of a 4096-row all-distinct
// table, the worst case of the count-weighted sum.
func BenchmarkCovariance(b *testing.B) {
	p := rng.New(1)
	m := NewDense(4096, 28)
	r, c := m.Dims()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, p.NormFloat64())
		}
	}
	rows := m.DistinctRows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rows.Covariance()
	}
}

func BenchmarkSymEigen28(b *testing.B) {
	p := rng.New(2)
	n := 28
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := p.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}
