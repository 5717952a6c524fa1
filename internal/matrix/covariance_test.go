package matrix_test

import (
	"fmt"
	"testing"

	"polygraph/internal/matrix/matrixtest"
)

// TestCovarianceMatchesCellAtATime pins the association order of the
// covariance product, which the PCA components — and so the model's
// bits — depend on: each cell adds up its input rows in ascending order,
// skipping the rows whose first factor is zero, whatever order
// Covariance visits the cells in.
func TestCovarianceMatchesCellAtATime(t *testing.T) {
	m := matrixtest.FewDistinct(31, 700, 5, 30, false)
	n, d := m.Dims()
	means := m.ColMeans()
	cov := m.Covariance()
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				row := m.RawRow(i)
				if ca := row[a] - means[a]; ca != 0 {
					sum += ca * (row[b] - means[b])
				}
			}
			want := []float64{sum * (1 / float64(n-1))}
			matrixtest.RequireSameBits(t, fmt.Sprintf("cov[%d][%d]", a, b), []float64{cov.At(a, b)}, want)
			matrixtest.RequireSameBits(t, fmt.Sprintf("cov[%d][%d]", b, a), []float64{cov.At(b, a)}, want)
		}
	}
}
