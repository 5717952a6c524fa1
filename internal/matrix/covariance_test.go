package matrix_test

import (
	"fmt"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/matrix/matrixtest"
)

// TestCovarianceMatchesCellAtATime pins the association order of the
// count-weighted moments, which the scaler and the PCA components — and
// so the model's bits — depend on: each mean adds count·x over the
// classes in order; each covariance cell adds count·(x_a−μ_a)·(x_b−μ_b)
// over the classes in order, skipping those whose first factor is zero,
// whatever order Covariance visits the cells in. The classes are found
// here the long way, by comparing every row with every earlier class.
func TestCovarianceMatchesCellAtATime(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *matrix.Dense
	}{
		{"few-distinct", matrixtest.FewDistinct(31, 700, 5, 30, false)},
		{"all-distinct", matrixtest.FewDistinct(32, 300, 5, 300, false)},
	} {
		n, d := tc.m.Dims()
		var firsts, counts []int
		for i := 0; i < n; i++ {
			g := 0
			for g < len(firsts) && !matrix.SameBits(tc.m.RawRow(i), tc.m.RawRow(firsts[g])) {
				g++
			}
			if g == len(firsts) {
				firsts, counts = append(firsts, i), append(counts, 0)
			}
			counts[g]++
		}
		means := make([]float64, d)
		for g, first := range firsts {
			for j, v := range tc.m.RawRow(first) {
				means[j] += float64(counts[g]) * v
			}
		}
		for j := range means {
			means[j] *= 1 / float64(n)
		}
		rows := tc.m.DistinctRows()
		matrixtest.RequireSameBits(t, tc.name+": means", rows.ColMeans(), means)
		cov := rows.Covariance()
		for a := 0; a < d; a++ {
			for b := a; b < d; b++ {
				sum := 0.0
				for g, first := range firsts {
					row := tc.m.RawRow(first)
					if ca := row[a] - means[a]; ca != 0 {
						sum += float64(counts[g]) * ca * (row[b] - means[b])
					}
				}
				want := []float64{sum * (1 / float64(n-1))}
				matrixtest.RequireSameBits(t, fmt.Sprintf("%s: cov[%d][%d]", tc.name, a, b), []float64{cov.At(a, b)}, want)
				matrixtest.RequireSameBits(t, fmt.Sprintf("%s: cov[%d][%d]", tc.name, b, a), []float64{cov.At(b, a)}, want)
			}
		}
	}
}
