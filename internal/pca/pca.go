// Package pca implements principal component analysis for the Browser
// Polygraph feature-selection stage (paper §6.4.2): the 28 scaled features
// are projected onto the leading principal components, with the component
// count chosen from the cumulative explained-variance curve (Figure 2; the
// paper keeps 7 components covering >98.5% of variance).
//
// The implementation diagonalizes the sample covariance matrix with the
// Jacobi method from internal/matrix; our matrices are small enough
// (≤ a few hundred columns) that this is simpler and more robust than an
// iterative SVD.
package pca

import (
	"fmt"

	"polygraph/internal/matrix"
)

// PCA is a fitted principal component analysis. Construct with Fit.
type PCA struct {
	// Mean is the per-feature mean removed before projection.
	Mean []float64
	// Components is a k×d matrix whose rows are the leading principal
	// axes (unit vectors), sorted by decreasing explained variance.
	Components *matrix.Dense
	// Variances holds the eigenvalues (explained variance) for every
	// component of the fitted space, not only the k kept ones, so the
	// cumulative-variance curve of Figure 2 can always be rendered.
	Variances []float64
	// K is the number of components kept for projection.
	K int
}

// Fit computes a PCA of m and keeps k components. k must be in [1, d].
// Rows of m are observations; they are grouped (see FitGroups).
func Fit(m *matrix.Dense, k int) (*PCA, error) {
	return FitGroups(m.DistinctRows(), k)
}

// FitGroups computes a PCA of the grouped rows: the mean and covariance
// are count-weighted sums over the distinct-row table.
func FitGroups(rows matrix.RowGroups, k int) (*PCA, error) {
	r, d := rows.Dims()
	if r < 2 {
		return nil, fmt.Errorf("pca: need at least 2 rows, have %d", r)
	}
	if k < 1 || k > d {
		return nil, fmt.Errorf("pca: k=%d out of range [1,%d]", k, d)
	}
	cov := rows.Covariance()
	eig, err := matrix.SymEigen(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}
	comps := matrix.NewDense(k, d)
	for c := 0; c < k; c++ {
		for row := 0; row < d; row++ {
			comps.Set(c, row, eig.Vectors.At(row, c))
		}
	}
	vars := make([]float64, d)
	for i, v := range eig.Values {
		if v < 0 {
			// Tiny negative eigenvalues are numerical noise on
			// rank-deficient covariance matrices.
			v = 0
		}
		vars[i] = v
	}
	return &PCA{
		Mean:       rows.ColMeans(),
		Components: comps,
		Variances:  vars,
		K:          k,
	}, nil
}

// explainedVarianceRatio returns each fitted component's share of total
// variance (length = original dimension d).
func (p *PCA) explainedVarianceRatio() []float64 {
	total := 0.0
	for _, v := range p.Variances {
		total += v
	}
	out := make([]float64, len(p.Variances))
	if total == 0 {
		return out
	}
	for i, v := range p.Variances {
		out[i] = v / total
	}
	return out
}

// CumulativeVariance returns the running sum of explainedVarianceRatio —
// exactly the curve of the paper's Figure 2.
func (p *PCA) CumulativeVariance() []float64 {
	ratios := p.explainedVarianceRatio()
	cum := 0.0
	out := make([]float64, len(ratios))
	for i, r := range ratios {
		cum += r
		out[i] = cum
	}
	return out
}

// ComponentsForVariance returns the smallest number of components whose
// cumulative explained variance reaches target (0 < target ≤ 1). This is
// the automated version of the paper's "seven components capture over
// 98.5%" reading of Figure 2.
func (p *PCA) ComponentsForVariance(target float64) int {
	if target <= 0 {
		return 1
	}
	cum := p.CumulativeVariance()
	for i, c := range cum {
		if c >= target-1e-12 {
			return i + 1
		}
	}
	return len(cum)
}

// Transform projects every row of m onto the kept components, returning an
// r×k matrix.
func (p *PCA) Transform(m *matrix.Dense) (*matrix.Dense, error) {
	r, d := m.Dims()
	if d != len(p.Mean) {
		return nil, fmt.Errorf("pca: transform on %d features, fitted on %d", d, len(p.Mean))
	}
	out := matrix.NewDense(r, p.K)
	buf := make([]float64, d)
	for i := 0; i < r; i++ {
		for j, v := range m.RawRow(i) {
			buf[j] = v - p.Mean[j]
		}
		p.projectInto(buf, out.RawRow(i))
	}
	return out, nil
}

// TransformVec projects a single observation, returning a length-k vector.
func (p *PCA) TransformVec(v []float64) ([]float64, error) {
	if len(v) != len(p.Mean) {
		return nil, fmt.Errorf("pca: vector has %d features, fitted on %d", len(v), len(p.Mean))
	}
	centered := make([]float64, len(v))
	for j, x := range v {
		centered[j] = x - p.Mean[j]
	}
	out := make([]float64, p.K)
	p.projectInto(centered, out)
	return out, nil
}

// projectInto writes the dot product of centered with each kept component
// to dst, accumulating in ascending feature order.
func (p *PCA) projectInto(centered, dst []float64) {
	for c := 0; c < p.K; c++ {
		comp := p.Components.RawRow(c)
		s := 0.0
		for j, w := range comp {
			s += centered[j] * w
		}
		dst[c] = s
	}
}
