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
	"context"
	"fmt"
	"math"

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
// Rows of m are observations.
func Fit(m *matrix.Dense, k int) (*PCA, error) {
	return FitContext(context.Background(), m, k)
}

// FitContext is Fit under a context. The covariance product and the
// Jacobi eigendecomposition are indivisible dense kernels, so the
// context is checked between them rather than inside; our matrices are
// at most a few hundred columns wide, which bounds each kernel to
// milliseconds.
func FitContext(ctx context.Context, m *matrix.Dense, k int) (*PCA, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, d := m.Dims()
	if r < 2 {
		return nil, fmt.Errorf("pca: need at least 2 rows, have %d", r)
	}
	if k < 1 || k > d {
		return nil, fmt.Errorf("pca: k=%d out of range [1,%d]", k, d)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cov := m.Covariance()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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
		Mean:       m.ColMeans(),
		Components: comps,
		Variances:  vars,
		K:          k,
	}, nil
}

// ExplainedVarianceRatio returns each fitted component's share of total
// variance (length = original dimension d).
func (p *PCA) ExplainedVarianceRatio() []float64 {
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

// CumulativeVariance returns the running sum of ExplainedVarianceRatio —
// exactly the curve of the paper's Figure 2.
func (p *PCA) CumulativeVariance() []float64 {
	ratios := p.ExplainedVarianceRatio()
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
	return p.TransformContext(context.Background(), m)
}

// TransformContext is Transform under a context: a done context refuses
// to start. A projection is a pure function of the row's bits, so each
// class of bitwise-equal rows is projected once, on its first row, and
// the result copied to the rest.
func (p *PCA) TransformContext(ctx context.Context, m *matrix.Dense) (*matrix.Dense, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	r, d := m.Dims()
	if d != len(p.Mean) {
		return nil, fmt.Errorf("pca: transform on %d features, fitted on %d", d, len(p.Mean))
	}
	out := matrix.NewDense(r, p.K)
	rows := m.DistinctRows()
	buf := make([]float64, d)
	for _, i := range rows.First {
		for j, v := range m.RawRow(i) {
			buf[j] = v - p.Mean[j]
		}
		p.projectInto(buf, out.RawRow(i))
	}
	for i, g := range rows.Group {
		if first := rows.First[g]; first != i {
			copy(out.RawRow(i), out.RawRow(first))
		}
	}
	return out, nil
}

// TransformVec projects a single observation, returning a length-k vector.
func (p *PCA) TransformVec(v []float64) ([]float64, error) {
	out := make([]float64, p.K)
	if err := p.TransformVecInto(v, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformVecInto projects src into dst (length K) without allocating,
// for the online scoring path.
func (p *PCA) TransformVecInto(src, dst []float64) error {
	if len(src) != len(p.Mean) {
		return fmt.Errorf("pca: vector has %d features, fitted on %d", len(src), len(p.Mean))
	}
	if len(dst) != p.K {
		return fmt.Errorf("pca: destination has %d entries, want %d", len(dst), p.K)
	}
	// Centering is folded into the dot product to avoid a temp slice:
	// (x-μ)·w = x·w - μ·w. Precomputing μ·w would save work but keep a
	// cache on PCA; the vectors here are ≤ a few hundred wide.
	for c := 0; c < p.K; c++ {
		comp := p.Components.RawRow(c)
		s := 0.0
		for j, w := range comp {
			s += (src[j] - p.Mean[j]) * w
		}
		dst[c] = s
	}
	return nil
}

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

// InverseVec maps a k-dimensional projection back to the original feature
// space (lossy if k < d): x ≈ μ + Σ z_c · w_c.
func (p *PCA) InverseVec(z []float64) ([]float64, error) {
	if len(z) != p.K {
		return nil, fmt.Errorf("pca: inverse on %d entries, want %d", len(z), p.K)
	}
	out := append([]float64(nil), p.Mean...)
	for c := 0; c < p.K; c++ {
		comp := p.Components.RawRow(c)
		for j, w := range comp {
			out[j] += z[c] * w
		}
	}
	return out, nil
}

// ReconstructionError returns the mean squared reconstruction error of m
// under the kept components, a diagnostic for choosing K.
func (p *PCA) ReconstructionError(m *matrix.Dense) (float64, error) {
	proj, err := p.Transform(m)
	if err != nil {
		return 0, err
	}
	r, d := m.Dims()
	if r == 0 {
		return 0, nil
	}
	total := 0.0
	for i := 0; i < r; i++ {
		back, err := p.InverseVec(proj.RawRow(i))
		if err != nil {
			return 0, err
		}
		row := m.RawRow(i)
		for j := 0; j < d; j++ {
			diff := row[j] - back[j]
			total += diff * diff
		}
	}
	return total / float64(r), nil
}

// Orthonormality returns the maximum deviation of the kept components from
// an orthonormal system; exported for model-validation checks.
func (p *PCA) Orthonormality() float64 {
	worst := 0.0
	for a := 0; a < p.K; a++ {
		ra := p.Components.RawRow(a)
		for b := a; b < p.K; b++ {
			rb := p.Components.RawRow(b)
			dot := 0.0
			for j := range ra {
				dot += ra[j] * rb[j]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if dev := math.Abs(dot - want); dev > worst {
				worst = dev
			}
		}
	}
	return worst
}
