package pca

import (
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/matrix/matrixtest"
	"polygraph/internal/rng"
)

// corrData builds a dataset where column 1 = 2*column 0 + noise and
// column 2 is independent small noise, so one strong principal component
// dominates.
func corrData(n int, seed uint64) *matrix.Dense {
	p := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		base := p.NormFloat64() * 10
		rows[i] = []float64{
			base,
			2*base + p.NormFloat64()*0.1,
			p.NormFloat64() * 0.1,
		}
	}
	return matrix.FromRows(rows)
}

func TestFitErrors(t *testing.T) {
	m := corrData(10, 1)
	if _, err := Fit(matrix.NewDense(1, 3), 1); err == nil {
		t.Fatal("expected error for single row")
	}
	if _, err := Fit(m, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Fit(m, 4); err == nil {
		t.Fatal("expected error for k>d")
	}
}

func TestExplainedVarianceDominantComponent(t *testing.T) {
	m := corrData(2000, 2)
	p, err := Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratios := p.explainedVarianceRatio()
	if ratios[0] < 0.99 {
		t.Fatalf("dominant component explains %v, want >0.99", ratios[0])
	}
	sum := 0.0
	for _, r := range ratios {
		if r < 0 {
			t.Fatalf("negative variance ratio %v", r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ratios sum to %v", sum)
	}
}

func TestCumulativeVarianceMonotone(t *testing.T) {
	m := corrData(500, 3)
	p, err := Fit(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	cum := p.CumulativeVariance()
	prev := 0.0
	for i, c := range cum {
		if c < prev-1e-12 {
			t.Fatalf("cumulative variance decreased at %d", i)
		}
		prev = c
	}
	if math.Abs(cum[len(cum)-1]-1) > 1e-9 {
		t.Fatalf("final cumulative variance = %v", cum[len(cum)-1])
	}
}

func TestComponentsForVariance(t *testing.T) {
	m := corrData(1000, 4)
	p, err := Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ComponentsForVariance(0.5); got != 1 {
		t.Fatalf("50%% needs %d components, want 1", got)
	}
	if got := p.ComponentsForVariance(1.0); got > 3 {
		t.Fatalf("100%% needs %d components", got)
	}
	if got := p.ComponentsForVariance(0); got != 1 {
		t.Fatalf("target 0 => %d", got)
	}
}

func TestTransformShape(t *testing.T) {
	m := corrData(100, 5)
	p, err := Fit(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := p.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	r, c := proj.Dims()
	if r != 100 || c != 2 {
		t.Fatalf("projection dims %dx%d", r, c)
	}
	if _, err := p.Transform(matrix.NewDense(5, 4)); err == nil {
		t.Fatal("expected dimension error")
	}
}

// TestTransformMatchesRowAtATime: Transform must agree bit for bit with
// centering and projecting every row on its own, whatever the
// repetition, and with TransformVec up to rounding.
func TestTransformMatchesRowAtATime(t *testing.T) {
	inputs := []struct {
		name           string
		n, d, distinct int
	}{
		{"few-distinct", 900, 6, 60},
		{"sign-of-zero-and-nan-only", 200, 3, 4},
		{"all-distinct", 3000, 6, 3000},
	}
	for _, in := range inputs {
		// Fit on the clean twin: a NaN would poison the covariance.
		p, err := Fit(matrixtest.FewDistinct(9, in.n, in.d, in.distinct, false), 3)
		if err != nil {
			t.Fatal(err)
		}
		m := matrixtest.FewDistinct(9, in.n, in.d, in.distinct, true)
		want := make([]float64, 0, in.n*p.K)
		for i := 0; i < in.n; i++ {
			row := m.RawRow(i)
			centered := make([]float64, in.d)
			for j, v := range row {
				centered[j] = v - p.Mean[j]
			}
			for c := 0; c < p.K; c++ {
				s := 0.0
				for j, w := range p.Components.RawRow(c) {
					s += centered[j] * w
				}
				want = append(want, s)
			}
			vec, err := p.TransformVec(row)
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range vec {
				if ref := want[i*p.K+c]; math.Abs(v-ref) > 1e-9 && !math.IsNaN(ref) {
					t.Fatalf("%s: row %d comp %d: TransformVec %v vs %v", in.name, i, c, v, ref)
				}
			}
		}
		got, err := p.Transform(m)
		if err != nil {
			t.Fatal(err)
		}
		flat := make([]float64, 0, len(want))
		for i := 0; i < in.n; i++ {
			flat = append(flat, got.RawRow(i)...)
		}
		matrixtest.RequireSameBits(t, in.name+": projection", flat, want)
	}
}

func TestTransformVecErrors(t *testing.T) {
	m := corrData(10, 7)
	p, _ := Fit(m, 2)
	if _, err := p.TransformVec(make([]float64, 2)); err == nil {
		t.Fatal("expected error for wrong width")
	}
}

func TestProjectionPreservesVariance(t *testing.T) {
	// With k = d the projection is a rotation: total variance is
	// preserved.
	m := corrData(500, 8)
	p, err := Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := p.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	origVar, projVar := 0.0, 0.0
	for _, s := range m.DistinctRows().ColStds() {
		origVar += s * s
	}
	for _, s := range proj.DistinctRows().ColStds() {
		projVar += s * s
	}
	if math.Abs(origVar-projVar) > 1e-6*origVar {
		t.Fatalf("variance not preserved: %v vs %v", origVar, projVar)
	}
}

func TestInverseRoundtripFullRank(t *testing.T) {
	m := corrData(200, 9)
	p, err := Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		row := m.Row(i)
		z, err := p.TransformVec(row)
		if err != nil {
			t.Fatal(err)
		}
		// x = μ + Σ z_c · w_c when every component is kept.
		back := append([]float64(nil), p.Mean...)
		for c, zc := range z {
			for j, w := range p.Components.RawRow(c) {
				back[j] += zc * w
			}
		}
		for j := range row {
			if math.Abs(back[j]-row[j]) > 1e-8*(1+math.Abs(row[j])) {
				t.Fatalf("row %d feature %d: %v vs %v", i, j, back[j], row[j])
			}
		}
	}
}

func TestOrthonormality(t *testing.T) {
	m := corrData(500, 12)
	p, err := Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < p.K; a++ {
		for b := a; b < p.K; b++ {
			dot := 0.0
			for j, w := range p.Components.RawRow(a) {
				dot += w * p.Components.At(b, j)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if dev := math.Abs(dot - want); dev > 1e-8 {
				t.Fatalf("components %d·%d = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func BenchmarkFit28Features(b *testing.B) {
	p := rng.New(13)
	rows := make([][]float64, 4096)
	for i := range rows {
		row := make([]float64, 28)
		for j := range row {
			row[j] = p.NormFloat64()
		}
		rows[i] = row
	}
	m := matrix.FromRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, 7); err != nil {
			b.Fatal(err)
		}
	}
}
