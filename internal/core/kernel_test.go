package core

import (
	"fmt"
	"math"
	"testing"

	"polygraph/internal/fingerprint"
	"polygraph/internal/kmeans"
	"polygraph/internal/matrix"
	"polygraph/internal/pca"
	"polygraph/internal/rng"
	"polygraph/internal/scaler"
)

// kernelModel hand-assembles a model of the given shape from gen: dim
// features, pcaK components (0 disables PCA), k centroids. One scaler
// column has a zero std and one is skipped, so both identities the plan
// folds into its tables are on the path.
func kernelModel(t *testing.T, gen *rng.PCG, dim, pcaK, k int) *Model {
	t.Helper()
	normals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = gen.NormFloat64()
		}
		return out
	}
	sc := &scaler.Standard{Means: normals(dim), Stds: make([]float64, dim)}
	for j := range sc.Stds {
		sc.Stds[j] = 0.5 + gen.Float64()
	}
	sc.Stds[dim/2] = 0
	skip := make([]bool, dim)
	skip[dim-1] = true
	if err := sc.SetSkip(skip); err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Features: fingerprint.Table8()[:dim],
		Scaler:   sc,
		KMeans:   &kmeans.Model{K: k},
	}
	cdim := dim
	if pcaK > 0 {
		comps := matrix.NewDense(pcaK, dim)
		for c := 0; c < pcaK; c++ {
			copy(comps.RawRow(c), normals(dim))
		}
		m.PCA = &pca.PCA{Mean: normals(dim), Components: comps, K: pcaK}
		cdim = pcaK
	}
	m.KMeans.Dim = cdim
	m.KMeans.Centroids = matrix.NewDense(k, cdim)
	for c := 0; c < k; c++ {
		copy(m.KMeans.Centroids.RawRow(c), normals(cdim))
	}
	if p := m.scorePlanNow(); !p.valid {
		t.Fatalf("dim %d pcaK %d k %d: plan invalid", dim, pcaK, k)
	}
	return m
}

// componentKernel is the reference the plan must equal bit for bit: the
// scaler, the PCA and the k-means model called one after the other.
func componentKernel(t *testing.T, m *Model, vec []float64) (x []float64, cluster int, dist float64) {
	t.Helper()
	x, err := m.Scaler.TransformVec(vec)
	if err != nil {
		t.Fatal(err)
	}
	if m.PCA != nil {
		if x, err = m.PCA.TransformVec(x); err != nil {
			t.Fatal(err)
		}
	}
	cluster, dist = m.KMeans.AssignDistance(x)
	if p := m.KMeans.Predict(x); p != cluster {
		t.Fatalf("kmeans disagrees with itself: Predict %d, AssignDistance %d", p, cluster)
	}
	return x, cluster, dist
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKernel scores vec through the plan with scratch s and through
// the components, and demands the same bits at every stage.
func checkKernel(t *testing.T, m *Model, s *Scratch, vec []float64, what string) {
	t.Helper()
	p := m.scorePlanNow()
	wantX, wantC, wantD := componentKernel(t, m, vec)
	x := p.transform(s, vec)
	if len(x) != len(wantX) {
		t.Fatalf("%s: transform gives %d coordinates, want %d", what, len(x), len(wantX))
	}
	for c := range x {
		if !sameBits(x[c], wantX[c]) {
			t.Fatalf("%s: coordinate %d = %x, component path %x", what, c, math.Float64bits(x[c]), math.Float64bits(wantX[c]))
		}
	}
	c, d := p.assign(x)
	if c != wantC || !sameBits(d, wantD) {
		t.Fatalf("%s: assign = (%d, %v), component path (%d, %v)", what, c, d, wantC, wantD)
	}
	// explain reads distances through sqDist; a centroid that won below
	// +Inf must read the same there.
	if one := math.Sqrt(p.sqDist(x, c)); !math.IsInf(d, 1) && !sameBits(d, one) {
		t.Fatalf("%s: assign distance %v, sqDist %v", what, d, one)
	}
}

// TestKernelBlockingParity walks every block remainder of both loops —
// pcaK 0…9 (PCA off, then 4+2+1 in every combination) × k 1…13 — on
// random models, with one scratch carried across all of them so its
// three buffers shrink and regrow between shapes.
func TestKernelBlockingParity(t *testing.T) {
	const dim = 9
	gen := rng.New(16)
	s := &Scratch{}
	for pcaK := 0; pcaK <= 9; pcaK++ {
		for k := 1; k <= 13; k++ {
			m := kernelModel(t, gen, dim, pcaK, k)
			for i := 0; i < 8; i++ {
				vec := make([]float64, dim)
				for j := range vec {
					vec[j] = 3 * gen.NormFloat64()
				}
				checkKernel(t, m, s, vec, fmt.Sprintf("pcaK %d k %d vector %d", pcaK, k, i))
			}
		}
	}
}

// TestKernelTiesGoToLowestIndex: with centroids a < b equal and the
// query sitting on them, a wins — inside a block of four, inside the
// pair, and across blocks — and so does 0 when every centroid is equal.
func TestKernelTiesGoToLowestIndex(t *testing.T) {
	gen := rng.New(17)
	for k := 2; k <= 13; k++ {
		m := kernelModel(t, gen, 5, 3, k)
		p := m.scorePlanNow()
		rows := append([]float64(nil), p.cents...)
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				copy(p.cents, rows)
				twin := p.cents[a*p.cdim : (a+1)*p.cdim]
				copy(p.cents[b*p.cdim:(b+1)*p.cdim], twin)
				if c, d := p.assign(twin); c != a || d != 0 {
					t.Fatalf("k %d twins %d=%d: assign = (%d, %v), want (%d, 0)", k, a, b, c, d, a)
				}
			}
		}
		for c := 1; c < k; c++ {
			copy(p.cents[c*p.cdim:(c+1)*p.cdim], p.cents[:p.cdim])
		}
		if c, _ := p.assign(rows[:p.cdim]); c != 0 {
			t.Fatalf("k %d, all centroids equal: assign picked %d", k, c)
		}
	}
}

// TestKernelNonFiniteInput: a NaN or infinite coordinate poisons every
// distance it reaches; no distance then compares below +Inf, centroid 0
// stands and the distance reads +Inf — on both paths.
func TestKernelNonFiniteInput(t *testing.T) {
	gen := rng.New(18)
	for _, pcaK := range []int{0, 7} {
		m := kernelModel(t, gen, 9, pcaK, 11)
		s := m.NewScratch()
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for at := 0; at < 9; at++ {
				vec := make([]float64, 9)
				for j := range vec {
					vec[j] = gen.NormFloat64()
				}
				vec[at] = bad
				checkKernel(t, m, s, vec, fmt.Sprintf("pcaK %d, %v at %d", pcaK, bad, at))
			}
		}
	}
}

// TestScratchFromAnotherModel: a scratch sized by NewScratch for one
// model serves a wider and a narrower one, with and without PCA.
func TestScratchFromAnotherModel(t *testing.T) {
	gen := rng.New(19)
	small := kernelModel(t, gen, 4, 2, 3)
	big := kernelModel(t, gen, 12, 9, 13)
	flat := kernelModel(t, gen, 12, 0, 5)
	vecFor := func(m *Model) []float64 {
		vec := make([]float64, m.Dim())
		for j := range vec {
			vec[j] = gen.NormFloat64()
		}
		return vec
	}
	for _, from := range []*Model{small, big, flat} {
		s := from.NewScratch()
		for _, m := range []*Model{big, small, flat, big} {
			checkKernel(t, m, s, vecFor(m), fmt.Sprintf("scratch of dim %d on dim %d", from.Dim(), m.Dim()))
		}
	}
}
