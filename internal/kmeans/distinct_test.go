package kmeans

import (
	"fmt"
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/matrix/matrixtest"
	"polygraph/internal/rng"
)

// The reference below is Fit as it was first written: every per-row
// kernel runs on every row, and the order-sensitive reductions go through
// refMapReduce. The production code runs the kernels once per class of
// bitwise-equal rows and keeps the reductions in the same row order and
// chunk geometry, so they must agree bit for bit.

// refMapReduce is the reduction the model format was fixed under: every
// chunk of refChunk(n) rows folds into a fresh accumulator, and the
// accumulators merge in ascending chunk order, the first one standing as
// the initial total.
func refMapReduce[A any](n int, newAcc func() A, body func(acc A, start, end int) A, merge func(into, from A) A) A {
	if n <= 0 {
		return newAcc()
	}
	c := refChunk(n)
	var accs []A
	for start := 0; start < n; start += c {
		end := start + c
		if end > n {
			end = n
		}
		accs = append(accs, body(newAcc(), start, end))
	}
	out := accs[0]
	for _, a := range accs[1:] {
		out = merge(out, a)
	}
	return out
}

// refChunk is about 64 chunks, floored at one row and capped at 16384.
func refChunk(n int) int {
	c := (n + 63) / 64
	if c < 1 {
		c = 1
	}
	if c > 16384 {
		c = 16384
	}
	return c
}

// TestChunkSize pins the reduction geometry: these are the chunk sizes
// every model trained so far was summed under.
func TestChunkSize(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {63, 1}, {64, 1}, {65, 2}, {8000, 125}, {60000, 938},
		{1048576, 16384}, {1048577, 16384},
	} {
		if got := chunkSize(tc.n); got != tc.want {
			t.Errorf("chunkSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if ref := refChunk(tc.n); ref != tc.want {
			t.Errorf("refChunk(%d) = %d, want %d", tc.n, ref, tc.want)
		}
	}
}

func refNearest(x []float64, cents *matrix.Dense) int {
	k, _ := cents.Dims()
	best, bestD := 0, math.Inf(1)
	for c := 0; c < k; c++ {
		if d := sqDist(x, cents.RawRow(c)); d < bestD {
			bestD = d
			best = c
		}
	}
	return best
}

func refInertia(cents, m *matrix.Dense) float64 {
	r, _ := m.Dims()
	return refMapReduce(r,
		func() float64 { return 0 },
		func(total float64, start, end int) float64 {
			for i := start; i < end; i++ {
				row := m.RawRow(i)
				total += sqDist(row, cents.RawRow(refNearest(row, cents)))
			}
			return total
		},
		func(into, from float64) float64 { return into + from },
	)
}

// refFit mirrors FitContext's defaults and restart loop. With
// reseedAlwaysMoves every empty-cluster reseed counts as infinite
// movement, the behaviour that kept a settled fit running to MaxIter.
func refFit(m *matrix.Dense, cfg Config, reseedAlwaysMoves bool) *Model {
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 300
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	var best *Model
	for attempt := 0; attempt < cfg.Restarts; attempt++ {
		gen := rng.New(cfg.Seed).Split(fmt.Sprintf("restart-%d", attempt))
		if model := refFitOnce(m, cfg, gen, reseedAlwaysMoves); best == nil || model.WCSS < best.WCSS {
			best = model
		}
	}
	return best
}

func refFitOnce(m *matrix.Dense, cfg Config, gen *rng.PCG, reseedAlwaysMoves bool) *Model {
	r, d := m.Dims()
	k := cfg.K
	cents := matrix.NewDense(k, d)
	if cfg.PlusPlus {
		copy(cents.RawRow(0), m.RawRow(gen.Intn(r)))
		d2 := make([]float64, r)
		for i := range d2 {
			d2[i] = sqDist(m.RawRow(i), cents.RawRow(0))
		}
		for c := 1; c < k; c++ {
			total := 0.0
			for _, v := range d2 {
				total += v
			}
			idx := r - 1
			if total <= 0 {
				idx = gen.Intn(r)
			} else {
				target := gen.Float64() * total
				acc := 0.0
				for i, v := range d2 {
					acc += v
					if acc >= target {
						idx = i
						break
					}
				}
			}
			copy(cents.RawRow(c), m.RawRow(idx))
			for i := range d2 {
				if nd := sqDist(m.RawRow(i), cents.RawRow(c)); nd < d2[i] {
					d2[i] = nd
				}
			}
		}
	} else {
		seedUniform(m, cents, gen)
	}

	assign := make([]int, r)
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		for i := range assign {
			assign[i] = refNearest(m.RawRow(i), cents)
		}
		acc := refMapReduce(r,
			func() *partial { return &partial{counts: make([]int, k), sums: matrix.NewDense(k, d)} },
			func(p *partial, start, end int) *partial {
				for i := start; i < end; i++ {
					p.counts[assign[i]]++
					srow := p.sums.RawRow(assign[i])
					for j, v := range m.RawRow(i) {
						srow[j] += v
					}
				}
				return p
			},
			func(into, from *partial) *partial {
				for c := 0; c < k; c++ {
					into.counts[c] += from.counts[c]
					irow := into.sums.RawRow(c)
					for j, v := range from.sums.RawRow(c) {
						irow[j] += v
					}
				}
				return into
			},
		)
		moved := 0.0
		for c := 0; c < k; c++ {
			crow := cents.RawRow(c)
			if acc.counts[c] == 0 {
				far, farD := 0, -1.0
				for i := 0; i < r; i++ {
					row := m.RawRow(i)
					if dist := sqDist(row, cents.RawRow(refNearest(row, cents))); dist > farD {
						far, farD = i, dist
					}
				}
				if reseedAlwaysMoves || !matrix.SameBits(crow, m.RawRow(far)) {
					moved += math.Inf(1)
				}
				copy(crow, m.RawRow(far))
				continue
			}
			inv := 1 / float64(acc.counts[c])
			for j := range crow {
				nv := acc.sums.RawRow(c)[j] * inv
				dv := nv - crow[j]
				moved += dv * dv
				crow[j] = nv
			}
		}
		if moved <= 1e-8 {
			iter++
			break
		}
	}
	return &Model{Centroids: cents, K: k, Dim: d, Iterations: iter, WCSS: refInertia(cents, m)}
}

func sameModel(t *testing.T, what string, got, want *Model) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, reference %d", what, got.Iterations, want.Iterations)
	}
	matrixtest.RequireSameBits(t, what+": WCSS", []float64{got.WCSS}, []float64{want.WCSS})
	for c := 0; c < want.K; c++ {
		matrixtest.RequireSameBits(t, fmt.Sprintf("%s: centroid %d", what, c), got.Centroids.RawRow(c), want.Centroids.RawRow(c))
	}
}

func TestFitMatchesRowAtATime(t *testing.T) {
	cases := []struct {
		name string
		data *matrix.Dense
		cfg  Config
	}{
		{"few-distinct", matrixtest.FewDistinct(21, 1500, 5, 40, false),
			Config{K: 6, Seed: 3, Restarts: 3, PlusPlus: true}},
		{"few-distinct-uniform-seeding", matrixtest.FewDistinct(22, 800, 4, 25, false),
			Config{K: 5, Seed: 4, Restarts: 2}},
		// A NaN row pins cluster 0 and keeps `moved` NaN, so the fit runs
		// to MaxIter; the arithmetic must still match step for step.
		{"nan-payloads", matrixtest.FewDistinct(23, 600, 4, 12, true),
			Config{K: 4, Seed: 5, Restarts: 2, PlusPlus: true, MaxIter: 12}},
		{"more-clusters-than-distinct-rows", matrixtest.FewDistinct(24, 400, 3, 5, false),
			Config{K: 8, Seed: 6, Restarts: 2, PlusPlus: true, MaxIter: 25}},
		{"all-distinct", matrixtest.FewDistinct(25, 2500, 6, 2500, false),
			Config{K: 7, Seed: 7, Restarts: 2, PlusPlus: true}},
	}
	for _, tc := range cases {
		want := refFit(tc.data, tc.cfg, false)
		r, _ := tc.data.Dims()
		wantAssign := make([]int, r)
		for i := range wantAssign {
			wantAssign[i] = refNearest(tc.data.RawRow(i), want.Centroids)
		}
		got, err := Fit(tc.data, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameModel(t, tc.name, got, want)

		assign, err := got.PredictAll(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range assign {
			if assign[i] != wantAssign[i] {
				t.Fatalf("%s: PredictAll[%d] = %d, row-at-a-time %d", tc.name, i, assign[i], wantAssign[i])
			}
		}
		matrixtest.RequireSameBits(t, tc.name+": Inertia",
			[]float64{want.Inertia(tc.data)}, []float64{refInertia(want.Centroids, tc.data)})
	}
}

// TestFitConvergesWhenKExceedsDistinctRows: with more clusters than
// distinct rows the surplus clusters are empty every round and reseeded
// onto the spot they already hold. That used to count as infinite
// movement, so every restart ran to MaxIter; the rounds it ran were exact
// repeats, so stopping early must not change the model.
func TestFitConvergesWhenKExceedsDistinctRows(t *testing.T) {
	points := [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	rows := make([][]float64, 2000)
	for i := range rows {
		rows[i] = points[i%len(points)]
	}
	m := matrix.FromRows(rows)
	cfg := Config{K: 8, Seed: 1, Restarts: 4, PlusPlus: true, MaxIter: 40}

	stalled := refFit(m, cfg, true)
	if stalled.Iterations != cfg.MaxIter {
		t.Fatalf("reference with always-moving reseeds stopped after %d iterations; the scenario no longer stalls", stalled.Iterations)
	}
	got, err := Fit(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations > 5 {
		t.Fatalf("fit took %d iterations on 5 distinct points", got.Iterations)
	}
	got.Iterations = stalled.Iterations
	sameModel(t, "early stop vs MaxIter-long run", got, stalled)
}

// BenchmarkFitAllDistinct is the guard on the other side of the
// distinct-row pass: 20 000 rows with no repeat, where grouping is pure
// overhead and must stay within a few percent of a fit that touches
// every row.
func BenchmarkFitAllDistinct(b *testing.B) {
	gen := rng.New(1)
	m := matrix.NewDense(20000, 28)
	for i := 0; i < 20000; i++ {
		for j := 0; j < 28; j++ {
			m.Set(i, j, gen.Float64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, Config{K: 11, Seed: 1, PlusPlus: true, MaxIter: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
