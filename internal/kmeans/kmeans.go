// Package kmeans implements the clustering algorithm at the heart of
// Browser Polygraph (paper §6.4.3): Lloyd's k-means with k-means++
// initialization, plus the Within-Cluster Sum of Squares (WCSS) tooling
// used to choose k via the elbow method (Figure 3) and the relative-WCSS
// curve (Figure 4) that pinpoints k = 11 in the paper.
package kmeans

import (
	"context"
	"fmt"
	"math"

	"polygraph/internal/matrix"
	"polygraph/internal/rng"
)

// Config controls training.
type Config struct {
	// K is the number of clusters; required, ≥ 1.
	K int
	// MaxIter bounds Lloyd iterations; 0 means the default (300).
	MaxIter int
	// Tol stops iteration when total centroid movement (squared) falls
	// below it; 0 means the default (1e-8).
	Tol float64
	// Seed drives the deterministic k-means++ initialization.
	Seed uint64
	// Restarts runs the whole fit multiple times with derived seeds and
	// keeps the lowest-WCSS model; 0 means 1 run.
	Restarts int
	// PlusPlus selects k-means++ seeding (true) or uniform random
	// centroid choice (false). The paper does not name its init; we use
	// ++ by default and ablate the difference in EXPERIMENTS.md.
	PlusPlus bool
}

// Model is a fitted k-means clustering.
type Model struct {
	// Centroids is a K×d matrix of cluster centers.
	Centroids *matrix.Dense
	// WCSS is the within-cluster sum of squared distances at
	// convergence.
	WCSS float64
	// Iterations is the number of Lloyd steps the winning restart used.
	Iterations int
	// K and Dim record the model shape.
	K, Dim int
}

// Fit clusters the rows of m. It returns an error for degenerate input
// (fewer rows than clusters, K < 1, empty matrix).
func Fit(m *matrix.Dense, cfg Config) (*Model, error) {
	return FitContext(context.Background(), m, cfg)
}

// FitContext is Fit with cooperative cancellation: ctx is checked before
// every k-means++ pick and every Lloyd iteration (hence every restart),
// so cancellation aborts within one pass over the rows. A fit that runs
// to completion is bit-identical to Fit's.
func FitContext(ctx context.Context, m *matrix.Dense, cfg Config) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, d := m.Dims()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K=%d < 1", cfg.K)
	}
	if r == 0 || d == 0 {
		return nil, fmt.Errorf("kmeans: empty input %dx%d", r, d)
	}
	if r < cfg.K {
		return nil, fmt.Errorf("kmeans: %d rows < K=%d", r, cfg.K)
	}
	maxIter := cfg.MaxIter
	if maxIter == 0 {
		maxIter = 300
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-8
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}

	// Every restart walks the same rows, so they share one grouping.
	data := groupRows(m)
	var best *Model
	for attempt := 0; attempt < restarts; attempt++ {
		gen := rng.New(cfg.Seed).Split(fmt.Sprintf("restart-%d", attempt))
		model, err := fitOnce(ctx, data, cfg.K, maxIter, tol, cfg.PlusPlus, gen)
		if err != nil {
			return nil, err
		}
		if best == nil || model.WCSS < best.WCSS {
			best = model
		}
	}
	return best, nil
}

// chunkSize is how many consecutive rows the ordered float reductions
// over all n rows (the centroid sums and WCSS) fold into one partial sum:
// ⌈n/64⌉, clamped to [1, 16384]. That grouping fixes the association
// order of those sums, so it is part of the model format: a different
// geometry trains a model with different bits.
func chunkSize(n int) int {
	return min(max((n+63)/64, 1), 16384)
}

// chunkedReduce folds [0, n) into one accumulator through per-chunk
// partials: body folds [start, end) into a fresh accumulator, and merge
// folds the partials together in ascending chunk order, the first one
// standing as the initial total. n <= 0 returns a fresh accumulator.
func chunkedReduce[A any](n int, newAcc func() A, body func(acc A, start, end int) A, merge func(into, from A) A) A {
	if n <= 0 {
		return newAcc()
	}
	c := chunkSize(n)
	out := body(newAcc(), 0, min(c, n))
	for start := c; start < n; start += c {
		out = merge(out, body(newAcc(), start, min(start+c, n)))
	}
	return out
}

// partial is one chunk's contribution to the centroid update.
type partial struct {
	counts []int
	sums   *matrix.Dense
}

// grouped is a data matrix seen through its classes of bitwise-equal
// rows. Nearest-centroid search is a pure function of a row's bits, so
// refresh runs it once per class, on the class's first row, and the
// order-sensitive reductions (centroid sums, WCSS, the k-means++ scan)
// read the result for every row, in row order, through Group.
type grouped struct {
	m *matrix.Dense
	matrix.RowGroups
	// cluster[g] is the centroid nearest to the rows of class g and
	// sqDist[g] their squared distance to it, as of the last refresh.
	cluster []int32
	sqDist  []float64
}

func groupRows(m *matrix.Dense) *grouped {
	rows := m.DistinctRows()
	return &grouped{m: m, RowGroups: rows, cluster: make([]int32, len(rows.First)), sqDist: make([]float64, len(rows.First))}
}

// refresh recomputes cluster and sqDist against cents.
func (data *grouped) refresh(cents *matrix.Dense) {
	for g, first := range data.First {
		c, d2 := nearestCentroid(data.m.RawRow(first), cents)
		data.cluster[g], data.sqDist[g] = int32(c), d2
	}
}

func fitOnce(ctx context.Context, data *grouped, k, maxIter int, tol float64, plusPlus bool, gen *rng.PCG) (*Model, error) {
	m := data.m
	r, d := m.Dims()
	cents := matrix.NewDense(k, d)
	if plusPlus {
		if err := seedPlusPlus(ctx, data, cents, gen); err != nil {
			return nil, err
		}
	} else {
		seedUniform(m, cents, gen)
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Assignment step, once per distinct row.
		data.refresh(cents)
		// Update step: feature sums over all rows in row order, one
		// partial per chunk (see chunkedReduce).
		acc := chunkedReduce(r,
			func() *partial { return &partial{counts: make([]int, k), sums: matrix.NewDense(k, d)} },
			func(p *partial, start, end int) *partial {
				for i := start; i < end; i++ {
					c := int(data.cluster[data.Group[i]])
					p.counts[c]++
					srow := p.sums.RawRow(c)
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
		counts, sums := acc.counts, acc.sums
		moved := 0.0
		for c := 0; c < k; c++ {
			crow := cents.RawRow(c)
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest
				// from its centroid, the standard fix that
				// keeps K stable.
				far := farthestPoint(data, cents)
				// A reseed onto the spot the centroid already
				// holds moves nothing: with more clusters than
				// distinct rows the surplus ones are re-placed
				// every round, and counting that as movement
				// would keep a settled fit running to MaxIter.
				if !matrix.SameBits(crow, m.RawRow(far)) {
					copy(crow, m.RawRow(far))
					moved += math.Inf(1)
				}
				continue
			}
			inv := 1 / float64(counts[c])
			srow := sums.RawRow(c)
			for j := range crow {
				nv := srow[j] * inv
				dv := nv - crow[j]
				moved += dv * dv
				crow[j] = nv
			}
		}
		if moved <= tol {
			iter++
			break
		}
	}

	model := &Model{Centroids: cents, K: k, Dim: d, Iterations: iter}
	model.WCSS = model.inertia(data)
	return model, nil
}

// seedUniform picks K distinct random rows as initial centroids.
func seedUniform(m *matrix.Dense, cents *matrix.Dense, gen *rng.PCG) {
	r, _ := m.Dims()
	k, _ := cents.Dims()
	perm := gen.Perm(r)
	for c := 0; c < k; c++ {
		copy(cents.RawRow(c), m.RawRow(perm[c]))
	}
}

// seedPlusPlus implements k-means++ (Arthur & Vassilvitskii 2007):
// subsequent centroids are sampled proportional to squared distance from
// the nearest already-chosen centroid. The distance refresh after each
// pick runs once per distinct row; the total and the cumulative sampling
// scan run over all rows, because they are inherently ordered. ctx is
// checked before every pick.
func seedPlusPlus(ctx context.Context, data *grouped, cents *matrix.Dense, gen *rng.PCG) error {
	m := data.m
	r, _ := m.Dims()
	k, _ := cents.Dims()
	// d2[g] is class g's squared distance to its nearest chosen centroid.
	d2 := make([]float64, len(data.First))
	refresh := func(c int) {
		crow := cents.RawRow(c)
		for g, first := range data.First {
			if nd := sqDist(m.RawRow(first), crow); c == 0 || nd < d2[g] {
				d2[g] = nd
			}
		}
	}
	copy(cents.RawRow(0), m.RawRow(gen.Intn(r)))
	refresh(0)
	for c := 1; c < k; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		total := 0.0
		for _, g := range data.Group {
			total += d2[g]
		}
		var idx int
		if total <= 0 {
			// All points coincide with chosen centroids; any row
			// works.
			idx = gen.Intn(r)
		} else {
			target := gen.Float64() * total
			acc := 0.0
			idx = r - 1
			for i, g := range data.Group {
				acc += d2[g]
				if acc >= target {
					idx = i
					break
				}
			}
		}
		copy(cents.RawRow(c), m.RawRow(idx))
		refresh(c)
	}
	return nil
}

// farthestPoint returns the row farthest from its nearest centroid, the
// lowest such row on a tie: classes are numbered by first appearance, so
// the first class to reach the maximum holds that row. It refreshes
// data.
func farthestPoint(data *grouped, cents *matrix.Dense) int {
	data.refresh(cents)
	worst, worstD := 0, -1.0
	for g, d := range data.sqDist {
		if d > worstD {
			worstD = d
			worst = g
		}
	}
	return data.First[worst]
}

// nearestCentroid returns the centroid closest to x — the lowest index
// on a tie — and the squared distance to it.
func nearestCentroid(x []float64, cents *matrix.Dense) (int, float64) {
	k, _ := cents.Dims()
	best, bestD := 0, math.Inf(1)
	for c := 0; c < k; c++ {
		if d := sqDist(x, cents.RawRow(c)); d < bestD {
			bestD = d
			best = c
		}
	}
	if math.IsInf(bestD, 1) {
		// No distance compared below +Inf (NaN input, or overflow):
		// centroid 0 stands, at whatever its distance is.
		bestD = sqDist(x, cents.RawRow(0))
	}
	return best, bestD
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Predict returns the nearest-centroid cluster for x. It panics if the
// vector width differs from the fitted dimension (programming error on the
// hot path; validated input should be checked by callers).
func (m *Model) Predict(x []float64) int {
	if len(x) != m.Dim {
		panic(fmt.Sprintf("kmeans: predict on %d-dim vector, model is %d-dim", len(x), m.Dim))
	}
	c, _ := nearestCentroid(x, m.Centroids)
	return c
}

// AssignDistance returns the nearest-centroid cluster for x and the
// Euclidean distance to that centroid, in a single pass over the
// centroids. It is the in-place (allocation-free) equivalent of calling
// Predict followed by Distance, with bit-identical results — the
// distance to the argmin centroid is the same squared sum either way —
// at half the arithmetic. Like Predict, it panics on a width mismatch.
func (m *Model) AssignDistance(x []float64) (int, float64) {
	if len(x) != m.Dim {
		panic(fmt.Sprintf("kmeans: predict on %d-dim vector, model is %d-dim", len(x), m.Dim))
	}
	best, bestD := 0, math.Inf(1)
	for c := 0; c < m.K; c++ {
		if d := sqDist(x, m.Centroids.RawRow(c)); d < bestD {
			bestD = d
			best = c
		}
	}
	return best, math.Sqrt(bestD)
}

// PredictAll returns cluster assignments for every row of data, running
// the nearest-centroid search once per distinct row.
func (m *Model) PredictAll(data *matrix.Dense) ([]int, error) {
	r, d := data.Dims()
	if d != m.Dim {
		return nil, fmt.Errorf("kmeans: predict on %d-dim rows, model is %d-dim", d, m.Dim)
	}
	rows := groupRows(data)
	rows.refresh(m.Centroids)
	out := make([]int, r)
	for i, g := range rows.Group {
		out[i] = int(rows.cluster[g])
	}
	return out, nil
}

// Distance returns the Euclidean distance from x to centroid c.
func (m *Model) Distance(x []float64, c int) float64 {
	if c < 0 || c >= m.K {
		panic(fmt.Sprintf("kmeans: centroid %d out of %d", c, m.K))
	}
	return math.Sqrt(sqDist(x, m.Centroids.RawRow(c)))
}

// Inertia computes the WCSS of data under the model's centroids.
func (m *Model) Inertia(data *matrix.Dense) float64 {
	return m.inertia(groupRows(data))
}

// inertia takes each distinct row's squared distance to its nearest
// centroid (refreshing data), then sums them over all rows in row order,
// one partial per chunk (see chunkedReduce).
func (m *Model) inertia(data *grouped) float64 {
	data.refresh(m.Centroids)
	return chunkedReduce(len(data.Group),
		func() float64 { return 0 },
		func(total float64, start, end int) float64 {
			for _, g := range data.Group[start:end] {
				total += data.sqDist[g]
			}
			return total
		},
		func(into, from float64) float64 { return into + from },
	)
}

// ElbowPoint is one (k, WCSS) sample of the elbow curve.
type ElbowPoint struct {
	K    int
	WCSS float64
}

// ElbowCurve fits a model for every k in [kMin, kMax] and returns the
// WCSS curve of the paper's Figure 3. Fits reuse cfg except for K.
func ElbowCurve(m *matrix.Dense, kMin, kMax int, cfg Config) ([]ElbowPoint, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("kmeans: bad elbow range [%d,%d]", kMin, kMax)
	}
	out := make([]ElbowPoint, 0, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		c := cfg
		c.K = k
		model, err := Fit(m, c)
		if err != nil {
			return nil, fmt.Errorf("kmeans: elbow at k=%d: %w", k, err)
		}
		out = append(out, ElbowPoint{K: k, WCSS: model.WCSS})
	}
	return out, nil
}

// RelativeWCSS transforms an elbow curve into the paper's Figure 4 series:
// for each k > kMin, the fractional WCSS drop achieved by moving from k-1
// to k clusters, (WCSS(k-1) − WCSS(k)) / WCSS(k-1). A pronounced spike
// marks a k that buys an outsized improvement — k = 11 in the paper.
func RelativeWCSS(curve []ElbowPoint) []ElbowPoint {
	if len(curve) < 2 {
		return nil
	}
	out := make([]ElbowPoint, 0, len(curve)-1)
	for i := 1; i < len(curve); i++ {
		prev := curve[i-1].WCSS
		drop := 0.0
		if prev > 0 {
			drop = (prev - curve[i].WCSS) / prev
		}
		out = append(out, ElbowPoint{K: curve[i].K, WCSS: drop})
	}
	return out
}

// BestRelativeK returns the k with the largest relative WCSS drop,
// ignoring candidates below kFloor (tiny k always has huge drops).
func BestRelativeK(curve []ElbowPoint, kFloor int) int {
	rel := RelativeWCSS(curve)
	bestK, bestV := 0, -1.0
	for _, p := range rel {
		if p.K < kFloor {
			continue
		}
		if p.WCSS > bestV {
			bestV = p.WCSS
			bestK = p.K
		}
	}
	return bestK
}
