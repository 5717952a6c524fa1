// Package kmeans implements the clustering algorithm at the heart of
// Browser Polygraph (paper §6.4.3): Lloyd's k-means with k-means++
// initialization, plus the Within-Cluster Sum of Squares (WCSS) tooling
// used to choose k via the elbow method (Figure 3) and the relative-WCSS
// curve (Figure 4) that pinpoints k = 11 in the paper.
package kmeans

import (
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

// Fit clusters the rows of m, through their grouping (see FitGroups).
// It returns an error for degenerate input (fewer rows than clusters,
// K < 1, empty matrix).
func Fit(m *matrix.Dense, cfg Config) (*Model, error) {
	return FitGroups(m.DistinctRows(), cfg)
}

// FitGroups clusters the grouped rows. The nearest-centroid search runs
// once per class, on its table row; the centroid update and the WCSS are
// count-weighted sums over the table, in class order; the k-means++ pick
// and uniform seeding draw over all the rows, in row order.
func FitGroups(rows matrix.RowGroups, cfg Config) (*Model, error) {
	r, d := rows.Dims()
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

	data := newGrouped(rows)
	var best *Model
	for attempt := 0; attempt < restarts; attempt++ {
		gen := rng.New(cfg.Seed).Split(fmt.Sprintf("restart-%d", attempt))
		model := fitOnce(data, cfg.K, maxIter, tol, cfg.PlusPlus, gen)
		if best == nil || model.WCSS < best.WCSS {
			best = model
		}
	}
	return best, nil
}

// grouped is the rows' grouping plus, per class, the nearest centroid and
// the squared distance to it as of the last refresh.
type grouped struct {
	matrix.RowGroups
	cluster []int32
	sqDist  []float64
}

func newGrouped(rows matrix.RowGroups) *grouped {
	return &grouped{RowGroups: rows, cluster: make([]int32, len(rows.Count)), sqDist: make([]float64, len(rows.Count))}
}

// refresh recomputes cluster and sqDist against cents.
func (data *grouped) refresh(cents *matrix.Dense) {
	for g := range data.Count {
		c, d2 := nearestCentroid(data.Rows.RawRow(g), cents)
		data.cluster[g], data.sqDist[g] = int32(c), d2
	}
}

// row returns the vector of row i.
func (data *grouped) row(i int) []float64 { return data.Rows.RawRow(int(data.Group[i])) }

func fitOnce(data *grouped, k, maxIter int, tol float64, plusPlus bool, gen *rng.PCG) *Model {
	_, d := data.Dims()
	cents := matrix.NewDense(k, d)
	if plusPlus {
		seedPlusPlus(data, cents, gen)
	} else {
		seedUniform(data, cents, gen)
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		// Assignment step, once per class.
		data.refresh(cents)
		// Update step: each class adds count × its vector to its
		// cluster's sum, in class order.
		counts := make([]int, k)
		sums := matrix.NewDense(k, d)
		for g, n := range data.Count {
			c := int(data.cluster[g])
			counts[c] += n
			w := float64(n)
			srow := sums.RawRow(c)
			for j, v := range data.Rows.RawRow(g) {
				srow[j] += w * v
			}
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			crow := cents.RawRow(c)
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest
				// from its centroid, the standard fix that
				// keeps K stable.
				far := data.Rows.RawRow(farthestClass(data, cents))
				// A reseed onto the spot the centroid already
				// holds moves nothing: with more clusters than
				// distinct rows the surplus ones are re-placed
				// every round, and counting that as movement
				// would keep a settled fit running to MaxIter.
				if !matrix.SameBits(crow, far) {
					copy(crow, far)
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
	return model
}

// seedUniform picks K distinct random rows as initial centroids.
func seedUniform(data *grouped, cents *matrix.Dense, gen *rng.PCG) {
	r, _ := data.Dims()
	k, _ := cents.Dims()
	perm := gen.Perm(r)
	for c := 0; c < k; c++ {
		copy(cents.RawRow(c), data.row(perm[c]))
	}
}

// seedPlusPlus implements k-means++ (Arthur & Vassilvitskii 2007):
// subsequent centroids are sampled proportional to squared distance from
// the nearest already-chosen centroid. The distance refresh after each
// pick runs once per class; the total and the cumulative sampling scan
// run over all rows, in row order, so the pick is the row a row-at-a-time
// scan would make.
func seedPlusPlus(data *grouped, cents *matrix.Dense, gen *rng.PCG) {
	r, _ := data.Dims()
	k, _ := cents.Dims()
	// d2[g] is class g's squared distance to its nearest chosen centroid.
	d2 := make([]float64, len(data.Count))
	refresh := func(c int) {
		crow := cents.RawRow(c)
		for g := range d2 {
			if nd := sqDist(data.Rows.RawRow(g), crow); c == 0 || nd < d2[g] {
				d2[g] = nd
			}
		}
	}
	copy(cents.RawRow(0), data.row(gen.Intn(r)))
	refresh(0)
	for c := 1; c < k; c++ {
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
		copy(cents.RawRow(c), data.row(idx))
		refresh(c)
	}
}

// farthestClass returns the class farthest from its nearest centroid, the
// lowest such class on a tie — the one holding the lowest such row, as
// classes are numbered by first appearance. It refreshes data.
func farthestClass(data *grouped, cents *matrix.Dense) int {
	data.refresh(cents)
	worst, worstD := 0, -1.0
	for g, d := range data.sqDist {
		if d > worstD {
			worstD = d
			worst = g
		}
	}
	return worst
}

// nearestCentroid returns the centroid closest to x — the lowest index
// on a tie — and the squared distance to it. Four centroids are summed
// per pass over x, so four add chains are in flight instead of one; each
// sum still runs in ascending coordinate order, as sqDist's does, and the
// comparisons run in ascending centroid order, so the result is the
// one-at-a-time scan's, bit for bit.
func nearestCentroid(x []float64, cents *matrix.Dense) (int, float64) {
	k, _ := cents.Dims()
	best, bestD := 0, math.Inf(1)
	c := 0
	for ; c+4 <= k; c += 4 {
		c0, c1 := cents.RawRow(c)[:len(x)], cents.RawRow(c + 1)[:len(x)]
		c2, c3 := cents.RawRow(c + 2)[:len(x)], cents.RawRow(c + 3)[:len(x)]
		var d0, d1, d2, d3 float64
		for j, xv := range x {
			t0, t1, t2, t3 := xv-c0[j], xv-c1[j], xv-c2[j], xv-c3[j]
			d0 += t0 * t0
			d1 += t1 * t1
			d2 += t2 * t2
			d3 += t3 * t3
		}
		for i, d := range [4]float64{d0, d1, d2, d3} {
			if d < bestD {
				best, bestD = c+i, d
			}
		}
	}
	for ; c < k; c++ {
		if d := sqDist(x, cents.RawRow(c)); d < bestD {
			best, bestD = c, d
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
	if _, d := data.Dims(); d != m.Dim {
		return nil, fmt.Errorf("kmeans: predict on %d-dim rows, model is %d-dim", d, m.Dim)
	}
	return m.assign(newGrouped(data.DistinctRows())), nil
}

// assign returns the nearest centroid of every row (refreshing data).
func (m *Model) assign(data *grouped) []int {
	data.refresh(m.Centroids)
	out := make([]int, len(data.Group))
	for i, g := range data.Group {
		out[i] = int(data.cluster[g])
	}
	return out
}

// Distance returns the Euclidean distance from x to centroid c.
func (m *Model) Distance(x []float64, c int) float64 {
	if c < 0 || c >= m.K {
		panic(fmt.Sprintf("kmeans: centroid %d out of %d", c, m.K))
	}
	return math.Sqrt(sqDist(x, m.Centroids.RawRow(c)))
}

// inertia takes each class's squared distance to its nearest centroid
// (refreshing data) and sums count × distance over the classes in order.
func (m *Model) inertia(data *grouped) float64 {
	data.refresh(m.Centroids)
	total := 0.0
	for g, n := range data.Count {
		total += float64(n) * data.sqDist[g]
	}
	return total
}

// ElbowPoint is one (k, WCSS) sample of the elbow curve.
type ElbowPoint struct {
	K    int
	WCSS float64
}

// ElbowCurve fits a model for every k in [kMin, kMax] and returns the
// WCSS curve of the paper's Figure 3. Fits reuse cfg except for K, and
// one grouping of m's rows.
func ElbowCurve(m *matrix.Dense, kMin, kMax int, cfg Config) ([]ElbowPoint, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("kmeans: bad elbow range [%d,%d]", kMin, kMax)
	}
	rows := m.DistinctRows()
	out := make([]ElbowPoint, 0, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		c := cfg
		c.K = k
		model, err := FitGroups(rows, c)
		if err != nil {
			return nil, fmt.Errorf("kmeans: elbow at k=%d: %w", k, err)
		}
		out = append(out, ElbowPoint{K: k, WCSS: model.WCSS})
	}
	return out, nil
}

// relativeWCSS transforms an elbow curve into the paper's Figure 4 series:
// for each k > kMin, the fractional WCSS drop achieved by moving from k-1
// to k clusters, (WCSS(k-1) − WCSS(k)) / WCSS(k-1). A pronounced spike
// marks a k that buys an outsized improvement — k = 11 in the paper.
func relativeWCSS(curve []ElbowPoint) []ElbowPoint {
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
	rel := relativeWCSS(curve)
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
