package kmeans

import (
	"fmt"
	"math"

	"polygraph/internal/matrix"
	"polygraph/internal/rng"
)

// silhouette computes the mean silhouette coefficient of the assignment:
// for each point, (b−a)/max(a,b) where a is the mean distance to its own
// cluster and b the smallest mean distance to another cluster. It is the
// standard alternative to the paper's elbow/relative-WCSS criterion for
// choosing k, and the repository's ablations use it to cross-check the
// k = 11 choice.
//
// Exact silhouette is O(n²); sampleCap bounds the points evaluated
// (uniform deterministic subsample, 0 = 2048). Distances to non-sampled
// points are still exact within the sample.
func silhouette(data *matrix.Dense, assign []int, k int, sampleCap int, seed uint64) (float64, error) {
	n, _ := data.Dims()
	if n != len(assign) {
		return 0, fmt.Errorf("kmeans: %d rows vs %d assignments", n, len(assign))
	}
	if k < 2 {
		return 0, fmt.Errorf("kmeans: silhouette needs k ≥ 2, have %d", k)
	}
	for i, a := range assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("kmeans: assignment %d out of range at row %d", a, i)
		}
	}
	if sampleCap <= 0 {
		sampleCap = 2048
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if n > sampleCap {
		gen := rng.New(seed).Split("silhouette")
		gen.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		idx = idx[:sampleCap]
	}

	// Group sampled points by cluster.
	byCluster := make([][]int, k)
	for _, i := range idx {
		c := assign[i]
		byCluster[c] = append(byCluster[c], i)
	}

	total, counted := 0.0, 0
	for _, i := range idx {
		own := assign[i]
		if len(byCluster[own]) < 2 {
			// Singleton within the sample: silhouette undefined,
			// conventionally 0 — skip rather than bias.
			continue
		}
		a := meanDist(data, i, byCluster[own], true)
		b := -1.0
		for c := 0; c < k; c++ {
			if c == own || len(byCluster[c]) == 0 {
				continue
			}
			d := meanDist(data, i, byCluster[c], false)
			if b < 0 || d < b {
				b = d
			}
		}
		if b < 0 {
			continue // no other populated cluster in sample
		}
		den := a
		if b > den {
			den = b
		}
		if den > 0 {
			total += (b - a) / den
		}
		counted++
	}
	if counted == 0 {
		return 0, fmt.Errorf("kmeans: no silhouette-evaluable points in sample")
	}
	return total / float64(counted), nil
}

// meanDist returns the mean Euclidean distance from row i to the rows in
// members; excludeSelf skips i itself (own-cluster case).
func meanDist(data *matrix.Dense, i int, members []int, excludeSelf bool) float64 {
	xi := data.RawRow(i)
	sum, n := 0.0, 0
	for _, j := range members {
		if excludeSelf && j == i {
			continue
		}
		sum += dist(xi, data.RawRow(j))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func dist(a, b []float64) float64 {
	return math.Sqrt(sqDist(a, b))
}

// SilhouetteCurve evaluates the mean silhouette for each k in
// [kMin, kMax] by fitting models with cfg on one grouping of data's
// rows, returning (k, score) points.
func SilhouetteCurve(data *matrix.Dense, kMin, kMax int, cfg Config, sampleCap int) ([]ElbowPoint, error) {
	if kMin < 2 || kMax < kMin {
		return nil, fmt.Errorf("kmeans: bad silhouette range [%d,%d]", kMin, kMax)
	}
	rows := newGrouped(data.DistinctRows())
	out := make([]ElbowPoint, 0, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		c := cfg
		c.K = k
		model, err := FitGroups(rows.RowGroups, c)
		if err != nil {
			return nil, err
		}
		s, err := silhouette(data, model.assign(rows), k, sampleCap, cfg.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ElbowPoint{K: k, WCSS: s})
	}
	return out, nil
}
