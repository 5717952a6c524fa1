package experiments

import (
	"fmt"
	"io"
	"sort"

	"polygraph/internal/dbscan"
	"polygraph/internal/matrix"
	"polygraph/internal/ua"
)

// DBSCAN ablation: the paper picked k-means (§6.4.3); density-based
// clustering is the counterfactual that discovers the cluster count and
// isolates noise natively. This experiment runs DBSCAN on the same
// PCA-projected training data and scores it with the same Formula 1
// accuracy.

// DBSCANResult compares the density-based run to the deployed k-means.
type DBSCANResult struct {
	Eps        float64
	MinPts     int
	K          int
	NoisePct   float64
	Accuracy   float64 // Formula 1, noise treated as its own label
	KMeansK    int
	KMeansAcc  float64
	SampleRows int
}

// DBSCANAblation collapses duplicate fingerprints into weighted points,
// sweeps Eps over the k-distance quantiles, keeps the radius that best
// resolves the era structure, and evaluates the result with Formula 1.
func (e *Env) DBSCANAblation() (*DBSCANResult, error) {
	projected, err := e.projectedTrainingData()
	if err != nil {
		return nil, err
	}
	rows, dims := projected.Dims()

	// Collapse exact duplicates (the dominant mass of fingerprint
	// traffic) into weighted unique points.
	type agg struct {
		idx    int
		weight float64
	}
	uniq := map[string]*agg{}
	keyOf := func(row []float64) string {
		b := make([]byte, 0, dims*8)
		for _, v := range row {
			b = append(b, fmt.Sprintf("%.6f,", v)...)
		}
		return string(b)
	}
	var uniqueRows [][]float64
	rowToUnique := make([]int, rows)
	for i := 0; i < rows; i++ {
		row := projected.Row(i)
		k := keyOf(row)
		a, ok := uniq[k]
		if !ok {
			a = &agg{idx: len(uniqueRows)}
			uniq[k] = a
			uniqueRows = append(uniqueRows, row)
		}
		a.weight++
		rowToUnique[i] = a.idx
	}
	uniqueM := matrix.FromRows(uniqueRows)
	weights := make([]float64, len(uniqueRows))
	for _, a := range uniq {
		weights[a.idx] = a.weight
	}

	const minPts = 8
	kd, err := dbscan.KDistance(uniqueM, min(minPts, len(uniqueRows)-1))
	if err != nil {
		return nil, err
	}
	// Sweep Eps over the upper k-distance quantiles; keep the radius
	// producing the most clusters with little noise mass — the knee, by
	// search instead of eyeball.
	bestEps, bestK := kd[len(kd)-1], -1
	var best *dbscan.Result
	for _, q := range []int{50, 60, 70, 80, 85, 90, 95} {
		eps := kd[len(kd)*q/100]
		if eps <= 0 {
			continue
		}
		r, err := dbscan.Run(uniqueM, dbscan.Config{Eps: eps, MinPts: minPts, Weights: weights})
		if err != nil {
			return nil, err
		}
		noiseMass := 0.0
		for i, lbl := range r.Labels {
			if lbl == dbscan.Noise {
				noiseMass += weights[i]
			}
		}
		if noiseMass/float64(rows) > 0.05 {
			continue
		}
		if r.K > bestK {
			bestK, bestEps, best = r.K, eps, r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("experiments: no viable DBSCAN eps found")
	}
	eps := bestEps
	// Expand unique-point labels back to sessions.
	expanded := make([]int, rows)
	noiseCount := 0
	for i := 0; i < rows; i++ {
		expanded[i] = best.Labels[rowToUnique[i]]
		if expanded[i] == dbscan.Noise {
			noiseCount++
		}
	}
	res := &dbscan.Result{Labels: expanded, K: best.K, NoiseCount: noiseCount}

	// Formula 1 accuracy over the projected rows. The projection was
	// built from a strided sample of sessions; recover the same stride.
	sessions := e.Traffic.Sessions
	sessStride := 1
	if len(sessions) > 20000 {
		sessStride = len(sessions) / 20000
	}
	labels := make([]ua.Release, 0, rows)
	for i := 0; i < len(sessions); i += sessStride {
		labels = append(labels, sessions[i].Claimed)
	}
	if len(labels) != rows {
		return nil, fmt.Errorf("experiments: dbscan label mismatch %d vs %d", len(labels), rows)
	}
	majority := map[ua.Release]map[int]int{}
	for i, lbl := range labels {
		if majority[lbl] == nil {
			majority[lbl] = map[int]int{}
		}
		majority[lbl][res.Labels[i]]++
	}
	expected := map[ua.Release]int{}
	for rel, counts := range majority {
		cs := make([]int, 0, len(counts))
		for c := range counts {
			cs = append(cs, c)
		}
		sort.Ints(cs)
		best, bestN := 0, -1
		for _, c := range cs {
			if counts[c] > bestN {
				bestN = counts[c]
				best = c
			}
		}
		expected[rel] = best
	}
	correct := 0
	for i, lbl := range labels {
		if res.Labels[i] == expected[lbl] {
			correct++
		}
	}

	return &DBSCANResult{
		Eps:        eps,
		MinPts:     minPts,
		K:          res.K,
		NoisePct:   100 * float64(res.NoiseCount) / float64(rows),
		Accuracy:   float64(correct) / float64(rows),
		KMeansK:    e.Model.KMeans.K,
		KMeansAcc:  e.Model.Accuracy,
		SampleRows: rows,
	}, nil
}

// RenderDBSCAN prints the ablation.
func RenderDBSCAN(w io.Writer, r *DBSCANResult) {
	if r == nil {
		return
	}
	fmt.Fprintf(w, "DBSCAN ablation (eps=%.3f from k-distance knee, minPts=%d, %d rows):\n",
		r.Eps, r.MinPts, r.SampleRows)
	fmt.Fprintf(w, "  clusters found %d (k-means uses %d), noise %.2f%%, accuracy %.2f%% (k-means %.2f%%)\n",
		r.K, r.KMeansK, r.NoisePct, 100*r.Accuracy, 100*r.KMeansAcc)
}
