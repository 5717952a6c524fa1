package iforest

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/matrix/matrixtest"
	"polygraph/internal/rng"
)

// clusterWithOutliers builds n inlier points near the origin plus a few
// far-away outliers, returning the matrix and the outlier row indices.
func clusterWithOutliers(n, outliers int, seed uint64) (*matrix.Dense, map[int]bool) {
	p := rng.New(seed)
	rows := make([][]float64, 0, n+outliers)
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{p.NormFloat64(), p.NormFloat64()})
	}
	outlierIdx := map[int]bool{}
	for i := 0; i < outliers; i++ {
		rows = append(rows, []float64{100 + p.NormFloat64(), -100 + p.NormFloat64()})
		outlierIdx[n+i] = true
	}
	return matrix.FromRows(rows), outlierIdx
}

// fit builds a forest over the rows of m through their grouping.
func fit(m *matrix.Dense, cfg Config) (*Forest, error) {
	return FitGroups(m.DistinctRows(), cfg)
}

// score is the per-row reference of scoreAll: x's path lengths added in
// tree order, then normalized.
func score(f *Forest, x []float64) float64 {
	total := 0.0
	for t := range f.roots {
		total += f.pathLength(t, x)
	}
	return math.Pow(2, -(total/float64(len(f.roots)))/f.norm)
}

func TestFitErrors(t *testing.T) {
	if _, err := fit(matrix.NewDense(0, 2), Config{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestOutliersScoreHigher(t *testing.T) {
	m, outliers := clusterWithOutliers(500, 5, 1)
	f, err := fit(m, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := f.scoreAll(m)
	if err != nil {
		t.Fatal(err)
	}
	var inMax, outMin float64 = 0, 1
	for i, s := range scores {
		if outliers[i] {
			if s < outMin {
				outMin = s
			}
		} else if s > inMax {
			inMax = s
		}
	}
	if outMin <= inMax {
		t.Fatalf("outlier min score %v <= inlier max score %v", outMin, inMax)
	}
}

func TestScoreRange(t *testing.T) {
	m, _ := clusterWithOutliers(300, 3, 2)
	f, err := fit(m, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scores, _ := f.scoreAll(m)
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v out of [0,1]", i, s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	m, _ := clusterWithOutliers(200, 2, 3)
	a, err := fit(m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fit(m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := a.scoreAll(m)
	sb, _ := b.scoreAll(m)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed produced different score at %d", i)
		}
	}
}

func TestScoreAllDimError(t *testing.T) {
	m, _ := clusterWithOutliers(100, 1, 5)
	f, _ := fit(m, Config{Seed: 1})
	if _, err := f.scoreAll(matrix.NewDense(3, 5)); err == nil {
		t.Fatal("expected dimension error")
	}
}

// filterContamination is the contamination cut over m: the rows Outliers
// drops from m's grouping, and the rows it keeps, both in row order.
func filterContamination(f *Forest, m *matrix.Dense, contamination float64) (keep, drop []int, err error) {
	if drop, err = f.Outliers(m.DistinctRows(), contamination); err != nil {
		return nil, nil, err
	}
	r, _ := m.Dims()
	for i, next := 0, 0; i < r; i++ {
		if next < len(drop) && drop[next] == i {
			next++
			continue
		}
		keep = append(keep, i)
	}
	return keep, drop, nil
}

func TestFilterContaminationDropsOutliers(t *testing.T) {
	m, outliers := clusterWithOutliers(1000, 4, 6)
	f, err := fit(m, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	keep, drop, err := filterContamination(f, m, 4.0/1004.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 4 {
		t.Fatalf("dropped %d rows, want 4", len(drop))
	}
	for _, d := range drop {
		if !outliers[d] {
			t.Fatalf("dropped inlier row %d", d)
		}
	}
	if len(keep)+len(drop) != 1004 {
		t.Fatalf("keep+drop = %d", len(keep)+len(drop))
	}
	// Keep preserves original order.
	for i := 1; i < len(keep); i++ {
		if keep[i] <= keep[i-1] {
			t.Fatal("keep indices not in order")
		}
	}
}

func TestFilterContaminationZero(t *testing.T) {
	m, _ := clusterWithOutliers(50, 1, 7)
	f, _ := fit(m, Config{Seed: 1})
	keep, drop, err := filterContamination(f, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 0 || len(keep) != 51 {
		t.Fatalf("keep=%d drop=%d", len(keep), len(drop))
	}
}

func TestFilterContaminationTinyThresholdDropsAtLeastOne(t *testing.T) {
	// The paper's threshold is 0.002%; on 205k rows that's a handful,
	// but on small data a naive round would drop zero. We guarantee ≥1.
	m, _ := clusterWithOutliers(100, 1, 8)
	f, _ := fit(m, Config{Seed: 1})
	_, drop, err := filterContamination(f, m, 0.00002)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 1 {
		t.Fatalf("dropped %d, want exactly 1", len(drop))
	}
}

func TestFilterContaminationBadRange(t *testing.T) {
	m, _ := clusterWithOutliers(50, 1, 9)
	f, _ := fit(m, Config{Seed: 1})
	if _, _, err := filterContamination(f, m, -0.1); err == nil {
		t.Fatal("expected error for negative contamination")
	}
	if _, _, err := filterContamination(f, m, 1.0); err == nil {
		t.Fatal("expected error for contamination = 1")
	}
}

func TestConstantDataDoesNotHang(t *testing.T) {
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{5, 5, 5}
	}
	m := matrix.FromRows(rows)
	f, err := fit(m, Config{Seed: 1, trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := score(f, []float64{5, 5, 5})
	if s < 0 || s > 1 {
		t.Fatalf("score on constant data = %v", s)
	}
}

func TestAvgPathLength(t *testing.T) {
	if avgPathLength(0) != 0 || avgPathLength(1) != 0 {
		t.Fatal("c(n) for n<=1 should be 0")
	}
	// c(2) = 2·H(1) − 2·(1/2) = 2·(ln1+γ) − 1 ≈ 0.1544.
	got := avgPathLength(2)
	if got < 0.15 || got > 0.16 {
		t.Fatalf("c(2) = %v", got)
	}
	if avgPathLength(100) <= avgPathLength(10) {
		t.Fatal("c(n) must grow with n")
	}
}

func TestSmallSampleSize(t *testing.T) {
	m, _ := clusterWithOutliers(10, 1, 10)
	f, err := fit(m, Config{Seed: 1, sampleSize: 4, trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.scoreAll(m); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFit2000(b *testing.B) {
	m, _ := clusterWithOutliers(2000, 10, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit(m, Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// refNode is a tree as the forest was first written: grown recursively
// into pointer nodes and walked recursively.
type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	size        int
	leaf        bool
}

func refBuild(cols [][]float64, sample []int32, depth, maxDepth int, gen *rng.PCG) *refNode {
	if depth >= maxDepth || len(sample) <= 1 {
		return &refNode{leaf: true, size: len(sample)}
	}
	d := len(cols)
	for try := 0; try < d; try++ {
		feat := gen.Intn(d)
		col := cols[feat]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, g := range sample {
			if v := col[g]; v < lo {
				lo = v
			}
			if v := col[g]; v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		thr := lo + gen.Float64()*(hi-lo)
		left := 0
		for k, g := range sample {
			if col[g] < thr {
				sample[k], sample[left] = sample[left], g
				left++
			}
		}
		if left == 0 || left == len(sample) {
			continue
		}
		return &refNode{
			feature:   feat,
			threshold: thr,
			left:      refBuild(cols, sample[:left], depth+1, maxDepth, gen),
			right:     refBuild(cols, sample[left:], depth+1, maxDepth, gen),
		}
	}
	return &refNode{leaf: true, size: len(sample)}
}

func refPathLength(n *refNode, x []float64, depth float64) float64 {
	if n.leaf {
		return depth + avgPathLength(n.size)
	}
	if x[n.feature] < n.threshold {
		return refPathLength(n.left, x, depth+1)
	}
	return refPathLength(n.right, x, depth+1)
}

// refScores fits the pointer forest on the same draws as FitGroups — the
// ψ-sample of tree t is the prefix of a Fisher–Yates shuffle carried over
// from tree t−1, drawn from the stream split as "tree-t" — and scores
// every row of data with it.
func refScores(data *matrix.Dense, cfg Config) []float64 {
	rows := data.DistinctRows()
	n, d := rows.Dims()
	trees, psi := cfg.trees, cfg.sampleSize
	if trees == 0 {
		trees = 100
	}
	if psi == 0 || psi > n {
		psi = min(256, n)
	}
	maxDepth := int(math.Ceil(math.Log2(float64(psi)))) + 1
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = rows.Rows.Col(j)
	}
	base := rng.New(cfg.Seed)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	roots := make([]*refNode, trees)
	for t := range roots {
		gen := base.Split(fmt.Sprintf("tree-%d", t))
		for i := n - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		sample := make([]int32, psi)
		for k, i := range idx[:psi] {
			sample[k] = rows.Group[i]
		}
		roots[t] = refBuild(cols, sample, 0, maxDepth, gen)
	}
	r, _ := data.Dims()
	out := make([]float64, r)
	for i := range out {
		total := 0.0
		for _, root := range roots {
			total += refPathLength(root, data.RawRow(i), 0)
		}
		out[i] = math.Pow(2, -(total/float64(trees))/avgPathLength(psi))
	}
	return out
}

// TestFlatTraversalMatchesPointerWalk: the forest grows straight into its
// preorder node array; scored through that array it must agree bit for
// bit with the pointer trees grown and walked recursively on the same
// draws.
func TestFlatTraversalMatchesPointerWalk(t *testing.T) {
	for _, seed := range []uint64{1, 9, 23} {
		small, _ := clusterWithOutliers(30, 3, seed)
		constCol := matrixtest.FewDistinct(seed, 400, 5, 40, true)
		for i := 0; i < 400; i++ {
			constCol.Set(i, 2, 5)
		}
		outliers, _ := clusterWithOutliers(300, 12, seed)
		inputs := []struct {
			name string
			data *matrix.Dense
			cfg  Config
		}{
			{"psi-below-n", outliers, Config{trees: 50, sampleSize: 64, Seed: seed}},
			{"psi-above-n", small, Config{trees: 50, Seed: seed}},
			{"constant-column", constCol, Config{trees: 50, sampleSize: 32, Seed: seed}},
		}
		for _, in := range inputs {
			f, err := fit(in.data, in.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.scoreAll(in.data)
			if err != nil {
				t.Fatal(err)
			}
			matrixtest.RequireSameBits(t, fmt.Sprintf("seed %d %s: score", seed, in.name), got, refScores(in.data, in.cfg))
		}
	}
}

// TestScoreAllMatchesPerRowScore: scoreAll walks blocks of rows tree by
// tree; it must agree bit for bit with Score called on every row,
// whatever the repetition.
func TestScoreAllMatchesPerRowScore(t *testing.T) {
	outliers, _ := clusterWithOutliers(400, 20, 5)
	inputs := []struct {
		name string
		data *matrix.Dense
	}{
		{"gaussian-with-outliers", outliers},
		{"few-distinct", matrixtest.FewDistinct(5, 900, 6, 60, true)},
		{"sign-of-zero-only", matrixtest.FewDistinct(6, 200, 3, 4, false)},
		{"all-distinct", matrixtest.FewDistinct(7, 300, 6, 300, true)},
		{"across-score-blocks", matrixtest.FewDistinct(8, 2*scoreBlock+100, 6, 2*scoreBlock+50, true)},
	}
	for _, in := range inputs {
		f, err := fit(in.data, Config{trees: 40, sampleSize: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := in.data.Dims()
		want := make([]float64, r)
		for i := range want {
			want[i] = score(f, in.data.RawRow(i))
		}
		got, err := f.scoreAll(in.data)
		if err != nil {
			t.Fatal(err)
		}
		matrixtest.RequireSameBits(t, in.name+": score", got, want)
	}
}

// fullSortFilter is the filter as it was first written: sort every row by
// (score descending, index ascending) and cut after nDrop.
func fullSortFilter(scores []float64, nDrop int) (keep, drop []int) {
	type scored struct {
		idx int
		s   float64
	}
	all := make([]scored, len(scores))
	for i, s := range scores {
		all[i] = scored{idx: i, s: s}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].idx < all[j].idx
	})
	dropSet := make(map[int]bool, nDrop)
	for i := 0; i < nDrop; i++ {
		dropSet[all[i].idx] = true
	}
	for i := range scores {
		if dropSet[i] {
			drop = append(drop, i)
		} else {
			keep = append(keep, i)
		}
	}
	return keep, drop
}

// TestTopScoresMatchesFullSort: a fingerprint population has a few
// hundred distinct scores, one per class, so the cut nearly always falls
// inside a run of ties; the bounded selection over the rows' classes must
// break them exactly as the full sort of every row's score did.
func TestTopScoresMatchesFullSort(t *testing.T) {
	type tiedCase struct {
		name   string
		group  []int32
		scores []float64
		nDrop  int
	}
	gen := rng.New(41)
	// tied spreads n rows over classes with `levels` scores, two classes
	// per level, so equal scores also come from different classes.
	tied := func(name string, n, levels, nDrop int) tiedCase {
		tc := tiedCase{name: name, group: make([]int32, n), scores: make([]float64, 2*levels), nDrop: nDrop}
		for c := range tc.scores {
			tc.scores[c] = 0.4 + 0.05*float64(c/2)
		}
		for i := range tc.group {
			tc.group[i] = int32(gen.Intn(len(tc.scores)))
		}
		return tc
	}
	cases := []tiedCase{
		tied("all-equal", 50, 1, 5),
		tied("one-row", 1, 1, 1),
		tied("cut-inside-a-tie", 400, 3, 37),
		tied("drop-past-the-top-level", 400, 6, 250),
		tied("all-but-one", 64, 4, 63),
		tied("everything", 20, 2, 20),
		tied("nothing", 20, 2, 0),
		{"all-distinct-ascending", []int32{0, 1, 2, 3, 4, 5}, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 2},
	}
	for _, tc := range cases {
		perRow := make([]float64, len(tc.group))
		for i, g := range tc.group {
			perRow[i] = tc.scores[g]
		}
		_, want := fullSortFilter(perRow, tc.nDrop)
		got := topScores(tc.group, tc.scores, tc.nDrop)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: dropped %v, full sort drops %v", tc.name, got, want)
		}
	}
}

// TestFilterContaminationOnTiedRows drives the same order through the
// exported filter, where contamination picks nDrop.
func TestFilterContaminationOnTiedRows(t *testing.T) {
	cases := []struct {
		name          string
		data          *matrix.Dense
		contamination float64
	}{
		{"all-rows-equal", matrix.NewDense(50, 4), 0.1},
		{"one-row", matrixtest.FewDistinct(1, 1, 3, 4, false), 0.5},
		{"few-distinct", matrixtest.FewDistinct(2, 600, 5, 7, true), 0.3},
		{"all-but-one", matrixtest.FewDistinct(3, 64, 5, 5, false), 63.0 / 64},
	}
	for _, tc := range cases {
		f, err := fit(tc.data, Config{trees: 20, sampleSize: 32, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		scores, err := f.scoreAll(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		nDrop := int(math.Round(tc.contamination * float64(len(scores))))
		if nDrop == 0 {
			nDrop = 1
		}
		wantKeep, wantDrop := fullSortFilter(scores, nDrop)
		keep, drop, err := filterContamination(f, tc.data, tc.contamination)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(keep) != fmt.Sprint(wantKeep) || fmt.Sprint(drop) != fmt.Sprint(wantDrop) {
			t.Fatalf("%s: keep %v drop %v, full sort keeps %v drops %v", tc.name, keep, drop, wantKeep, wantDrop)
		}
	}
}

// BenchmarkScoreAllAllDistinct scores 20 000 rows with no repeat: the
// side of the distinct-row table where nothing is shared.
func BenchmarkScoreAllAllDistinct(b *testing.B) {
	gen := rng.New(1)
	data := matrix.NewDense(20000, 28)
	for i := 0; i < 20000; i++ {
		for j := 0; j < 28; j++ {
			data.Set(i, j, gen.Float64())
		}
	}
	f, err := fit(data, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.scoreAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNormalizationHoisted(t *testing.T) {
	data, _ := clusterWithOutliers(200, 8, 7)
	f, err := fit(data, Config{trees: 20, sampleSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := avgPathLength(32); f.norm != want {
		t.Fatalf("hoisted norm %v, want avgPathLength(32) = %v", f.norm, want)
	}
}
