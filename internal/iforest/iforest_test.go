package iforest

import (
	"encoding/json"
	"errors"
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

func TestFitErrors(t *testing.T) {
	if _, err := Fit(matrix.NewDense(0, 2), Config{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// TestFitRejectsNegativeSizes: a negative forest or sample size is bad
// input, not a makeslice panic.
func TestFitRejectsNegativeSizes(t *testing.T) {
	m, _ := clusterWithOutliers(50, 1, 1)
	for _, cfg := range []Config{
		{Trees: -1},
		{SampleSize: -1},
		{Trees: -3, SampleSize: -3},
	} {
		f, err := Fit(m, cfg)
		if !errors.Is(err, errNegativeSize) || f != nil {
			t.Errorf("%+v: forest %v, err %v; want errNegativeSize", cfg, f, err)
		}
	}
}

func TestOutliersScoreHigher(t *testing.T) {
	m, outliers := clusterWithOutliers(500, 5, 1)
	f, err := Fit(m, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := f.ScoreAll(m)
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
	f, err := Fit(m, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scores, _ := f.ScoreAll(m)
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v out of [0,1]", i, s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	m, _ := clusterWithOutliers(200, 2, 3)
	a, err := Fit(m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := a.ScoreAll(m)
	sb, _ := b.ScoreAll(m)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed produced different score at %d", i)
		}
	}
}

func TestScorePanicsOnBadDim(t *testing.T) {
	m, _ := clusterWithOutliers(100, 1, 4)
	f, _ := Fit(m, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-width score")
		}
	}()
	f.Score([]float64{1, 2, 3})
}

func TestScoreAllDimError(t *testing.T) {
	m, _ := clusterWithOutliers(100, 1, 5)
	f, _ := Fit(m, Config{Seed: 1})
	if _, err := f.ScoreAll(matrix.NewDense(3, 5)); err == nil {
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
	f, err := Fit(m, Config{Seed: 11})
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
	f, _ := Fit(m, Config{Seed: 1})
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
	f, _ := Fit(m, Config{Seed: 1})
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
	f, _ := Fit(m, Config{Seed: 1})
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
	f, err := Fit(m, Config{Seed: 1, Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := f.Score([]float64{5, 5, 5})
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
	f, err := Fit(m, Config{Seed: 1, SampleSize: 4, Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ScoreAll(m); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScore(b *testing.B) {
	m, _ := clusterWithOutliers(2000, 10, 11)
	f, err := Fit(m, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := m.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Score(x)
	}
}

func BenchmarkFit2000(b *testing.B) {
	m, _ := clusterWithOutliers(2000, 10, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExportImportRoundtrip(t *testing.T) {
	m, _ := clusterWithOutliers(500, 5, 13)
	f, err := Fit(m, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dump := f.Export()
	back, err := Import(dump)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != f.Dim() {
		t.Fatal("dim lost")
	}
	orig, _ := f.ScoreAll(m)
	rt, _ := back.ScoreAll(m)
	for i := range orig {
		if orig[i] != rt[i] {
			t.Fatalf("score %d differs after roundtrip: %v vs %v", i, orig[i], rt[i])
		}
	}
}

func TestImportRejectsCorruptDumps(t *testing.T) {
	m, _ := clusterWithOutliers(100, 2, 14)
	f, _ := Fit(m, Config{Seed: 1, Trees: 4})
	good := f.Export()

	cases := []func(*Dump){
		func(d *Dump) { d.SampleSize = 0 },
		func(d *Dump) { d.Dim = 0 },
		func(d *Dump) { d.Trees = nil },
		func(d *Dump) { d.Trees[0] = nil },
		func(d *Dump) { d.Trees[0][0].Left = 9999 },
		func(d *Dump) { d.Trees[0][0].Left = 0 }, // cycle
		func(d *Dump) {
			if d.Trees[0][0].Left != -1 {
				d.Trees[0][0].Feature = 99 // out-of-range split
			} else {
				d.Trees[0][0].Size = -1
			}
		},
	}
	for i, corrupt := range cases {
		// Fresh dump each time; corruption is destructive.
		d := f.Export()
		corrupt(d)
		if _, err := Import(d); err == nil {
			t.Fatalf("case %d: corrupted dump accepted", i)
		}
	}
	if _, err := Import(nil); err == nil {
		t.Fatal("nil dump accepted")
	}
	// The pristine dump still imports.
	if _, err := Import(good); err != nil {
		t.Fatal(err)
	}
}

func TestExportJSONStable(t *testing.T) {
	m, _ := clusterWithOutliers(100, 1, 15)
	f, _ := Fit(m, Config{Seed: 3, Trees: 8})
	a, err := json.Marshal(f.Export())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(f.Export())
	if string(a) != string(b) {
		t.Fatal("export not deterministic")
	}
	var d Dump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatal(err)
	}
	if _, err := Import(&d); err != nil {
		t.Fatal(err)
	}
}

func TestFlatTraversalMatchesPointerWalk(t *testing.T) {
	data, _ := clusterWithOutliers(300, 12, 21)
	f, err := Fit(data, Config{Trees: 50, SampleSize: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if f.flatRoots == nil {
		t.Fatal("Fit did not finalize the flat layout")
	}
	// Score walks the flat arrays; recompute each score through the
	// recursive pointer walk and demand bit equality — flattening is a
	// layout change, not an arithmetic change.
	r, _ := data.Dims()
	for i := 0; i < r; i++ {
		x := data.RawRow(i)
		total := 0.0
		for _, tr := range f.trees {
			total += pathLength(tr, x, 0)
		}
		want := math.Pow(2, -(total/float64(len(f.trees)))/avgPathLength(f.sampleSize))
		if got := f.Score(x); got != want {
			t.Fatalf("row %d: flat score %v, pointer walk %v", i, got, want)
		}
	}
}

// TestScoreAllMatchesPerRowScore: ScoreAll walks blocks of rows tree by
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
		f, err := Fit(in.data, Config{Trees: 40, SampleSize: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := in.data.Dims()
		want := make([]float64, r)
		for i := range want {
			want[i] = f.Score(in.data.RawRow(i))
		}
		got, err := f.ScoreAll(in.data)
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
		f, err := Fit(tc.data, Config{Trees: 20, SampleSize: 32, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		scores, err := f.ScoreAll(tc.data)
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
	f, err := Fit(data, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ScoreAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNormalizationHoisted(t *testing.T) {
	data, _ := clusterWithOutliers(200, 8, 7)
	f, err := Fit(data, Config{Trees: 20, SampleSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := avgPathLength(f.sampleSize); f.norm != want {
		t.Fatalf("hoisted norm %v, want avgPathLength(%d) = %v", f.norm, f.sampleSize, want)
	}
	// A hand-built forest with no flat layout still normalizes live.
	bare := &Forest{sampleSize: f.sampleSize}
	if bare.normalization() != avgPathLength(f.sampleSize) {
		t.Fatal("fallback normalization diverged")
	}
}

func TestImportFinalizesFlatLayout(t *testing.T) {
	data, _ := clusterWithOutliers(200, 8, 13)
	f, err := Fit(data, Config{Trees: 25, SampleSize: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(f.Export())
	if err != nil {
		t.Fatal(err)
	}
	if back.flatRoots == nil {
		t.Fatal("Import did not finalize the flat layout")
	}
	r, _ := data.Dims()
	for i := 0; i < r; i++ {
		x := data.RawRow(i)
		if f.Score(x) != back.Score(x) {
			t.Fatalf("row %d: imported forest diverged", i)
		}
	}
}
