package kmeans

import (
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/rng"
)

// blobs generates n points around each of the given centers with the given
// spread.
func blobs(centers [][]float64, n int, spread float64, seed uint64) (*matrix.Dense, []int) {
	p := rng.New(seed)
	rows := make([][]float64, 0, len(centers)*n)
	labels := make([]int, 0, len(centers)*n)
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			row := make([]float64, len(c))
			for j := range row {
				row[j] = c[j] + p.NormFloat64()*spread
			}
			rows = append(rows, row)
			labels = append(labels, ci)
		}
	}
	return matrix.FromRows(rows), labels
}

var testCenters = [][]float64{
	{0, 0}, {10, 10}, {-10, 10},
}

func TestFitErrors(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := Fit(m, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Fit(m, Config{K: 3}); err == nil {
		t.Fatal("expected error for rows < K")
	}
	if _, err := Fit(matrix.NewDense(0, 2), Config{K: 1}); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestRecoverWellSeparatedBlobs(t *testing.T) {
	m, labels := blobs(testCenters, 200, 0.5, 1)
	model, err := Fit(m, Config{K: 3, Seed: 7, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := model.PredictAll(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every true blob must map to a single cluster (purity 100% on
	// well-separated data).
	blobToCluster := map[int]int{}
	for i, lbl := range labels {
		c := assign[i]
		if prev, ok := blobToCluster[lbl]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters %d and %d", lbl, prev, c)
			}
		} else {
			blobToCluster[lbl] = c
		}
	}
	if len(blobToCluster) != 3 {
		t.Fatalf("blobs mapped to %d clusters", len(blobToCluster))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	m, _ := blobs(testCenters, 100, 1.0, 2)
	cfg := Config{K: 3, Seed: 42, PlusPlus: true}
	a, err := Fit(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.WCSS != b.WCSS {
		t.Fatalf("same seed, different WCSS: %v vs %v", a.WCSS, b.WCSS)
	}
	for c := 0; c < 3; c++ {
		ra, rb := a.Centroids.Row(c), b.Centroids.Row(c)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("same seed, centroid %d differs", c)
			}
		}
	}
}

func TestRestartsNeverWorse(t *testing.T) {
	m, _ := blobs(testCenters, 80, 2.0, 3)
	single, err := Fit(m, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Fit(m, Config{K: 3, Seed: 5, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if multi.WCSS > single.WCSS+1e-9 {
		t.Fatalf("restarts made WCSS worse: %v vs %v", multi.WCSS, single.WCSS)
	}
}

func TestPredictNearest(t *testing.T) {
	m, _ := blobs(testCenters, 50, 0.3, 4)
	model, err := Fit(m, Config{K: 3, Seed: 1, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	// A point exactly at a centroid predicts that centroid.
	for c := 0; c < 3; c++ {
		if got := model.Predict(model.Centroids.Row(c)); got != c {
			t.Fatalf("centroid %d predicted as %d", c, got)
		}
	}
}

func TestPredictPanicsOnBadDim(t *testing.T) {
	m, _ := blobs(testCenters, 20, 0.3, 5)
	model, _ := Fit(m, Config{K: 3, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-width predict")
		}
	}()
	model.Predict([]float64{1})
}

func TestPredictAllDimError(t *testing.T) {
	m, _ := blobs(testCenters, 20, 0.3, 6)
	model, _ := Fit(m, Config{K: 3, Seed: 1})
	if _, err := model.PredictAll(matrix.NewDense(4, 5)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestDistanceNonNegative(t *testing.T) {
	m, _ := blobs(testCenters, 30, 0.5, 7)
	model, _ := Fit(m, Config{K: 3, Seed: 1})
	for i := 0; i < 30; i++ {
		row := m.Row(i)
		for c := 0; c < 3; c++ {
			if model.Distance(row, c) < 0 {
				t.Fatal("negative distance")
			}
		}
	}
}

func TestDistancePanicsOnBadCluster(t *testing.T) {
	m, _ := blobs(testCenters, 20, 0.5, 8)
	model, _ := Fit(m, Config{K: 3, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range centroid")
		}
	}()
	model.Distance(m.Row(0), 3)
}

// TestWCSSDecreasesWithK is the invariant behind the elbow method.
func TestWCSSDecreasesWithK(t *testing.T) {
	m, _ := blobs(testCenters, 150, 1.5, 9)
	curve, err := ElbowCurve(m, 1, 8, Config{Seed: 3, PlusPlus: true, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		// Allow tiny non-monotonicity from local optima, but the
		// trend must hold strongly.
		if curve[i].WCSS > curve[i-1].WCSS*1.05 {
			t.Fatalf("WCSS rose sharply from k=%d (%v) to k=%d (%v)",
				curve[i-1].K, curve[i-1].WCSS, curve[i].K, curve[i].WCSS)
		}
	}
	if curve[0].WCSS <= curve[len(curve)-1].WCSS {
		t.Fatal("WCSS did not decrease overall")
	}
}

func TestElbowDetectsTrueK(t *testing.T) {
	m, _ := blobs(testCenters, 200, 0.4, 10)
	curve, err := ElbowCurve(m, 1, 7, Config{Seed: 11, PlusPlus: true, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := BestRelativeK(curve, 2); got != 3 {
		t.Fatalf("relative WCSS picked k=%d, want 3", got)
	}
}

func TestElbowCurveBadRange(t *testing.T) {
	m, _ := blobs(testCenters, 10, 0.5, 12)
	if _, err := ElbowCurve(m, 0, 3, Config{}); err == nil {
		t.Fatal("expected error for kMin=0")
	}
	if _, err := ElbowCurve(m, 3, 2, Config{}); err == nil {
		t.Fatal("expected error for kMax<kMin")
	}
}

func TestRelativeWCSS(t *testing.T) {
	curve := []ElbowPoint{{K: 1, WCSS: 100}, {K: 2, WCSS: 50}, {K: 3, WCSS: 45}}
	rel := relativeWCSS(curve)
	if len(rel) != 2 {
		t.Fatalf("rel len = %d", len(rel))
	}
	if math.Abs(rel[0].WCSS-0.5) > 1e-12 {
		t.Fatalf("drop at k=2 = %v", rel[0].WCSS)
	}
	if math.Abs(rel[1].WCSS-0.1) > 1e-12 {
		t.Fatalf("drop at k=3 = %v", rel[1].WCSS)
	}
	if relativeWCSS(curve[:1]) != nil {
		t.Fatal("short curve should return nil")
	}
}

func TestEmptyClusterReseeded(t *testing.T) {
	// Duplicate points force potential empty clusters; the model must
	// still produce K centroids and converge.
	rows := make([][]float64, 0, 40)
	for i := 0; i < 20; i++ {
		rows = append(rows, []float64{0, 0})
		rows = append(rows, []float64{100, 100})
	}
	m := matrix.FromRows(rows)
	model, err := Fit(m, Config{K: 4, Seed: 1, PlusPlus: true, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if model.K != 4 {
		t.Fatalf("K = %d", model.K)
	}
	if math.IsNaN(model.WCSS) || math.IsInf(model.WCSS, 0) {
		t.Fatalf("WCSS = %v", model.WCSS)
	}
}

func TestInertiaMatchesFitWCSS(t *testing.T) {
	m, _ := blobs(testCenters, 100, 1.0, 13)
	model, err := Fit(m, Config{K: 3, Seed: 2, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := model.inertia(newGrouped(m.DistinctRows())); math.Abs(got-model.WCSS) > 1e-9*(1+model.WCSS) {
		t.Fatalf("Inertia %v != fit WCSS %v", got, model.WCSS)
	}
}

func TestUniformSeedingWorksToo(t *testing.T) {
	m, _ := blobs(testCenters, 100, 0.5, 14)
	model, err := Fit(m, Config{K: 3, Seed: 2, PlusPlus: false, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if model.WCSS <= 0 {
		t.Fatalf("WCSS = %v", model.WCSS)
	}
}

func TestKEqualsN(t *testing.T) {
	m := matrix.FromRows([][]float64{{0, 0}, {5, 5}, {10, 0}})
	model, err := Fit(m, Config{K: 3, Seed: 1, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	if model.WCSS > 1e-12 {
		t.Fatalf("K=N should give zero WCSS, got %v", model.WCSS)
	}
}

func BenchmarkFitK11(b *testing.B) {
	p := rng.New(15)
	rows := make([][]float64, 4096)
	for i := range rows {
		row := make([]float64, 7)
		base := float64(i % 11 * 10)
		for j := range row {
			row[j] = base + p.NormFloat64()
		}
		rows[i] = row
	}
	m := matrix.FromRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, Config{K: 11, Seed: 1, PlusPlus: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	m, _ := blobs(testCenters, 500, 1.0, 16)
	model, err := Fit(m, Config{K: 3, Seed: 1, PlusPlus: true})
	if err != nil {
		b.Fatal(err)
	}
	x := m.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(x)
	}
}

func TestSilhouetteWellSeparated(t *testing.T) {
	m, _ := blobs(testCenters, 150, 0.4, 21)
	model, err := Fit(m, Config{K: 3, Seed: 1, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, _ := model.PredictAll(m)
	s, err := silhouette(m, assign, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.8 {
		t.Fatalf("silhouette %v on well-separated blobs, want > 0.8", s)
	}
}

func TestSilhouetteOversplitLower(t *testing.T) {
	m, _ := blobs(testCenters, 150, 0.6, 22)
	score := func(k int) float64 {
		model, err := Fit(m, Config{K: k, Seed: 1, PlusPlus: true, Restarts: 4})
		if err != nil {
			t.Fatal(err)
		}
		assign, _ := model.PredictAll(m)
		s, err := silhouette(m, assign, k, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if score(3) <= score(9) {
		t.Fatalf("silhouette at true k=3 (%v) not above oversplit k=9 (%v)", score(3), score(9))
	}
}

func TestSilhouetteErrors(t *testing.T) {
	m, _ := blobs(testCenters, 20, 0.5, 23)
	if _, err := silhouette(m, []int{0}, 3, 0, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	assign := make([]int, 60)
	if _, err := silhouette(m, assign, 1, 0, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	assign[0] = 99
	if _, err := silhouette(m, assign, 3, 0, 1); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}

func TestSilhouetteSampled(t *testing.T) {
	m, _ := blobs(testCenters, 400, 0.5, 24)
	model, _ := Fit(m, Config{K: 3, Seed: 1, PlusPlus: true})
	assign, _ := model.PredictAll(m)
	full, err := silhouette(m, assign, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := silhouette(m, assign, 3, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-sampled) > 0.1 {
		t.Fatalf("sampled silhouette %v far from full %v", sampled, full)
	}
	// Deterministic under the same seed.
	again, _ := silhouette(m, assign, 3, 200, 1)
	if again != sampled {
		t.Fatal("sampled silhouette not deterministic")
	}
}

func TestSilhouetteCurvePeaksAtTrueK(t *testing.T) {
	m, _ := blobs(testCenters, 200, 0.4, 25)
	curve, err := SilhouetteCurve(m, 2, 6, Config{Seed: 3, PlusPlus: true, Restarts: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bestK, bestS := 0, -2.0
	for _, p := range curve {
		if p.WCSS > bestS {
			bestS = p.WCSS
			bestK = p.K
		}
	}
	if bestK != 3 {
		t.Fatalf("silhouette curve peaks at k=%d, want 3", bestK)
	}
	if _, err := SilhouetteCurve(m, 1, 3, Config{}, 0); err == nil {
		t.Fatal("kMin=1 accepted")
	}
}

func TestAssignDistanceMatchesPredictPlusDistance(t *testing.T) {
	m, _ := blobs(testCenters, 150, 2.0, 11)
	model, err := Fit(m, Config{K: 3, Seed: 5, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	p := rng.New(42)
	for i := 0; i < 500; i++ {
		x := []float64{p.NormFloat64() * 12, p.NormFloat64() * 12}
		cluster, dist := model.AssignDistance(x)
		if want := model.Predict(x); cluster != want {
			t.Fatalf("vector %d: AssignDistance cluster %d, Predict %d", i, cluster, want)
		}
		// Bit-identical, not approximately equal: the fused pass must do
		// the same sqrt over the same minimum squared distance.
		if want := model.Distance(x, cluster); dist != want {
			t.Fatalf("vector %d: AssignDistance dist %v, Distance %v", i, dist, want)
		}
	}
}

func TestAssignDistancePanicsOnWidthMismatch(t *testing.T) {
	m, _ := blobs(testCenters, 50, 0.5, 3)
	model, err := Fit(m, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	model.AssignDistance([]float64{1, 2, 3})
}
