package scaler

import (
	"math"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/rng"
)

func TestFitEmpty(t *testing.T) {
	if _, err := Fit(matrix.NewDense(0, 3), Config{}); err == nil {
		t.Fatal("expected error fitting empty matrix")
	}
}

func TestFitBadSkip(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2}})
	if _, err := Fit(m, Config{Skip: []bool{true}}); err == nil {
		t.Fatal("expected error for wrong-length skip mask")
	}
}

func TestTransformZeroMeanUnitVar(t *testing.T) {
	p := rng.New(3)
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{p.NormFloat64()*7 + 100, p.Float64() * 1000}
	}
	m := matrix.FromRows(rows)
	s, err := Fit(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	means := out.DistinctRows().ColMeans()
	stds := out.DistinctRows().ColStds()
	for j := 0; j < 2; j++ {
		if math.Abs(means[j]) > 1e-9 {
			t.Fatalf("col %d mean = %v", j, means[j])
		}
		if math.Abs(stds[j]-1) > 1e-9 {
			t.Fatalf("col %d std = %v", j, stds[j])
		}
	}
}

func TestConstantColumnNoNaN(t *testing.T) {
	m := matrix.FromRows([][]float64{{5, 1}, {5, 2}, {5, 3}})
	s, err := Fit(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v := out.At(i, 0)
		if math.IsNaN(v) || v != 0 {
			t.Fatalf("constant column row %d = %v, want 0", i, v)
		}
	}
}

func TestSkipMask(t *testing.T) {
	m := matrix.FromRows([][]float64{{10, 0}, {20, 1}, {30, 1}})
	s, err := Fit(m, Config{Skip: []bool{false, true}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	// Binary column passes through untouched.
	for i := 0; i < 3; i++ {
		if out.At(i, 1) != m.At(i, 1) {
			t.Fatalf("skipped column modified at row %d", i)
		}
	}
	// Scaled column is centered.
	if math.Abs(out.DistinctRows().ColMeans()[0]) > 1e-12 {
		t.Fatal("scaled column not centered")
	}
}

func TestTransformVecMatchesMatrix(t *testing.T) {
	p := rng.New(5)
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{p.NormFloat64(), p.NormFloat64() * 10, float64(p.Intn(2))}
	}
	m := matrix.FromRows(rows)
	s, err := Fit(m, Config{Skip: []bool{false, false, true}})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := s.Transform(m)
	for i := range rows {
		vec, err := s.TransformVec(rows[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range vec {
			if vec[j] != full.At(i, j) {
				t.Fatalf("row %d col %d: vec %v != matrix %v", i, j, vec[j], full.At(i, j))
			}
		}
	}
}

func TestDimensionMismatch(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2}})
	s, _ := Fit(m, Config{})
	if _, err := s.Transform(matrix.NewDense(1, 3)); err == nil {
		t.Fatal("expected transform dimension error")
	}
	if _, err := s.TransformVec([]float64{1}); err == nil {
		t.Fatal("expected vector dimension error")
	}
}

func TestSetSkip(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	s, _ := Fit(m, Config{})
	if err := s.SetSkip([]bool{true}); err == nil {
		t.Fatal("expected error for bad mask length")
	}
	if err := s.SetSkip([]bool{true, false}); err != nil {
		t.Fatal(err)
	}
	got := s.Skip()
	if len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("skip = %v", got)
	}
	if err := s.SetSkip(nil); err != nil {
		t.Fatal(err)
	}
	if s.Skip() != nil {
		t.Fatal("nil mask not cleared")
	}
}
