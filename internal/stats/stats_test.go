package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean of empty != 0")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestStd(t *testing.T) {
	if std([]float64{5}) != 0 {
		t.Fatal("std of singleton != 0")
	}
	got := std([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(got, 2, 1e-12) {
		t.Fatalf("std = %v, want 2", got)
	}
}

func TestNormalizedStd(t *testing.T) {
	xs := []float64{10, 20, 30}
	want := std(xs) / 20
	if got := NormalizedStd(xs); !approx(got, want, 1e-12) {
		t.Fatalf("normalized std = %v want %v", got, want)
	}
	// Zero mean falls back to raw std.
	zs := []float64{-1, 1}
	if got := NormalizedStd(zs); !approx(got, std(zs), 1e-12) {
		t.Fatalf("zero-mean normalized std = %v", got)
	}
}

func TestEntropyUniform(t *testing.T) {
	// Four equally likely values: entropy = 2 bits.
	vals := []string{"a", "b", "c", "d", "a", "b", "c", "d"}
	if got := Entropy(vals); !approx(got, 2, 1e-12) {
		t.Fatalf("entropy = %v, want 2", got)
	}
}

func TestEntropyDegenerate(t *testing.T) {
	if Entropy([]int{}) != 0 {
		t.Fatal("entropy of empty != 0")
	}
	if Entropy([]int{1}) != 0 {
		t.Fatal("entropy of singleton != 0")
	}
	if Entropy([]int{3, 3, 3, 3}) != 0 {
		t.Fatal("entropy of constant != 0")
	}
}

func TestNormalizedEntropyBounds(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) < 2 {
			return true
		}
		ne := NormalizedEntropy(vals)
		return ne >= 0 && ne <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedEntropyAllDistinct(t *testing.T) {
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if got := NormalizedEntropy(vals); !approx(got, 1, 1e-12) {
		t.Fatalf("normalized entropy of distinct values = %v, want 1", got)
	}
}

func TestEntropyInvariantUnderRelabeling(t *testing.T) {
	a := []int{0, 0, 1, 1, 2}
	b := []string{"x", "x", "y", "y", "z"}
	if !approx(Entropy(a), Entropy(b), 1e-12) {
		t.Fatal("entropy not invariant under relabeling")
	}
}

func TestAnonymitySets(t *testing.T) {
	// 1 unique key, one set of 3, one set of 60.
	keys := make([]string, 0, 64)
	keys = append(keys, "solo")
	for i := 0; i < 3; i++ {
		keys = append(keys, "trio")
	}
	for i := 0; i < 60; i++ {
		keys = append(keys, "crowd")
	}
	buckets := AnonymitySets(keys)
	if buckets[0].Count != 1 || buckets[0].NumSets != 1 {
		t.Fatalf("unique bucket = %+v", buckets[0])
	}
	if buckets[1].Count != 3 {
		t.Fatalf("2-10 bucket = %+v", buckets[1])
	}
	if buckets[3].Count != 60 {
		t.Fatalf(">50 bucket = %+v", buckets[3])
	}
	total := 0.0
	for _, b := range buckets {
		total += b.Percent
	}
	if !approx(total, 100, 1e-9) {
		t.Fatalf("bucket percents sum to %v", total)
	}
}

func TestAnonymitySetsEmpty(t *testing.T) {
	buckets := AnonymitySets[string](nil)
	for _, b := range buckets {
		if b.Count != 0 || b.Percent != 0 {
			t.Fatalf("empty input produced non-zero bucket %+v", b)
		}
	}
}

func TestUniqueRate(t *testing.T) {
	keys := []int{1, 2, 2, 3, 3, 3}
	// Only "1" is unique: 1 of 6 observations.
	if got := UniqueRate(keys); !approx(got, 1.0/6, 1e-12) {
		t.Fatalf("unique rate = %v", got)
	}
	if UniqueRate([]int{}) != 0 {
		t.Fatal("unique rate of empty != 0")
	}
}

func TestLargeSetRate(t *testing.T) {
	keys := make([]int, 0, 100)
	for i := 0; i < 95; i++ {
		keys = append(keys, 0) // one set of 95
	}
	for i := 0; i < 5; i++ {
		keys = append(keys, i+1) // five unique
	}
	if got := LargeSetRate(keys, 50); !approx(got, 0.95, 1e-12) {
		t.Fatalf("large set rate = %v", got)
	}
	if got := LargeSetRate(keys, 100); got != 0 {
		t.Fatalf("threshold above all sets: %v", got)
	}
}

func TestRatesConsistentWithBuckets(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]int, len(raw))
		for i, v := range raw {
			keys[i] = int(v % 16)
		}
		buckets := AnonymitySets(keys)
		// Bucket "1" percent/100 must equal UniqueRate.
		return approx(buckets[0].Percent/100, UniqueRate(keys), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEntropy205k(b *testing.B) {
	vals := make([]int, 205000)
	for i := range vals {
		vals[i] = i % 113
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Entropy(vals)
	}
}

func BenchmarkAnonymitySets205k(b *testing.B) {
	keys := make([]uint64, 205000)
	for i := range keys {
		keys[i] = uint64(i % 900)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AnonymitySets(keys)
	}
}
