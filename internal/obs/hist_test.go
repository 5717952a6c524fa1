package obs

import (
	"math"
	"testing"
	"time"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.max() != 0 || h.mean() != 0 || h.quantile(0.99) != 0 {
		t.Fatalf("empty hist not all-zero: %+v", h.Summary())
	}
}

func TestHistExactMoments(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Record(5 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.max() != 5*time.Millisecond {
		t.Fatalf("max = %v", h.max())
	}
	if h.mean() != 5*time.Millisecond {
		t.Fatalf("mean = %v", h.mean())
	}
	// Every quantile of a one-point distribution must land in the value's
	// bucket, clamped above by the exact max.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		got := h.quantile(q)
		if got < 4096*time.Microsecond || got > 5*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v outside [4.096ms, 5ms]", q, got)
		}
	}
	if h.quantile(1) != h.max() {
		t.Fatalf("quantile(1) = %v, Max = %v", h.quantile(1), h.max())
	}
}

// TestHistRecordNIsRecordRepeated: a batch recorded at once reads
// exactly like its frames recorded one by one, and an empty batch (no
// frame of the block scored) records nothing, the maximum included.
func TestHistRecordNIsRecordRepeated(t *testing.T) {
	var batched, single Hist
	for i, d := range []time.Duration{0, 700 * time.Nanosecond, 93 * time.Microsecond, 4 * time.Millisecond, -time.Second} {
		n := 1 + 21*i
		batched.RecordN(d, n)
		for j := 0; j < n; j++ {
			single.Record(d)
		}
	}
	batched.RecordN(time.Hour, 0)
	batched.RecordN(time.Hour, -3)
	if batched.buckets() != single.buckets() || batched.Count() != single.Count() ||
		batched.sum() != single.sum() || batched.max() != single.max() {
		t.Fatalf("RecordN: %+v sum %v; repeated Record: %+v sum %v",
			batched.Summary(), batched.sum(), single.Summary(), single.sum())
	}
}

// TestHistQuantilesKnownDistributions drives the quantile math against
// distributions whose true quantiles are known, asserting the estimate
// stays within the histogram's error budget (well under one octave for
// dense data thanks to in-bucket interpolation).
func TestHistQuantilesKnownDistributions(t *testing.T) {
	cases := []struct {
		name   string
		feed   func(h *Hist)
		q      float64
		wantUs float64
		relTol float64
	}{
		{
			name: "uniform-1..1000us-p50",
			feed: func(h *Hist) {
				for i := 1; i <= 1000; i++ {
					h.Record(time.Duration(i) * time.Microsecond)
				}
			},
			q: 0.50, wantUs: 500, relTol: 0.15,
		},
		{
			name: "uniform-1..1000us-p99",
			feed: func(h *Hist) {
				for i := 1; i <= 1000; i++ {
					h.Record(time.Duration(i) * time.Microsecond)
				}
			},
			q: 0.99, wantUs: 990, relTol: 0.15,
		},
		{
			name: "bimodal-p95",
			feed: func(h *Hist) {
				// 90% fast (100µs), 10% slow (10ms): p95 sits in the
				// slow mode.
				for i := 0; i < 900; i++ {
					h.Record(100 * time.Microsecond)
				}
				for i := 0; i < 100; i++ {
					h.Record(10 * time.Millisecond)
				}
			},
			q: 0.95, wantUs: 10000, relTol: 0.5, // within the slow mode's octave
		},
		{
			name: "two-point-p50-low",
			feed: func(h *Hist) {
				for i := 0; i < 60; i++ {
					h.Record(50 * time.Microsecond)
				}
				for i := 0; i < 40; i++ {
					h.Record(800 * time.Microsecond)
				}
			},
			q: 0.50, wantUs: 50, relTol: 1.0, // within the fast bucket's octave
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Hist
			tc.feed(&h)
			got := float64(h.quantile(tc.q)) / float64(time.Microsecond)
			if math.Abs(got-tc.wantUs) > tc.relTol*tc.wantUs {
				t.Fatalf("Quantile(%v) = %vµs, want %vµs ±%.0f%%", tc.q, got, tc.wantUs, 100*tc.relTol)
			}
		})
	}
}

func TestHistQuantileMonotone(t *testing.T) {
	var h Hist
	for i := 1; i <= 500; i++ {
		h.Record(time.Duration(i*i) * time.Microsecond)
	}
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		got := h.quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, got, prev)
		}
		prev = got
	}
	if h.quantile(1) != h.max() {
		t.Fatalf("quantile(1) = %v != Max %v", h.quantile(1), h.max())
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10}, // 1000µs in [512, 1024)
		{time.Second, 20},      // 1e6µs in [2^19, 2^20)
		{time.Hour, 32},        // 3.6e9µs in [2^31, 2^32)
		{time.Duration(1<<39) * time.Microsecond, NumBuckets - 1}, // first clamped value
		{time.Duration(1<<42) * time.Microsecond, NumBuckets - 1}, // deep into the open top
	}
	for _, tc := range cases {
		if got := bucketFor(tc.d); got != tc.want {
			t.Errorf("bucketFor(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	for i := 1; i < NumBuckets; i++ {
		lo, hi := bucketBounds(i)
		plo, phi := bucketBounds(i - 1)
		if lo != phi || hi <= lo || plo >= phi {
			t.Fatalf("bucket %d bounds [%v,%v) do not chain from [%v,%v)", i, lo, hi, plo, phi)
		}
	}
}
