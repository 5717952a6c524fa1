package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the histogram bucket count: bucket 0 holds
// sub-microsecond samples, bucket i (i ≥ 1) holds [2^(i-1), 2^i)
// microseconds, and the last bucket is open-ended. 40 buckets reach
// ~2^39 µs ≈ 6.4 days — effectively unbounded for request latencies.
const NumBuckets = 40

// Hist is a fixed-bucket exponential latency histogram, safe for
// concurrent Record calls from every worker. The exponential layout
// bounds relative quantile error at 2× (one octave), which is plenty
// for a p99 gate whose ceiling sits orders of magnitude above the
// signal. It began life in the loadgen harness; the serving tier now
// records into the same type and exposes it as a Prometheus histogram
// family (see prom.go).
type Hist struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// Record adds one latency observation.
func (h *Hist) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds n observations of the same latency — the frames of one
// coalesced batch, which all waited the batch's wall time — at the cost
// of one. The latency sum is published before the observation count so
// a concurrent reader never divides a sum by more observations than
// contributed to it (the mean/avg-gauge torn-read guard).
func (h *Hist) RecordN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(uint64(n))
	h.sumNs.Add(int64(d) * int64(n))
	h.count.Add(uint64(n))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

func bucketFor(d time.Duration) int {
	return min(bits.Len64(uint64(d/time.Microsecond)), NumBuckets-1)
}

// BucketIndex returns the bucket a latency of us microseconds lands in
// — the exposition-side counterpart of Record's internal bucketing,
// used by loadgen to compare a client-side quantile against the
// server's exported histogram at bucket granularity.
func BucketIndex(us float64) int {
	if us <= 0 {
		return 0
	}
	return bucketFor(time.Duration(math.Ceil(us)) * time.Microsecond)
}

// bucketBounds returns the [lo, hi) microsecond range of a bucket.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// BucketUpperMicros returns the exclusive upper bound of bucket i in
// microseconds; the last bucket reports +Inf (the Prometheus
// exposition's terminal le value).
func BucketUpperMicros(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	_, hi := bucketBounds(i)
	return hi
}

// buckets snapshots the per-bucket counts (non-cumulative). The copy is
// internally consistent enough for exposition: each counter is read
// once, and Family.WriteHistogram derives _count from the same snapshot
// so _bucket/_count never disagree.
func (h *Hist) buckets() [NumBuckets]uint64 {
	var out [NumBuckets]uint64
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.count.Load() }

// sum returns the exact sum of recorded latencies.
func (h *Hist) sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// max returns the exact maximum recorded latency.
func (h *Hist) max() time.Duration { return time.Duration(h.maxNs.Load()) }

// mean returns the exact arithmetic mean latency (0 when empty).
func (h *Hist) mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sumNs.Load()) / n)
}

// quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// holding the target rank and interpolating linearly inside it. The
// estimate for the top bucket is clamped to the exact recorded maximum,
// so quantile(1) == Max. Returns 0 for an empty histogram.
func (h *Hist) quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation (1-based, nearest-rank with a
	// ceiling so quantile(1) lands on the last observation).
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketBounds(i)
		// Clamp the open-ended (or max-holding) top of the estimate to
		// the exact recorded maximum.
		maxUs := float64(h.maxNs.Load()) / float64(time.Microsecond)
		if hi > maxUs {
			hi = maxUs
		}
		if hi < lo {
			hi = lo
		}
		frac := float64(rank-cum) / float64(c)
		us := lo + (hi-lo)*frac
		return time.Duration(us * float64(time.Microsecond))
	}
	return h.max()
}

// Quantiles is the summary the reports carry.
type Quantiles struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summary snapshots the histogram's headline quantiles.
func (h *Hist) Summary() Quantiles {
	return Quantiles{
		Count: h.Count(),
		Mean:  h.mean(),
		P50:   h.quantile(0.50),
		P95:   h.quantile(0.95),
		P99:   h.quantile(0.99),
		Max:   h.max(),
	}
}
