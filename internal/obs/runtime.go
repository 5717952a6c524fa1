package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
)

// Runtime self-telemetry: a collector over the runtime/metrics package
// exported as linted Prometheus families on the same scrape as the
// serving metrics. The point is that "the daemon is melting" — GC pause
// spikes, a heap racing its goal, a goroutine leak, scheduler
// starvation — is observable from the exposition the operator already
// reads, instead of requiring a pprof session on a sick box.

// runtimeFamilies pairs each runtime/metrics key the collector reads
// with the family it is exported as.
var runtimeFamilies = []struct {
	key string
	fam *Family
}{
	{"/sched/goroutines:goroutines", FamGoroutines},
	{"/memory/classes/heap/objects:bytes", FamHeapLive},
	{"/gc/heap/goal:bytes", FamHeapGoal},
	{"/gc/cycles/total:gc-cycles", FamGCCycles},
	{"/gc/pauses:seconds", FamGCPause},
	{"/sched/latencies:seconds", FamSchedLatency},
}

// maxRuntimeBuckets caps the exported bucket count of a runtime
// histogram. The runtime's native histograms carry hundreds of fine
// buckets; coalescing adjacent ones keeps the exposition scrape-sized
// while preserving the distribution's shape.
const maxRuntimeBuckets = 32

// WriteRuntimeMetrics emits the Go runtime self-telemetry families:
// goroutine count, live heap vs GC goal, GC cycle counter, and the GC
// pause and scheduler latency histograms. Metrics the running toolchain
// does not support are skipped rather than emitted as zeros.
func WriteRuntimeMetrics(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeFamilies))
	for i, rf := range runtimeFamilies {
		samples[i].Name = rf.key
	}
	metrics.Read(samples)
	for i, rf := range runtimeFamilies {
		if rf.fam.Type == "histogram" {
			writeRuntimeHistogram(w, samples[i], rf.fam)
		} else {
			writeRuntimeValue(w, samples[i], rf.fam)
		}
	}
}

// writeRuntimeValue emits one scalar runtime sample, skipping values the
// toolchain reports as unsupported.
func writeRuntimeValue(w io.Writer, s metrics.Sample, f *Family) {
	var v float64
	switch s.Value.Kind() {
	case metrics.KindUint64:
		v = float64(s.Value.Uint64())
	case metrics.KindFloat64:
		v = s.Value.Float64()
	default:
		return
	}
	f.Write(w, v)
}

// writeRuntimeHistogram converts a runtime Float64Histogram into a
// Prometheus histogram family. Buckets are coalesced down to at most
// maxRuntimeBuckets strictly increasing upper bounds, terminated by
// +Inf. The runtime does not track an exact sum, so _sum is
// approximated from bucket midpoints (using the finite edge for
// unbounded buckets), which is the usual trade for re-exporting
// pre-bucketed data.
func writeRuntimeHistogram(w io.Writer, s metrics.Sample, f *Family) {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := s.Value.Float64Histogram()
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return
	}
	stride := (len(h.Counts) + maxRuntimeBuckets - 1) / maxRuntimeBuckets
	if stride < 1 {
		stride = 1
	}

	f.header(w)
	name := f.Name
	var cum uint64
	var sum float64
	sawInf := false
	for i, c := range h.Counts {
		cum += c
		if c > 0 {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			if math.IsInf(lo, -1) {
				mid = hi
			} else if math.IsInf(hi, 1) {
				mid = lo
			}
			sum += float64(c) * mid
		}
		// Emit every stride-th boundary, plus always the final one.
		if (i+1)%stride != 0 && i != len(h.Counts)-1 {
			continue
		}
		le := h.Buckets[i+1]
		if math.IsInf(le, 1) {
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			sawInf = true
		} else {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, cum)
		}
	}
	if !sawInf {
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
