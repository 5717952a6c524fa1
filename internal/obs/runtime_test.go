package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestWriteRuntimeMetricsLintsClean(t *testing.T) {
	runtime.GC() // at least one cycle so the pause histogram is populated
	var b strings.Builder
	WriteRuntimeMetrics(&b)
	// Every family the collector reads must be on the page.
	var names []string
	for _, rf := range runtimeFamilies {
		names = append(names, rf.fam.Name)
	}
	problems, err := Lint(strings.NewReader(b.String()), names...)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, p := range problems {
		t.Errorf("runtime telemetry lints dirty: %s", p)
	}
}

func TestWriteRuntimeMetricsValues(t *testing.T) {
	runtime.GC()
	var b strings.Builder
	WriteRuntimeMetrics(&b)
	ex := ParseExpositionString(b.String())

	if g, err := ex.Value("polygraph_go_goroutines"); err != nil || g < 1 {
		t.Fatalf("goroutines = %v, %v; want >= 1", g, err)
	}
	if v, err := ex.Value("polygraph_go_heap_live_bytes"); err != nil || v <= 0 {
		t.Fatalf("heap live = %v, %v; want > 0", v, err)
	}
	if v, err := ex.Value("polygraph_go_gc_cycles_total"); err != nil || v < 1 {
		t.Fatalf("gc cycles = %v, %v; want >= 1 after runtime.GC", v, err)
	}

	// The coalesced histograms must stay scrape-sized: at most
	// maxRuntimeBuckets boundaries plus the +Inf terminal.
	for _, fam := range []string{"polygraph_go_gc_pause_seconds", "polygraph_go_sched_latency_seconds"} {
		bkts := ex.Samples(fam + "_bucket")
		if len(bkts) == 0 {
			t.Fatalf("%s: no bucket samples", fam)
		}
		if len(bkts) > maxRuntimeBuckets+1 {
			t.Fatalf("%s: %d buckets exported, cap is %d+1", fam, len(bkts), maxRuntimeBuckets)
		}
		if bkts[len(bkts)-1].Label("le") != "+Inf" {
			t.Fatalf("%s: terminal bucket le=%q, want +Inf", fam, bkts[len(bkts)-1].Label("le"))
		}
	}
}

func TestWriteBuildInfoUptime(t *testing.T) {
	var b strings.Builder
	WriteBuildInfo(&b)
	ex := ParseExpositionString(b.String())
	up, err := ex.Value("polygraph_uptime_seconds")
	if err != nil || up < 0 {
		t.Fatalf("uptime = %v, %v; want >= 0", up, err)
	}
	start, err := ex.Value("polygraph_process_start_timestamp_seconds")
	if err != nil {
		t.Fatalf("start timestamp: %v", err)
	}
	now := float64(time.Now().UnixNano()) / 1e9
	if start <= 0 || start > now {
		t.Fatalf("process start %v outside (0, now=%v]", start, now)
	}
}

func TestExpositionHistogramBounds(t *testing.T) {
	var b strings.Builder
	series := []HistogramSeries{{Label: "/v1/collect", SumUs: 10}}
	series[0].Buckets[3] = 2 // [4,8) µs
	series[0].Buckets[12] = 1
	FamScoreDuration.WriteHistogram(&b, series)
	ex := ParseExpositionString(b.String())

	got := ex.Histogram("polygraph_score_duration_microseconds", "endpoint")["/v1/collect"]
	if len(got) != NumBuckets {
		t.Fatalf("parsed %d buckets, want %d", len(got), NumBuckets)
	}
	if !math.IsInf(got[len(got)-1].Le, 1) {
		t.Fatalf("terminal le = %v, want +Inf", got[len(got)-1].Le)
	}
	if got[len(got)-1].Cum != 3 {
		t.Fatalf("terminal cum = %v, want 3", got[len(got)-1].Cum)
	}
	// Bucket index 3 has upper bound 2^3 = 8µs; cumulative count there
	// must already include both sub-8µs observations.
	var at8 float64
	for _, bk := range got {
		if bk.Le == 8 {
			at8 = bk.Cum
		}
	}
	if at8 != 2 {
		t.Fatalf("cum at le=8 = %v, want 2", at8)
	}
	// Absent label or family returns empty.
	if m := ex.Histogram("polygraph_score_duration_microseconds", "nope"); len(m) != 0 {
		t.Fatalf("unexpected series for bogus label: %v", m)
	}
	if m := ex.Histogram("polygraph_nope", "endpoint"); len(m) != 0 {
		t.Fatalf("unexpected series for bogus family: %v", m)
	}
}
