package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Prometheus text-exposition (version 0.0.4) writers, one method per
// series shape on the declared Family (families.go). Stdlib only: the
// format is plain text, and every value already lives on an atomic
// counter somewhere. The collect server composes its /metrics page from
// these; Lint (lint.go) checks the result in CI.

// header emits the family's HELP and TYPE lines.
func (f *Family) header(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
}

// Write emits an unlabeled family with one value.
func (f *Family) Write(w io.Writer, value float64) {
	f.header(w)
	fmt.Fprintf(w, "%s %g\n", f.Name, value)
}

// LabeledValue is one series of a single-label family.
type LabeledValue struct {
	Label string
	Value float64
}

// WriteSeries emits a family whose series differ only in the value of
// its one label. Nothing is written for no series.
func (f *Family) WriteSeries(w io.Writer, series []LabeledValue) {
	if len(series) == 0 {
		return
	}
	f.header(w)
	for _, s := range series {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %g\n", f.Name, f.Labels[0], EscapeLabel(s.Label), s.Value)
	}
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// EscapeLabel escapes a label value per the exposition format.
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }

// HistogramSeries is one labeled series of a histogram family: a
// snapshot of per-bucket (non-cumulative) counts plus the exact latency
// sum, both in the family's microsecond unit.
type HistogramSeries struct {
	Label   string
	Buckets [NumBuckets]uint64
	SumUs   float64
}

// HistogramSnapshot captures the sum of hs — one histogram, or the
// shards of one — for exposition. The _count emitted later derives from
// this same bucket snapshot, so _bucket and _count stay mutually
// consistent even while Record calls race the scrape. The latency sum is
// added in nanoseconds and converted once, so a sharded series prints
// what one histogram holding every observation would.
func HistogramSnapshot(label string, hs ...*Hist) HistogramSeries {
	s := HistogramSeries{Label: label}
	var sum time.Duration
	for _, h := range hs {
		for i, c := range h.Buckets() {
			s.Buckets[i] += c
		}
		sum += h.Sum()
	}
	s.SumUs = float64(sum.Nanoseconds()) / 1e3
	return s
}

// WriteHistogram emits a histogram family — cumulative _bucket series
// with a terminal le="+Inf", then _sum and _count — one series set per
// value of its one label. Bucket upper bounds are the histogram's
// power-of-two microsecond boundaries. Nothing is written for no series.
func (f *Family) WriteHistogram(w io.Writer, series []HistogramSeries) {
	if len(series) == 0 {
		return
	}
	f.header(w)
	name, label := f.Name, f.Labels[0]
	for _, s := range series {
		lv := EscapeLabel(s.Label)
		var cum uint64
		for i := 0; i < NumBuckets; i++ {
			cum += s.Buckets[i]
			le := "+Inf"
			if i < NumBuckets-1 {
				le = fmt.Sprintf("%g", BucketUpperMicros(i))
			}
			fmt.Fprintf(w, "%s_bucket{%s=\"%s\",le=\"%s\"} %d\n", name, label, lv, le, cum)
		}
		fmt.Fprintf(w, "%s_sum{%s=\"%s\"} %g\n", name, label, lv, s.SumUs)
		fmt.Fprintf(w, "%s_count{%s=\"%s\"} %d\n", name, label, lv, cum)
	}
}

// MultiSeries is one series of a multi-label family: a value for each
// of the family's labels, in declaration order.
type MultiSeries struct {
	Values []string
	Value  float64
}

// WriteMulti emits a family whose series carry several labels — the
// shape of info gauges like the fleet's per-replica model-hash series.
// Nothing is written for no series.
func (f *Family) WriteMulti(w io.Writer, series []MultiSeries) {
	if len(series) == 0 {
		return
	}
	f.header(w)
	for _, s := range series {
		var b strings.Builder
		for i, v := range s.Values {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=\"%s\"", f.Labels[i], EscapeLabel(v))
		}
		fmt.Fprintf(w, "%s{%s} %g\n", f.Name, b.String(), s.Value)
	}
}

// VersionInfo is the build metadata behind WriteBuildInfo and the
// -version flag every cmd/* binary carries.
type VersionInfo struct {
	App       string
	GoVersion string
	// Revision is the VCS commit the binary was built from ("" when the
	// build carried no VCS stamp, e.g. `go run` from a dirty tree).
	Revision string
	// Modified marks a build from a locally modified tree.
	Modified bool
}

// Version resolves the running binary's build metadata.
func Version(app string) VersionInfo {
	v := VersionInfo{App: app, GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				v.Revision = s.Value
			case "vcs.modified":
				v.Modified = s.Value == "true"
			}
		}
	}
	return v
}

// String renders the one-line -version output.
func (v VersionInfo) String() string {
	rev := v.Revision
	if rev == "" {
		rev = "unknown"
	} else if len(rev) > 12 {
		rev = rev[:12]
	}
	s := fmt.Sprintf("%s %s rev %s", v.App, v.GoVersion, rev)
	if v.Modified {
		s += " (modified)"
	}
	return s
}

// processStart pins one start instant for the whole process, so every
// exposition (and every replica sharing the process in tests or fleet
// mode) reports uptime against the same epoch.
var processStart = time.Now()

// ProcessStart returns the instant the process (package) initialized.
func ProcessStart() time.Time { return processStart }

// WriteBuildInfo emits polygraph_build_info{go_version="...",
// revision="..."} 1 so dashboards can detect mixed builds across a
// fleet, plus the process start timestamp and an uptime gauge so
// `polygraphctl status` and the SLO engine can tell a freshly restarted
// replica from a long-lived one.
func WriteBuildInfo(w io.Writer) {
	v := Version("polygraph")
	FamBuildInfo.WriteMulti(w, []MultiSeries{{Values: []string{v.GoVersion, v.Revision}, Value: 1}})
	FamProcessStart.Write(w, float64(processStart.UnixNano())/1e9)
	FamUptime.Write(w, time.Since(processStart).Seconds())
}
