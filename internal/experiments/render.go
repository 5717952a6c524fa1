package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"polygraph/internal/core"
	"polygraph/internal/drift"
)

// The renderers print each experiment in a layout matching the paper's
// tables, for cmd/reproduce and EXPERIMENTS.md.

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// RenderStageTimings prints the per-stage wall times and row counts of a
// training run (TrainReport.Stages).
func RenderStageTimings(w io.Writer, stages []core.StageTiming) {
	if len(stages) == 0 {
		return
	}
	var total time.Duration
	for _, st := range stages {
		total += st.Duration
	}
	fmt.Fprintf(w, "%-16s %10s %10s %10s\n", "train stage", "time", "rows in", "rows out")
	for _, st := range stages {
		fmt.Fprintf(w, "%-16s %10v %10d %10d\n",
			st.Name, st.Duration.Round(time.Millisecond/10), st.RowsIn, st.RowsOut)
	}
	fmt.Fprintf(w, "%-16s %10v\n", "total", total.Round(time.Millisecond/10))
}

// RenderTable2 prints the performance comparison.
func RenderTable2(w io.Writer, rows []Table2Row) {
	header(w, "Table 2: time and storage requirements")
	fmt.Fprintf(w, "%-20s %16s %14s %12s %10s\n", "Tool", "measured/collect", "storage", "paper time", "paper size")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %16v %13dB %12s %10s\n",
			r.Tool, r.MeasuredCollect, r.StorageBytes, r.PaperServiceTime, r.PaperStorage)
	}
}

// RenderClusterTable prints Table 3 / Table 9 style cluster tables.
func RenderClusterTable(w io.Writer, title string, rows []core.ClusterRow) {
	header(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%2d | %s\n", r.Cluster, r.UserAgents)
	}
}

// RenderTable4 prints the tag-enrichment table.
func RenderTable4(w io.Writer, rows []Table4Row) {
	header(w, "Table 4: tag rates per category")
	fmt.Fprintf(w, "%-48s %9s %8s %8s %7s\n", "Category", "sessions", "IP%", "Cookie%", "ATO%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-48s %9d %8.1f %8.1f %7.2f\n",
			r.Category, r.Sessions, r.IPPct, r.CookiePct, r.ATOPct)
	}
}

// RenderTable5 prints the fraud-browser detection table.
func RenderTable5(w io.Writer, rows []Table5Row) {
	header(w, "Table 5: fraud browsers' detection")
	fmt.Fprintf(w, "%-22s %8s %12s %10s %7s\n", "Browser", "flagged", "not-flagged", "avg risk", "recall")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12d %10.2f %6.0f%%\n",
			r.Browser, r.Flagged, r.NotFlagged, r.AvgRisk, 100*r.Recall)
	}
}

// RenderTable6 prints the drift analysis.
func RenderTable6(w io.Writer, res *Table6Result) {
	header(w, "Table 6: drift analysis (late-July to October)")
	fmt.Fprintf(w, "%-14s %7s %8s %9s %8s\n", "Browser", "date", "cluster", "accuracy", "retrain")
	for _, ev := range res.Evaluations {
		fmt.Fprintf(w, "%-14s %7s %8d %8.2f%% %8v\n",
			ev.Release, ev.Date, ev.Cluster, 100*ev.Accuracy, ev.Retrain)
	}
	if res.RetrainDate != "" {
		fmt.Fprintf(w, "retraining signaled on %s\n", res.RetrainDate)
	} else {
		fmt.Fprintln(w, "no retraining signaled in the window")
	}
}

// RenderTable7 prints the entropy table.
func RenderTable7(w io.Writer, rows []EntropyRow) {
	header(w, "Table 7: entropy of selected features")
	fmt.Fprintf(w, "%-74s %8s %11s\n", "Feature", "entropy", "normalized")
	for _, r := range rows {
		fmt.Fprintf(w, "%-74s %8.2f %11.3f\n", r.Feature, r.Entropy, r.Normalized)
	}
}

// RenderSweep prints Table 10/11 style parameter sweeps.
func RenderSweep(w io.Writer, title, param string, rows []SweepPoint) {
	header(w, title)
	fmt.Fprintf(w, "%-12s %10s\n", param, "accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %9.2f%%\n", r.Param, 100*r.Accuracy)
	}
}

// RenderTable12 prints the feature-count sensitivity table.
func RenderTable12(w io.Writer, rows []Table12Row) {
	header(w, "Table 12: sensitivity to feature count")
	fmt.Fprintf(w, "%-9s %5s %4s %9s  %s\n", "features", "PCA", "k", "accuracy", "added")
	for _, r := range rows {
		added := strings.Join(r.Added, ", ")
		if added == "" {
			added = "(Table 8 base set)"
		}
		fmt.Fprintf(w, "%-9d %5d %4d %8.2f%%  %s\n", r.Features, r.PCA, r.K, 100*r.Accuracy, added)
	}
}

// RenderTable13 prints an Appendix-5 comparison (Table 13 or 14).
func RenderTable13(w io.Writer, title string, rows []Table13Row) {
	header(w, title)
	fmt.Fprintf(w, "%-20s %6s %9s %5s %4s %9s\n", "Technique", "rows", "features", "PCA", "k", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %6d %9d %5d %4d %8.2f%%\n",
			r.Technique, r.Rows, r.Features, r.PCA, r.K, 100*r.Accuracy)
	}
}

// RenderFigure prints a figure series as an ASCII table plus bar sketch.
func RenderFigure(w io.Writer, title, xLabel, yLabel string, points []FigurePoint, yScale float64) {
	header(w, title)
	fmt.Fprintf(w, "%-8s %-12s\n", xLabel, yLabel)
	maxY := 0.0
	for _, p := range points {
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	for _, p := range points {
		barLen := 0
		if maxY > 0 {
			barLen = int(40 * p.Y / maxY)
		}
		fmt.Fprintf(w, "%-8d %-12.4f %s\n", p.X, p.Y*yScale, strings.Repeat("#", barLen))
	}
}

// RenderFigure5 prints the anonymity-set distribution.
func RenderFigure5(w io.Writer, res Figure5Result) {
	header(w, "Figure 5: fingerprints per anonymity-set size")
	for _, b := range res.Buckets {
		fmt.Fprintf(w, "%-12s %7.2f%% (%d fingerprints)\n", b.Label, b.Percent, b.Count)
	}
	fmt.Fprintf(w, "unique fingerprints: %.2f%% (paper: 0.3%%)\n", 100*res.UniqueRate)
	fmt.Fprintf(w, "in sets >50:         %.2f%% (paper: 95.6%%)\n", 100*res.LargeSetRate)
}

// RenderDriftEvaluations prints raw drift rows (used by the CLI).
func RenderDriftEvaluations(w io.Writer, evs []drift.Evaluation) {
	for _, ev := range evs {
		status := "ok"
		if ev.Retrain {
			status = "RETRAIN: " + ev.Reason
		}
		fmt.Fprintf(w, "%-14s cluster=%d accuracy=%.2f%% sessions=%d %s\n",
			ev.Release, ev.Cluster, 100*ev.Accuracy, ev.Sessions, status)
	}
}

// RenderAblations prints the ablation comparison.
func RenderAblations(w io.Writer, rows []AblationRow) {
	header(w, "Ablations")
	fmt.Fprintf(w, "%-24s %9s %8s  %s\n", "Variant", "accuracy", "flagged", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8.2f%% %8d  %s\n", r.Name, 100*r.Accuracy, r.Flagged, r.Note)
	}
}

// RenderDivisorSweep prints the Algorithm 1 divisor ablation.
func RenderDivisorSweep(w io.Writer, rows []DivisorSweepRow) {
	header(w, "Algorithm 1 divisor sweep")
	fmt.Fprintf(w, "%-8s %6s %6s %9s\n", "divisor", "rf>1", "rf>4", "avg risk")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %6d %6d %9.2f\n", r.Divisor, r.RF1, r.RF4, r.AvgRisk)
	}
}
