package drift

import (
	"fmt"
	"math"
	"sort"

	"polygraph/internal/core"
)

// Feature-level drift monitoring via the Population Stability Index.
// §6.6 describes the module as one that "actively identifies shifts in
// data patterns or browser behavior": the cluster-based check catches
// behaviour shifts of *new releases*; the PSI monitor catches
// distribution shifts of *individual features* across the whole traffic
// (e.g. a config option going mainstream, an extension wave), which can
// degrade the model before any single release misbehaves.

// PSI thresholds conventional in production model monitoring.
const (
	// PSIWatch marks a feature worth watching (0.1–0.25).
	PSIWatch = 0.10
	// PSIAlert marks a materially shifted feature (> 0.25).
	PSIAlert = 0.25
)

// PSIResult reports one feature's stability.
type PSIResult struct {
	Feature string
	PSI     float64
	// Status is "stable", "watch", or "alert".
	Status string
}

// minPSISamples is the fewest values PSI compares on either side.
const minPSISamples = 10

// binnedPSI is the one PSI loop: current is counted into the baseline's
// bins, and both distributions are Laplace-smoothed so empty bins do not
// produce infinities.
func binnedPSI(b core.Bins, current []float64) (float64, error) {
	total := b.Total()
	if total < minPSISamples || len(current) < minPSISamples {
		return 0, fmt.Errorf("drift: PSI needs ≥%d samples per side, have %d/%d", minPSISamples, total, len(current))
	}
	nBins := len(b.Counts)
	cur := make([]int, nBins)
	for _, x := range current {
		cur[b.Bin(x)]++
	}
	psi := 0.0
	nB := float64(total + nBins) // +1 smoothing mass
	nC := float64(len(current) + nBins)
	for i := 0; i < nBins; i++ {
		pb := (float64(b.Counts[i]) + 1) / nB
		pc := (float64(cur[i]) + 1) / nC
		psi += (pc - pb) * math.Log(pc/pb)
	}
	return psi, nil
}

// FeaturePSI computes the PSI of every column between a baseline and a
// current sample, given as per-row vectors plus feature names: the
// baseline rows are binned (core.BinColumns) and measured as
// BaselinePSI measures them. Results are sorted by PSI descending.
func FeaturePSI(names []string, baseline, current [][]float64) ([]PSIResult, error) {
	if len(baseline) == 0 || len(current) == 0 {
		return nil, fmt.Errorf("drift: empty PSI input")
	}
	dim := len(names)
	for i, r := range baseline {
		if len(r) != dim {
			return nil, fmt.Errorf("drift: baseline row %d has %d features, want %d", i, len(r), dim)
		}
	}
	return BaselinePSI(names, core.BinColumns(baseline, dim), current)
}

// BaselinePSI computes the PSI of every column of current against a
// binned baseline (one core.Bins per name). Results are sorted by PSI
// descending.
func BaselinePSI(names []string, baseline core.Baseline, current [][]float64) ([]PSIResult, error) {
	dim := len(names)
	if len(baseline) != dim {
		return nil, fmt.Errorf("drift: baseline has %d features, want %d", len(baseline), dim)
	}
	for i, r := range current {
		if len(r) != dim {
			return nil, fmt.Errorf("drift: current row %d has %d features, want %d", i, len(r), dim)
		}
	}
	out := make([]PSIResult, 0, dim)
	col := make([]float64, len(current))
	for j := 0; j < dim; j++ {
		for i, r := range current {
			col[i] = r[j]
		}
		psi, err := binnedPSI(baseline[j], col)
		if err != nil {
			return nil, fmt.Errorf("drift: feature %s: %w", names[j], err)
		}
		status := "stable"
		switch {
		case psi > PSIAlert:
			status = "alert"
		case psi > PSIWatch:
			status = "watch"
		}
		out = append(out, PSIResult{Feature: names[j], PSI: psi, Status: status})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PSI != out[j].PSI {
			return out[i].PSI > out[j].PSI
		}
		return out[i].Feature < out[j].Feature
	})
	return out, nil
}

// AnyAlert reports whether any feature crossed the alert threshold.
func AnyAlert(results []PSIResult) bool {
	for _, r := range results {
		if r.Status == "alert" {
			return true
		}
	}
	return false
}
