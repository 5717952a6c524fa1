package core

import (
	"fmt"
	"math"
	"sort"
)

// Bins is one feature's drift baseline: the decile edges of its
// training values and how many of those values fall in each of the
// len(Edges)+1 bins (-inf, e0], (e0, e1], …, (eLast, +inf). The live
// drift monitor compares serving traffic against it with the Population
// Stability Index (internal/drift).
type Bins struct {
	Edges  []float64 `json:"edges"`
	Counts []int     `json:"counts"`
}

// Baseline is a model's drift baseline, one Bins per feature in feature
// order. Train bins a subsample of the training vectors into it, and the
// model file carries it, so every replica the model reaches measures
// drift against what the model was trained on.
type Baseline []Bins

// baselineRows caps the training vectors Train bins into a baseline.
const baselineRows = 512

// decileBins bins xs by its own deciles. The edges are the distinct
// interior decile boundaries of xs, preceded by an edge just below its
// minimum: the leading edge gives mass below every baseline value its
// own bin, so a downward shift of a constant or low-cardinality feature
// (the property counts are integers) is visible; for continuous data it
// merely adds a near-empty lowest bin. Ties collapse, so a
// low-cardinality feature gets the bins it supports. xs must not be
// empty.
func decileBins(xs []float64) Bins {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	edges := []float64{sorted[0] - 0.5}
	for d := 1; d < 10; d++ {
		if q := sorted[len(sorted)*d/10]; q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	b := Bins{Edges: edges, Counts: make([]int, len(edges)+1)}
	for _, x := range xs {
		b.Counts[b.Bin(x)]++
	}
	return b
}

// Bin returns the index of the bin x falls in: the first edge ≥ x, so an
// edge value falls in the bin below it.
func (b Bins) Bin(x float64) int { return sort.SearchFloat64s(b.Edges, x) }

// Total returns how many values the bins count.
func (b Bins) Total() int {
	n := 0
	for _, c := range b.Counts {
		n += c
	}
	return n
}

// BinColumns bins every column of rows, each dim wide and at least one
// of them, by its own deciles.
func BinColumns(rows [][]float64, dim int) Baseline {
	out := make(Baseline, dim)
	col := make([]float64, len(rows))
	for j := range out {
		for i, r := range rows {
			col[i] = r[j]
		}
		out[j] = decileBins(col)
	}
	return out
}

// trainingBaseline bins every ⌈n/512⌉-th training vector. A column that
// holds a non-finite value has no usable edges, and then the model gets
// no baseline.
func trainingBaseline(samples []Sample, dim int) Baseline {
	stride := (len(samples) + baselineRows - 1) / baselineRows
	rows := make([][]float64, 0, baselineRows)
	for i := 0; i < len(samples); i += stride {
		rows = append(rows, samples[i].Vector)
	}
	b := BinColumns(rows, dim)
	if b.Validate(dim) != nil {
		return nil
	}
	return b
}

// Validate reports whether b can be measured against for a model with
// dim features: one Bins per feature, finite and strictly ascending
// edges, one non-negative count per bin, and something counted.
func (b Baseline) Validate(dim int) error {
	if len(b) != dim {
		return fmt.Errorf("core: drift baseline has %d features, want %d", len(b), dim)
	}
	for j, bins := range b {
		for i, e := range bins.Edges {
			if math.IsNaN(e) || math.IsInf(e, 0) || (i > 0 && e <= bins.Edges[i-1]) {
				return fmt.Errorf("core: drift baseline feature %d: edges are not finite and strictly ascending", j)
			}
		}
		if len(bins.Counts) != len(bins.Edges)+1 {
			return fmt.Errorf("core: drift baseline feature %d has %d counts for %d edges", j, len(bins.Counts), len(bins.Edges))
		}
		total := 0
		for _, c := range bins.Counts {
			if c < 0 || c > math.MaxInt-total {
				return fmt.Errorf("core: drift baseline feature %d: count %d out of range", j, c)
			}
			total += c
		}
		if total == 0 {
			return fmt.Errorf("core: drift baseline feature %d counts nothing", j)
		}
	}
	return nil
}
