// Package scaler implements the standard (z-score) feature scaler used in
// the Browser Polygraph pre-processing stage (paper §6.4.1): deviation-based
// property counts have widely different magnitudes, so each column is
// centered and divided by its standard deviation before PCA. Binary
// time-based columns can be exempted via Config.Skip, matching the paper's
// note that those "were already in the binary format which was suitable".
package scaler

import (
	"fmt"

	"polygraph/internal/matrix"
)

// Standard is a fitted standard scaler. Construct with Fit; the zero value
// transforms nothing and rejects all input.
type Standard struct {
	Means []float64
	Stds  []float64 // 0 entries are treated as 1 at transform time
	skip  []bool
}

// Config adjusts fitting behaviour.
type Config struct {
	// Skip marks columns to pass through untouched (e.g. binary
	// time-based features). Nil means scale every column. If non-nil,
	// its length must equal the column count.
	Skip []bool
}

// Fit learns per-column mean and standard deviation from the rows of m,
// through their grouping (see FitGroups).
func Fit(m *matrix.Dense, cfg Config) (*Standard, error) {
	return FitGroups(m.DistinctRows(), cfg)
}

// FitGroups learns the moments of the grouped rows: count-weighted sums
// over the distinct-row table.
func FitGroups(rows matrix.RowGroups, cfg Config) (*Standard, error) {
	r, c := rows.Dims()
	if r == 0 || c == 0 {
		return nil, fmt.Errorf("scaler: cannot fit empty %dx%d matrix", r, c)
	}
	if cfg.Skip != nil && len(cfg.Skip) != c {
		return nil, fmt.Errorf("scaler: skip mask has %d entries, want %d", len(cfg.Skip), c)
	}
	s := &Standard{
		Means: rows.ColMeans(),
		Stds:  rows.ColStds(),
	}
	if cfg.Skip != nil {
		s.skip = append([]bool(nil), cfg.Skip...)
	}
	return s, nil
}

// Skip returns a copy of the pass-through mask, or nil when every column
// is scaled.
func (s *Standard) Skip() []bool {
	if s.skip == nil {
		return nil
	}
	return append([]bool(nil), s.skip...)
}

// SetSkip replaces the pass-through mask; used when reloading a serialized
// model. A nil mask scales every column.
func (s *Standard) SetSkip(mask []bool) error {
	if mask != nil && len(mask) != len(s.Means) {
		return fmt.Errorf("scaler: skip mask has %d entries, want %d", len(mask), len(s.Means))
	}
	if mask == nil {
		s.skip = nil
		return nil
	}
	s.skip = append([]bool(nil), mask...)
	return nil
}

// Transform returns a scaled copy of m. Constant columns (std 0) are only
// centered, never divided, so they map to exactly zero rather than NaN.
func (s *Standard) Transform(m *matrix.Dense) (*matrix.Dense, error) {
	r, c := m.Dims()
	if c != len(s.Means) {
		return nil, fmt.Errorf("scaler: transform on %d columns, fitted on %d", c, len(s.Means))
	}
	out := matrix.NewDense(r, c)
	for i := 0; i < r; i++ {
		s.transformInto(m.RawRow(i), out.RawRow(i))
	}
	return out, nil
}

// TransformVec scales a single row in place-free fashion, returning a new
// slice. It is the hot path for online scoring.
func (s *Standard) TransformVec(v []float64) ([]float64, error) {
	if len(v) != len(s.Means) {
		return nil, fmt.Errorf("scaler: vector has %d entries, fitted on %d", len(v), len(s.Means))
	}
	out := make([]float64, len(v))
	s.transformInto(v, out)
	return out, nil
}

// TransformVecInto scales src into dst, which must have the fitted width.
// It performs no allocation, for latency-critical scoring paths.
func (s *Standard) TransformVecInto(src, dst []float64) error {
	if len(src) != len(s.Means) || len(dst) != len(s.Means) {
		return fmt.Errorf("scaler: TransformVecInto with src %d dst %d, fitted on %d",
			len(src), len(dst), len(s.Means))
	}
	s.transformInto(src, dst)
	return nil
}

func (s *Standard) transformInto(src, dst []float64) {
	if s.skip == nil {
		// No pass-through mask: drop the per-element branch; the
		// arithmetic is unchanged, so results stay bit-identical.
		for j, v := range src {
			d := v - s.Means[j]
			if sd := s.Stds[j]; sd > 0 {
				d /= sd
			}
			dst[j] = d
		}
		return
	}
	for j, v := range src {
		if s.skip[j] {
			dst[j] = v
			continue
		}
		d := v - s.Means[j]
		if sd := s.Stds[j]; sd > 0 {
			d /= sd
		}
		dst[j] = d
	}
}
