// Package scaler implements the standard (z-score) feature scaler used in
// the Browser Polygraph pre-processing stage (paper §6.4.1): deviation-based
// property counts have widely different magnitudes, so each column is
// centered and divided by its standard deviation before PCA. Binary
// time-based columns can be exempted via Config.Skip, matching the paper's
// note that those "were already in the binary format which was suitable".
package scaler

import (
	"context"
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

// Fit learns per-column mean and standard deviation from m.
func Fit(m *matrix.Dense, cfg Config) (*Standard, error) {
	return FitContext(context.Background(), m, cfg)
}

// FitContext is Fit under a context: a done context refuses to start.
// Fitting is a single cheap column pass, so no further checks occur.
func FitContext(ctx context.Context, m *matrix.Dense, cfg Config) (*Standard, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	r, c := m.Dims()
	if r == 0 || c == 0 {
		return nil, fmt.Errorf("scaler: cannot fit empty %dx%d matrix", r, c)
	}
	if cfg.Skip != nil && len(cfg.Skip) != c {
		return nil, fmt.Errorf("scaler: skip mask has %d entries, want %d", len(cfg.Skip), c)
	}
	s := &Standard{
		Means: m.ColMeans(),
		Stds:  m.ColStds(),
	}
	if cfg.Skip != nil {
		s.skip = append([]bool(nil), cfg.Skip...)
	}
	return s, nil
}

// Cols returns the number of columns the scaler was fitted on.
func (s *Standard) Cols() int { return len(s.Means) }

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
	return s.TransformContext(context.Background(), m)
}

// TransformContext is Transform under a context: a done context refuses
// to start. The transform is one cheap pass over the rows, so no further
// checks occur.
func (s *Standard) TransformContext(ctx context.Context, m *matrix.Dense) (*matrix.Dense, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
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

// Inverse maps a scaled vector back to the original feature space; it is
// used by diagnostics that explain cluster centroids in raw-count terms.
func (s *Standard) Inverse(v []float64) ([]float64, error) {
	if len(v) != len(s.Means) {
		return nil, fmt.Errorf("scaler: inverse on %d entries, fitted on %d", len(v), len(s.Means))
	}
	out := make([]float64, len(v))
	for j, x := range v {
		if s.skip != nil && s.skip[j] {
			out[j] = x
			continue
		}
		sd := s.Stds[j]
		if sd == 0 {
			sd = 1
		}
		out[j] = x*sd + s.Means[j]
	}
	return out, nil
}
