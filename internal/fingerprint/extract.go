package fingerprint

import (
	"sync"

	"polygraph/internal/browser"
	"polygraph/internal/matrix"
	"polygraph/internal/ua"
)

// Extractor evaluates a feature list against browser profiles. Extraction
// of unmodified profiles is memoized per (release, OS): the traffic
// generator produces hundreds of thousands of sessions that share a few
// hundred base fingerprints, exactly like the production traffic the
// paper describes (96% of same-UA sessions had identical fingerprints).
type Extractor struct {
	oracle   *browser.Oracle
	features []Feature

	mu    sync.RWMutex
	cache map[cacheKey][]float64
}

type cacheKey struct {
	rel ua.Release
	os  ua.OS
}

// NewExtractor builds an extractor over the given features. The feature
// slice is copied.
func NewExtractor(o *browser.Oracle, feats []Feature) *Extractor {
	return &Extractor{
		oracle:   o,
		features: append([]Feature(nil), feats...),
		cache:    make(map[cacheKey][]float64, 256),
	}
}

// Features returns the extractor's feature list (shared slice; callers
// must not mutate).
func (e *Extractor) Features() []Feature { return e.features }

// Extract returns the feature vector of a profile. The returned slice is
// owned by the caller.
func (e *Extractor) Extract(p browser.Profile) []float64 {
	if len(p.Mods) == 0 {
		key := cacheKey{rel: p.Release, os: p.OS}
		e.mu.RLock()
		v, ok := e.cache[key]
		e.mu.RUnlock()
		if !ok {
			v = e.compute(p)
			e.mu.Lock()
			e.cache[key] = v
			e.mu.Unlock()
		}
		out := make([]float64, len(v))
		copy(out, v)
		return out
	}
	return e.compute(p)
}

// ExtractInto writes the feature vector of a profile into dst, which must
// have length Dim. It allocates nothing for cached profiles.
func (e *Extractor) ExtractInto(p browser.Profile, dst []float64) {
	if len(dst) != len(e.features) {
		panic("fingerprint: ExtractInto destination has wrong length")
	}
	if len(p.Mods) == 0 {
		key := cacheKey{rel: p.Release, os: p.OS}
		e.mu.RLock()
		v, ok := e.cache[key]
		e.mu.RUnlock()
		if ok {
			copy(dst, v)
			return
		}
		v = e.compute(p)
		e.mu.Lock()
		e.cache[key] = v
		e.mu.Unlock()
		copy(dst, v)
		return
	}
	e.computeInto(p, dst)
}

func (e *Extractor) compute(p browser.Profile) []float64 {
	out := make([]float64, len(e.features))
	e.computeInto(p, out)
	return out
}

func (e *Extractor) computeInto(p browser.Profile, dst []float64) {
	for i, f := range e.features {
		switch f.Kind {
		case DeviationBased:
			dst[i] = float64(p.PropertyCount(e.oracle, f.Proto))
		case TimeBased:
			if p.HasProperty(e.oracle, f.Proto, f.Prop) {
				dst[i] = 1
			} else {
				dst[i] = 0
			}
		}
	}
}

// Matrix extracts every profile into a rows×dim matrix.
func (e *Extractor) Matrix(profiles []browser.Profile) *matrix.Dense {
	m := matrix.NewDense(len(profiles), len(e.features))
	for i, p := range profiles {
		e.ExtractInto(p, m.RawRow(i))
	}
	return m
}
