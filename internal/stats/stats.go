// Package stats provides the descriptive statistics used by the paper's
// privacy analysis (§7.4): Shannon entropy and normalized entropy of
// collected attributes (Table 7), anonymity-set analysis of full
// fingerprints (Figure 5), and the normalized standard deviation of a
// feature (§6.1).
package stats

import "math"

// mean returns the arithmetic mean; 0 for empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// std returns the population standard deviation; 0 for fewer than two
// values.
func std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// NormalizedStd returns std/|mean|, the coefficient of variation the paper
// uses to rank deviation-based candidate features ("the normalized
// standard deviation of the selected features ranges from 0.0012 to
// 1.3853", §6.1). A zero mean yields the raw std.
func NormalizedStd(xs []float64) float64 {
	m := math.Abs(mean(xs))
	sd := std(xs)
	if m == 0 {
		return sd
	}
	return sd / m
}

// Entropy returns the Shannon entropy (bits) of the empirical distribution
// of values. Entropy of an empty or single-valued sample is 0.
func Entropy[T comparable](values []T) float64 {
	if len(values) < 2 {
		return 0
	}
	counts := make(map[T]int, 64)
	for _, v := range values {
		counts[v]++
	}
	n := float64(len(values))
	h := 0.0
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// NormalizedEntropy returns Entropy / log2(N) where N is the sample size,
// following Laperdrix et al.'s convention used by the paper's Table 7: it
// expresses how close an attribute comes to uniquely identifying each of
// the N observed sessions (1.0 = every session distinct).
func NormalizedEntropy[T comparable](values []T) float64 {
	if len(values) < 2 {
		return 0
	}
	return Entropy(values) / math.Log2(float64(len(values)))
}

// AnonymityBucket is a histogram bucket over anonymity-set sizes.
type AnonymityBucket struct {
	Label    string  // e.g. "1", "2-10", ">50"
	MinSize  int     // inclusive
	MaxSize  int     // inclusive; math.MaxInt for open-ended
	Percent  float64 // percentage of *fingerprints* (not sets) in the bucket
	Count    int     // number of fingerprints in the bucket
	NumSets  int     // number of distinct fingerprint values in the bucket
	uniqueID int     // reserved; keeps struct comparable-extensible
}

// AnonymitySets groups identical keys and reports, for the paper's
// Figure 5 buckets, what share of observations belong to anonymity sets of
// each size. The default buckets mirror the figure: 1, 2–10, 11–50, >50.
func AnonymitySets[T comparable](keys []T) []AnonymityBucket {
	return anonymitySetsWithBuckets(keys, []AnonymityBucket{
		{Label: "1 (unique)", MinSize: 1, MaxSize: 1},
		{Label: "2-10", MinSize: 2, MaxSize: 10},
		{Label: "11-50", MinSize: 11, MaxSize: 50},
		{Label: ">50", MinSize: 51, MaxSize: math.MaxInt},
	})
}

// anonymitySetsWithBuckets is AnonymitySets with caller-provided buckets.
// Buckets must be disjoint; observations whose set size matches no bucket
// are dropped from the report.
func anonymitySetsWithBuckets[T comparable](keys []T, buckets []AnonymityBucket) []AnonymityBucket {
	out := append([]AnonymityBucket(nil), buckets...)
	if len(keys) == 0 {
		return out
	}
	counts := make(map[T]int, len(keys)/4+1)
	for _, k := range keys {
		counts[k]++
	}
	total := float64(len(keys))
	for _, setSize := range counts {
		for i := range out {
			if setSize >= out[i].MinSize && setSize <= out[i].MaxSize {
				out[i].Count += setSize
				out[i].NumSets++
				break
			}
		}
	}
	for i := range out {
		out[i].Percent = 100 * float64(out[i].Count) / total
	}
	return out
}

// UniqueRate returns the fraction (0–1) of observations whose key appears
// exactly once — the paper's "0.3% of our fingerprints are unique" metric.
func UniqueRate[T comparable](keys []T) float64 {
	if len(keys) == 0 {
		return 0
	}
	counts := make(map[T]int, len(keys)/4+1)
	for _, k := range keys {
		counts[k]++
	}
	unique := 0
	for _, c := range counts {
		if c == 1 {
			unique++
		}
	}
	return float64(unique) / float64(len(keys))
}

// LargeSetRate returns the fraction (0–1) of observations in anonymity
// sets strictly larger than threshold — the paper's "95.6% in sets larger
// than 50".
func LargeSetRate[T comparable](keys []T, threshold int) float64 {
	if len(keys) == 0 {
		return 0
	}
	counts := make(map[T]int, len(keys)/4+1)
	for _, k := range keys {
		counts[k]++
	}
	inLarge := 0
	for _, c := range counts {
		if c > threshold {
			inLarge += c
		}
	}
	return float64(inLarge) / float64(len(keys))
}
