// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the reproduction.
//
// Every dataset, model initialization, and simulation in this repository
// must be bit-reproducible across Go releases and platforms. The standard
// library's math/rand does not guarantee a stable stream across Go
// versions, so we ship our own PCG-XSL-RR 128/64 generator (O'Neill, 2014)
// with a splitmix64 seeding routine. The generator also implements
// rand.Source (Int63) so it can back helpers that expect one.
package rng

import "math/bits"

// PCG is a PCG-XSL-RR 128/64 pseudo-random generator. The zero value is
// not usable; construct with New. PCG is not safe for concurrent use;
// derive per-goroutine generators with Split.
type PCG struct {
	hi, lo uint64 // 128-bit state
}

const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// New returns a generator seeded from seed via splitmix64, so nearby
// seeds still produce uncorrelated streams.
func New(seed uint64) *PCG {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	p := &PCG{hi: next(), lo: next() | 1}
	// Advance a few steps to decorrelate from the seeding constants.
	for i := 0; i < 4; i++ {
		p.Uint64()
	}
	return p
}

// NewString seeds a generator from an arbitrary label using FNV-1a. It is
// used to derive stable sub-streams for named entities ("Chrome", feature
// names, ...) without coordinating integer seed spaces.
func NewString(label string) *PCG {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return New(h)
}

// Split derives an independent generator from the current state and a
// label, leaving the receiver untouched. Two Splits with different labels
// yield uncorrelated streams.
func (p *PCG) Split(label string) *PCG {
	child := NewString(label)
	child.hi ^= p.hi
	child.lo ^= p.lo | 1
	for i := 0; i < 4; i++ {
		child.Uint64()
	}
	return child
}

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PCG) Uint64() uint64 {
	// state = state*mul + inc (128-bit)
	carry, lo := bits.Mul64(p.lo, mulLo)
	hi := p.hi*mulLo + p.lo*mulHi + carry
	lo, c := bits.Add64(lo, incLo, 0)
	hi += incHi + c
	p.hi, p.lo = hi, lo
	// XSL-RR output function.
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// Int63 implements rand.Source.
func (p *PCG) Int63() int64 { return int64(p.Uint64() >> 1) }

// Seed implements rand.Source. It reseeds the generator deterministically.
func (p *PCG) Seed(seed int64) { *p = *New(uint64(seed)) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (p *PCG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	x := p.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = p.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(p.Uint64n(uint64(n)))
}

// IntRange returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (p *PCG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + p.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability prob.
func (p *PCG) Bool(prob float64) bool { return p.Float64() < prob }

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. The method consumes a variable number of uniforms but needs no
// cached state, keeping Split semantics simple.
func (p *PCG) NormFloat64() float64 {
	for {
		u := 2*p.Float64() - 1
		v := 2*p.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * sqrt(-2*ln(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	p.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}
