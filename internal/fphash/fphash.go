// Package fphash hashes a fingerprint — a claimed user-agent and a
// feature vector, taken bit for bit, or the class bytes of the binary
// payload that carried them — for the in-memory tables keyed by one:
// the verdict memo on a score plan (internal/core), and an audit
// segment's class table and audit.Resolver's derivations (internal/audit).
// A Hasher is seeded when it is made, so the slots of a table cannot be
// aimed at from outside; a table compares the whole key on a hit.
package fphash

import (
	"hash/maphash"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Hasher hashes under one random seed.
type Hasher struct {
	seed   maphash.Seed
	secret [2]uint64
}

// New returns a Hasher with a fresh random seed.
func New() Hasher {
	return Hasher{seed: maphash.MakeSeed(), secret: [2]uint64{rand.Uint64(), rand.Uint64()}}
}

// Pair hashes (vector, userAgent): the user-agent through maphash, then
// the vector's bits folded in two words per 128-bit multiply (wyhash's
// step) in two lanes.
func (h Hasher) Pair(vector []float64, userAgent string) uint64 {
	s0, s1 := h.secret[0], h.secret[1]
	a := maphash.String(h.seed, userAgent)
	b := a ^ s1
	for ; len(vector) >= 4; vector = vector[4:] {
		a = mum(math.Float64bits(vector[0])^s0, math.Float64bits(vector[1])^a)
		b = mum(math.Float64bits(vector[2])^s1, math.Float64bits(vector[3])^b)
	}
	for _, x := range vector {
		a = mum(math.Float64bits(x)^s0, a^s1)
	}
	return mum(a^s1, b^s0)
}

// String hashes s.
func (h Hasher) String(s string) uint64 { return maphash.String(h.seed, s) }

// Bytes hashes b: a binary payload's class bytes, for the verdict memo's
// frame form.
func (h Hasher) Bytes(b []byte) uint64 { return maphash.Bytes(h.seed, b) }

// Mix folds the word x into the hash a.
func (h Hasher) Mix(a, x uint64) uint64 { return mum(x^h.secret[0], a^h.secret[1]) }

func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
