// Package fphash hashes class bytes — a fingerprint's user agent and
// values as the binary payload carries them
// (fingerprint.AppendVectorClass) — for the in-memory tables keyed by a
// class: the verdict memo on a score
// plan (internal/core), and an audit segment's class table and
// audit.Resolver's derivations (internal/audit). A Hasher is seeded when
// it is made, so the slots of a table cannot be aimed at from outside; a
// table compares the whole key on a hit.
package fphash

import "hash/maphash"

// Hasher hashes under one random seed.
type Hasher struct{ seed maphash.Seed }

// New returns a Hasher with a fresh random seed.
func New() Hasher { return Hasher{seed: maphash.MakeSeed()} }

// Bytes hashes b.
func (h Hasher) Bytes(b []byte) uint64 { return maphash.Bytes(h.seed, b) }
