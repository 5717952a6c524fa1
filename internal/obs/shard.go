package obs

import (
	"math/bits"
	"runtime"
)

// Per-request serving state that every core writes — the collect
// server's counters and endpoint histograms, the trace ring — is split
// into shards so two cores serving verdicts side by side do not write
// the same cache line. A request's shard comes from the buffer it
// borrows: buffers are handed shard indices round-robin as they are
// made, and sync.Pool keeps a buffer on the P that put it back, so each
// P keeps writing the shard of the buffer it holds. Readers (/metrics,
// /debug/traces) sum or merge every shard.

// maxShards bounds the split on wide machines: each shard of the trace
// ring retains its own TracerConfig.RingSize traces.
const maxShards = 64

// ShardCount is how many shards per-request serving state is split
// into: four per P (runtime.GOMAXPROCS(0) when it is called), rounded up
// to a power of two, at most 64 — 8 on two CPUs. Round-robin assignment
// cannot know which P a buffer will live on, so two Ps land on one
// shard with a chance of one in the shard count; four shards per P make
// that rare at a few hundred bytes a shard.
func ShardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	return min(1<<bits.Len(uint(n-1)), maxShards)
}

// CacheLinePad ends a shard so the next shard's words do not share its
// last cache line: 128 bytes, two lines, because x86 prefetches lines in
// adjacent pairs.
type CacheLinePad struct{ _ [128]byte }
