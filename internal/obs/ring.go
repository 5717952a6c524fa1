package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// TraceRing retains finished traces, lock-free, in shards (shard.go):
// each shard is a fixed-size ring with its own cursor, so Tracer.Finish
// on one core does not write the cursor or the slots another core
// writes. A writer claims a slot of its trace's shard with one atomic
// increment and stores a pointer; readers load pointers and walk the
// immutable traces behind them. Only quiescent traces enter the ring
// (Tracer.Finish stores a trace after its last span is recorded), so a
// loaded pointer is always safe to read without synchronization. A slot
// can be overwritten between a reader's cursor load and its slot load —
// the reader then sees a newer trace than expected, never a torn one.
type TraceRing struct {
	shards []ringShard
	size   int
}

type ringShard struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[Trace]
	_     CacheLinePad
}

// ringGap is how many unused slots (128 bytes) separate one shard's
// slots from the next shard's in the ring's one backing array.
const ringGap = 16

// NewTraceRing builds a ring of ShardCount() shards, each retaining the
// size (minimum 1) most recent traces put into it.
func NewTraceRing(size int) *TraceRing {
	size = max(size, 1)
	r := &TraceRing{shards: make([]ringShard, ShardCount()), size: size}
	stride := size + ringGap
	slots := make([]atomic.Pointer[Trace], len(r.shards)*stride)
	for i := range r.shards {
		r.shards[i].slots = slots[i*stride : i*stride+size : i*stride+size]
	}
	return r
}

// Put stores a finished trace in its shard, evicting that shard's oldest
// when it is full.
func (r *TraceRing) Put(tr *Trace) {
	sh := &r.shards[int(tr.shard)%len(r.shards)]
	i := sh.seq.Add(1) - 1
	sh.slots[i%uint64(r.size)].Store(tr)
}

// Len reports how many traces have ever been put (not capped at what
// the ring retains).
func (r *TraceRing) Len() uint64 {
	var n uint64
	for i := range r.shards {
		n += r.shards[i].seq.Load()
	}
	return n
}

// Cap is how many traces the ring retains at most: every shard's slots.
func (r *TraceRing) Cap() int { return len(r.shards) * r.size }

// Last returns up to n most-recent traces, newest first by finish time
// (start plus dur_us; a tie keeps its shard's put order). n is capped
// at Cap, so a request cannot size the answer past what is retained.
// Each shard keeps its own most recent traces, so Last(n) for n up to
// the per-shard size misses none of the n newest.
func (r *TraceRing) Last(n int) []*Trace {
	n = min(max(n, 0), r.Cap())
	var out []*Trace
	for i := range r.shards {
		sh := &r.shards[i]
		seq, taken := sh.seq.Load(), 0
		for back := uint64(0); back < uint64(r.size) && back < seq && taken < n; back++ {
			if tr := sh.slots[(seq-1-back)%uint64(r.size)].Load(); tr != nil {
				out = append(out, tr)
				taken++
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].finished().After(out[j].finished()) })
	return out[:min(n, len(out))]
}

// finished is when the trace was finished, to the microsecond of its
// duration.
func (t *Trace) finished() time.Time {
	return t.start.Add(time.Duration(t.DurUs) * time.Microsecond)
}

// Slowest returns up to n retained traces sorted by descending
// duration (ties broken by trace ID for stable output).
func (r *TraceRing) Slowest(n int) []*Trace {
	var all []*Trace
	for i := range r.shards {
		for j := range r.shards[i].slots {
			if tr := r.shards[i].slots[j].Load(); tr != nil {
				all = append(all, tr)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].DurUs != all[j].DurUs {
			return all[i].DurUs > all[j].DurUs
		}
		return all[i].ID < all[j].ID
	})
	if n >= 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
