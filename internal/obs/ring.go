package obs

import (
	"sort"
	"sync"
	"time"
)

// TraceRing retains finished traces in shards (shard.go): each shard is
// a fixed-size ring of trace values with its own lock and cursor, so
// Tracer.Finish on one core does not write the lock, the cursor or the
// slots another core writes. Put copies a finished trace into the next
// slot of its shard under that shard's lock, so the caller keeps its
// trace and may reuse it at once; the ring's slots are its own. Readers
// lock each shard in turn and return fresh copies, so nothing a reader
// holds changes when a slot is overwritten.
type TraceRing struct {
	shards []ringShard
	size   int
}

type ringShard struct {
	mu    sync.Mutex
	seq   uint64
	slots []Trace
	_     CacheLinePad
}

// ringGap is how many unused slots separate one shard's slots from the
// next shard's in the ring's one backing array: one, since a Trace is
// longer than the 128 bytes CacheLinePad keeps apart.
const ringGap = 1

// NewTraceRing builds a ring of ShardCount() shards, each retaining the
// size (minimum 1) most recent traces put into it.
func NewTraceRing(size int) *TraceRing {
	size = max(size, 1)
	r := &TraceRing{shards: make([]ringShard, ShardCount()), size: size}
	stride := size + ringGap
	slots := make([]Trace, len(r.shards)*stride)
	for i := range r.shards {
		r.shards[i].slots = slots[i*stride : i*stride+size : i*stride+size]
	}
	return r
}

// Put copies a finished trace into its shard, over that shard's oldest
// when it is full. It keeps no reference to tr but a span slice longer
// than the inline four, which Trace.copyTo hands over.
func (r *TraceRing) Put(tr *Trace) {
	sh := &r.shards[int(tr.shard)%len(r.shards)]
	sh.mu.Lock()
	tr.copyTo(&sh.slots[sh.seq%uint64(r.size)])
	sh.seq++
	sh.mu.Unlock()
}

// Len reports how many traces have ever been put (not capped at what
// the ring retains).
func (r *TraceRing) Len() uint64 {
	var n uint64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += sh.seq
		sh.mu.Unlock()
	}
	return n
}

// Cap is how many traces the ring retains at most: every shard's slots.
func (r *TraceRing) Cap() int { return len(r.shards) * r.size }

// clone is a fresh copy of a retained trace, for a reader to keep.
func (t *Trace) clone() *Trace {
	c := new(Trace)
	t.copyTo(c)
	return c
}

// Last returns copies of up to n most-recent traces, newest first by
// finish time (start plus dur_us; a tie keeps its shard's put order). n
// is capped at Cap, so a request cannot size the answer past what is
// retained. Each shard keeps its own most recent traces, so Last(n) for
// n up to the per-shard size misses none of the n newest.
func (r *TraceRing) Last(n int) []*Trace {
	n = min(max(n, 0), r.Cap())
	var out []*Trace
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for back := uint64(0); back < uint64(r.size) && back < sh.seq && back < uint64(n); back++ {
			out = append(out, sh.slots[(sh.seq-1-back)%uint64(r.size)].clone())
		}
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].finished().After(out[j].finished()) })
	return out[:min(n, len(out))]
}

// finished is when the trace was finished, to the microsecond of its
// duration.
func (t *Trace) finished() time.Time {
	return t.start.Add(time.Duration(t.DurUs) * time.Microsecond)
}

// slower orders traces by descending duration, ties broken by trace ID
// for stable output.
func slower(a, b *Trace) bool {
	if a.DurUs != b.DurUs {
		return a.DurUs > b.DurUs
	}
	return a.ID < b.ID
}

// Slowest returns copies of up to n retained traces sorted by
// descending duration (ties broken by trace ID for stable output); a
// negative n returns them all. Only each shard's n slowest are copied.
func (r *TraceRing) Slowest(n int) []*Trace {
	var all []*Trace
	var idx []int
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		idx = idx[:0]
		for j := range int(min(sh.seq, uint64(r.size))) {
			idx = append(idx, j)
		}
		sort.Slice(idx, func(a, b int) bool { return slower(&sh.slots[idx[a]], &sh.slots[idx[b]]) })
		if n >= 0 && len(idx) > n {
			idx = idx[:n]
		}
		for _, j := range idx {
			all = append(all, sh.slots[j].clone())
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return slower(all[i], all[j]) })
	if n >= 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
