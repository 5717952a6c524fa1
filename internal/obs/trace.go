package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/rng"
)

// TraceID identifies one request trace.
type TraceID uint64

// appendHex appends the ID as 16 lower-case hex digits.
func (id TraceID) appendHex(dst []byte) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[id>>shift&0xF])
	}
	return dst
}

// String renders the ID as fixed-width hex, the form logs and
// /debug/traces use. It runs once per audit record and once per warn
// line, so it formats by hand.
func (id TraceID) String() string {
	var b [16]byte
	return string(id.appendHex(b[:0]))
}

// MarshalJSON emits the hex form as a JSON string.
func (id TraceID) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 18), '"')
	return append(id.appendHex(b), '"'), nil
}

// idGen produces trace IDs that are deterministic for a fixed seed yet
// safe for concurrent use: two PCG-drawn keys whiten an atomic sequence
// through a splitmix64 finalizer, so the ID *set* for N requests is a
// pure function of the seed while concurrent callers never contend on
// generator state. (A shared *rng.PCG would need a lock; a per-call
// finalizer needs none.)
type idGen struct {
	k0, k1 uint64
	seq    atomic.Uint64
}

// newIDGen seeds a generator. Seed 0 is valid (it is still whitened
// through PCG).
func newIDGen(seed uint64) *idGen {
	r := rng.New(seed)
	return &idGen{k0: r.Uint64(), k1: r.Uint64()}
}

// next returns the next trace ID.
func (g *idGen) next() TraceID {
	n := g.seq.Add(1)
	return TraceID(mix64(n^g.k0) ^ g.k1)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Span is one named, timed section of a trace. Offsets and durations
// are microseconds relative to the trace start.
type Span struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// inlineSpans is how many spans a Trace stores without a second
// allocation. The ingest path records at most three: decode, score and
// audit.
const inlineSpans = 4

// Trace is one request's record: identity, endpoint, outcome, total
// duration, and the spans the request path records on it (RecordSpan).
// The caller owns it — the collect transports keep one in the buffer a
// request or a batch borrows — and Tracer.Open resets it for each
// request. Tracer.Finish copies the finished trace into the ring, so the
// ring and /debug/traces never see the caller's trace, which the next
// Open may reuse at once.
type Trace struct {
	ID       TraceID `json:"id"`
	Endpoint string  `json:"endpoint"`
	Status   string  `json:"status"`
	DurUs    int64   `json:"dur_us"`
	Spans    []Span  `json:"spans"`

	start time.Time
	mu    sync.Mutex
	// shard is the traceRing shard Finish stores the trace in.
	shard uint32
	// inline backs Spans until a fifth span makes append move them; a
	// trace with no span keeps Spans nil, which /debug/traces shows as
	// null.
	inline [inlineSpans]Span
}

// copyTo copies the finished trace into dst, which no one else reads or
// writes meanwhile. Spans that fit inline are copied into dst's own
// inline array; a longer slice is shared, since nothing appends to it
// again: the next Open of t starts on a nil slice.
func (t *Trace) copyTo(dst *Trace) {
	dst.ID, dst.Endpoint, dst.Status, dst.DurUs = t.ID, t.Endpoint, t.Status, t.DurUs
	dst.start, dst.shard = t.start, t.shard
	switch {
	case len(t.Spans) > inlineSpans:
		dst.Spans = t.Spans
	case t.Spans != nil:
		dst.Spans = dst.inline[:copy(dst.inline[:], t.Spans)]
	default:
		dst.Spans = nil
	}
}

// StartTime is when the trace was opened: the request's one wall-clock
// read. A handler times its boundaries as monotonic offsets from it
// (time.Since(tr.StartTime())) and passes StartTime().Add(offset) to
// RecordSpan, which is arithmetic, not a clock read.
func (t *Trace) StartTime() time.Time { return t.start }

// RecordSpan appends one completed span: a named section of work with
// its start time and duration. It is safe for concurrent use.
func (t *Trace) RecordSpan(name string, start time.Time, d time.Duration) {
	sp := Span{Name: name, StartUs: start.Sub(t.start).Microseconds(), DurUs: d.Microseconds()}
	t.mu.Lock()
	if t.Spans == nil {
		t.Spans = t.inline[:0]
	}
	t.Spans = append(t.Spans, sp)
	t.mu.Unlock()
}

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// RingSize is how many finished traces each shard of the ring
	// retains (0 uses 256): the ring holds at most ShardCount() ×
	// RingSize, and /debug/traces always has the RingSize newest.
	RingSize int
	// Seed drives the deterministic ID stream.
	Seed uint64
	// SlowThreshold marks traces worth a structured log line; 0 uses
	// the paper's 100 ms inline-scoring budget.
	SlowThreshold time.Duration
	// Logger receives slow-request records; nil discards.
	Logger *slog.Logger
}

// Tracer mints request traces at ingress, retains finished ones in a
// ring, and logs the slow outliers.
type Tracer struct {
	ids  *idGen
	ring *traceRing
	slow time.Duration
	log  *slog.Logger
}

// NewTracer builds a Tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	size := cfg.RingSize
	if size == 0 {
		size = 256
	}
	slow := cfg.SlowThreshold
	if slow == 0 {
		slow = 100 * time.Millisecond
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	return &Tracer{
		ids:  newIDGen(cfg.Seed),
		ring: newTraceRing(size),
		slow: slow,
		log:  logger,
	}
}

// Open resets the caller's trace tr for one request on endpoint, to be
// retained in shard (taken modulo the ring's shard count: the shard of
// the buffer the request borrows): a new ID, the start time, no status,
// duration or spans. The caller records spans on it directly and must
// call Finish exactly once before it opens tr again.
func (t *Tracer) Open(tr *Trace, endpoint string, shard int) {
	tr.ID, tr.Endpoint, tr.start, tr.shard = t.ids.next(), endpoint, time.Now(), uint32(shard)
	tr.Status, tr.DurUs, tr.Spans = "", 0, nil
}

// Finish seals the trace with its outcome, copies it into the ring, and
// emits a structured slow-request record when the total duration
// crosses the threshold. It returns that duration, its one clock read,
// for a caller that records the request's latency elsewhere too. The
// trace stays the caller's, to read or to open again.
func (t *Tracer) Finish(tr *Trace, status string) time.Duration {
	d := time.Since(tr.start)
	tr.Status = status
	tr.DurUs = d.Microseconds()
	t.ring.put(tr)
	if d >= t.slow {
		attrs := []any{
			slog.String(TraceIDKey, tr.ID.String()),
			slog.String("endpoint", tr.Endpoint),
			slog.String("status", tr.Status),
			slog.Int64("dur_us", tr.DurUs),
		}
		for _, sp := range tr.Spans {
			attrs = append(attrs, slog.Int64("span_"+sp.Name+"_us", sp.DurUs))
		}
		t.log.Warn("slow request", attrs...)
	}
	return d
}

// tracePage is the /debug/traces JSON document.
type tracePage struct {
	Count   uint64   `json:"count"`
	Last    []*Trace `json:"last"`
	Slowest []*Trace `json:"slowest"`
}

// ServeTraces answers GET /debug/traces: the most recent n finished
// traces (newest first) and the n slowest retained ones (?n=, default
// 32, capped at what the ring retains).
func (t *Tracer) ServeTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	page := tracePage{
		Count:   t.ring.total(),
		Last:    t.ring.last(n),
		Slowest: t.ring.slowest(n),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(page)
}
