package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDGenDeterministicSet(t *testing.T) {
	a, b := newIDGen(7), newIDGen(7)
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("draw %d: %s != %s for the same seed", i, x, y)
		}
	}
	c := newIDGen(8)
	if a0, c0 := newIDGen(7).next(), c.next(); a0 == c0 {
		t.Fatal("different seeds produced the same first ID")
	}
}

func TestIDGenConcurrentUnique(t *testing.T) {
	g := newIDGen(1)
	const workers, perWorker = 8, 500
	ids := make(chan TraceID, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ids <- g.next()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[TraceID]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("got %d unique IDs, want %d", len(seen), workers*perWorker)
	}
}

// TestTraceIDString pins the hand-rolled hex against the fmt and
// encoding/json renderings it replaced: logs, /debug/traces and audit
// records written before and after must carry the same bytes.
func TestTraceIDString(t *testing.T) {
	if got := TraceID(0xab).String(); got != "00000000000000ab" {
		t.Fatalf("String() = %q", got)
	}
	ids := []TraceID{0, 1, 0xf, 0x10, 0x0123456789abcdef, 0xfedcba9876543210, 1 << 63, ^TraceID(0)}
	gen := newIDGen(3)
	for i := 0; i < 64; i++ {
		ids = append(ids, gen.next())
	}
	for _, id := range ids {
		want := fmt.Sprintf("%016x", uint64(id))
		if got := id.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		wantJSON, _ := json.Marshal(want)
		if got, err := id.MarshalJSON(); err != nil || !bytes.Equal(got, wantJSON) {
			t.Fatalf("MarshalJSON() = %s, %v; want %s", got, err, wantJSON)
		}
	}
}

func TestTraceRingLastAndSlowest(t *testing.T) {
	r := newTraceRing(4)
	for i := 1; i <= 6; i++ {
		r.put(&Trace{ID: TraceID(i), DurUs: int64(i * 10)})
	}
	if r.total() != 6 {
		t.Fatalf("total() = %d", r.total())
	}
	last := r.last(3)
	if len(last) != 3 || last[0].ID != 6 || last[1].ID != 5 || last[2].ID != 4 {
		t.Fatalf("last(3) = %v", ids(last))
	}
	// Ring size 4: traces 3..6 retained; slowest first.
	slow := r.slowest(2)
	if len(slow) != 2 || slow[0].ID != 6 || slow[1].ID != 5 {
		t.Fatalf("slowest(2) = %v", ids(slow))
	}
	if got := r.last(100); len(got) != 4 {
		t.Fatalf("last(100) returned %d traces from a 4-slot ring", len(got))
	}
}

// TestTraceRingShards puts traces on every shard of a ring and reads
// them back: last merges the shards newest first by finish time, capped
// at what the ring retains however large n is, a shard busier than the
// rest still leaves the per-shard size newest in last, and total counts
// every put.
func TestTraceRingShards(t *testing.T) {
	const size = 4
	r := newTraceRing(size)
	shards := len(r.shards)
	if r.capacity() != shards*size {
		t.Fatalf("capacity() = %d, want %d shards × %d", r.capacity(), shards, size)
	}
	epoch := time.Now()
	// Trace i starts at i ms, lasts 1 µs and goes to shard i mod shards.
	put := func(i int) {
		r.put(&Trace{ID: TraceID(i), DurUs: 1, start: epoch.Add(time.Duration(i) * time.Millisecond), shard: uint32(i % shards)})
	}
	for i := 1; i <= 2*shards; i++ {
		put(i)
	}
	last := r.last(1 << 40)
	if len(last) != 2*shards {
		t.Fatalf("last(huge) returned %d traces, %d were put", len(last), 2*shards)
	}
	for k, tr := range last {
		if want := TraceID(2*shards - k); tr.ID != want {
			t.Fatalf("last[%d] = trace %d, want %d (newest first across shards): %v", k, tr.ID, want, ids(last))
		}
	}
	// Shard 0 alone takes the next 3·size traces: the size newest of all
	// are there, and last returns no more than the ring retains.
	for i := 2*shards + 1; i <= 2*shards+3*size; i++ {
		r.put(&Trace{ID: TraceID(i), DurUs: 1, start: epoch.Add(time.Duration(i) * time.Millisecond)})
	}
	newest := r.last(size)
	for k, tr := range newest {
		if want := TraceID(2*shards + 3*size - k); tr.ID != want {
			t.Fatalf("last(%d)[%d] = trace %d, want %d", size, k, tr.ID, want)
		}
	}
	if got := len(r.last(1 << 40)); got > r.capacity() {
		t.Fatalf("last(huge) returned %d traces from a ring of %d", got, r.capacity())
	}
	if r.total() != uint64(2*shards+3*size) {
		t.Fatalf("total() = %d, want %d", r.total(), 2*shards+3*size)
	}
}

// TestTracerShardsConcurrent finishes traces on every shard from as many
// goroutines: total is exact and last is newest first by finish time.
func TestTracerShardsConcurrent(t *testing.T) {
	tracer := NewTracer(TracerConfig{Seed: 1, RingSize: 64})
	shards := len(tracer.ring.shards)
	const perShard = 200
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var tr Trace
			for i := 0; i < perShard; i++ {
				tracer.Open(&tr, "/v1/collect", g)
				tracer.Finish(&tr, "ok")
			}
		}(g)
	}
	wg.Wait()
	if got := tracer.ring.total(); got != uint64(shards*perShard) {
		t.Fatalf("total() = %d, want %d", got, shards*perShard)
	}
	last := tracer.ring.last(tracer.ring.capacity())
	if len(last) != tracer.ring.capacity() {
		t.Fatalf("last returned %d of the %d retained traces", len(last), tracer.ring.capacity())
	}
	for k := 1; k < len(last); k++ {
		if last[k].finished().After(last[k-1].finished()) {
			t.Fatalf("last[%d] finished after last[%d]", k, k-1)
		}
	}
}

func ids(trs []*Trace) []string {
	out := make([]string, len(trs))
	for i, tr := range trs {
		out[i] = fmt.Sprintf("%d", uint64(tr.ID))
	}
	return out
}

func TestTracerSpansAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	tracer := NewTracer(TracerConfig{
		Seed:          3,
		SlowThreshold: time.Nanosecond, // everything is slow
		Logger:        slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	tr := new(Trace)
	tracer.Open(tr, "/v1/collect", 0)
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.RecordSpan("score", start, time.Since(start))
	tracer.Finish(tr, "ok")

	if len(tr.Spans) != 1 || tr.Spans[0].Name != "score" {
		t.Fatalf("spans = %+v", tr.Spans)
	}
	if tr.Spans[0].DurUs <= 0 {
		t.Fatalf("span duration %dµs not positive", tr.Spans[0].DurUs)
	}
	if tr.DurUs < tr.Spans[0].DurUs {
		t.Fatalf("trace %dµs shorter than its span %dµs", tr.DurUs, tr.Spans[0].DurUs)
	}

	var rec struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Span    int64  `json:"span_score_us"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow log not JSON: %v (%q)", err, buf.String())
	}
	if rec.Msg != "slow request" || rec.TraceID != tr.ID.String() || rec.Span != tr.Spans[0].DurUs {
		t.Fatalf("slow log %+v does not match trace %s", rec, tr.ID)
	}
}

// TestTraceInlineSpans pins the trace's span storage: the first four
// spans need no allocation of their own, a fifth still lands, what
// /debug/traces prints is what a plain []Span field printed, and traces
// retained in the ring never share storage.
func TestTraceInlineSpans(t *testing.T) {
	tracer := NewTracer(TracerConfig{Seed: 9, RingSize: 8})
	names := []string{"decode", "score", "record", "audit", "extra"}

	// The fields and tags of Trace as they were with Spans its only
	// storage.
	type plainTrace struct {
		ID       TraceID `json:"id"`
		Endpoint string  `json:"endpoint"`
		Status   string  `json:"status"`
		DurUs    int64   `json:"dur_us"`
		Spans    []Span  `json:"spans"`
	}
	for n := 0; n <= len(names); n++ {
		tr := new(Trace)
		tracer.Open(tr, "/v1/collect", 0)
		for _, name := range names[:n] {
			start := time.Now()
			tr.RecordSpan(name, start, time.Since(start))
		}
		tracer.Finish(tr, "ok")
		if len(tr.Spans) != n {
			t.Fatalf("%d spans recorded, %d kept", n, len(tr.Spans))
		}
		for i, sp := range tr.Spans {
			if sp.Name != names[i] {
				t.Fatalf("span %d of %d is %q, want %q", i, n, sp.Name, names[i])
			}
		}
		if inline := n > 0 && &tr.Spans[0] == &tr.inline[0]; inline != (n >= 1 && n <= inlineSpans) {
			t.Fatalf("%d spans: stored inline = %v", n, inline)
		}
		got, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		plain := append([]Span(nil), tr.Spans...) // nil when there are none
		want, _ := json.Marshal(plainTrace{tr.ID, tr.Endpoint, tr.Status, tr.DurUs, plain})
		if !bytes.Equal(got, want) {
			t.Fatalf("%d spans: trace prints\n %s\nwant\n %s", n, got, want)
		}
	}

	// Newest first: 5, 4, 3, … spans. Each retained trace still holds its
	// own, in storage no other trace points into.
	kept := tracer.ring.last(len(names) + 1)
	seen := map[*Span]bool{}
	for i, tr := range kept {
		if want := len(names) - i; len(tr.Spans) != want {
			t.Fatalf("retained trace %d holds %d spans, want %d", i, len(tr.Spans), want)
		}
		for j := range tr.Spans {
			if tr.Spans[j].Name != names[j] || seen[&tr.Spans[j]] {
				t.Fatalf("retained trace %d, span %d: %+v (shared: %v)", i, j, tr.Spans[j], seen[&tr.Spans[j]])
			}
			seen[&tr.Spans[j]] = true
		}
	}
}

// TestTraceRingKeepsCopies reuses one caller-owned trace, as a pooled
// buffer does: what last, slowest and /debug/traces returned for it is
// unchanged after the trace is opened and finished again, and again
// after its ring slot is overwritten — with three inline spans and with
// five, whose slice the ring takes over.
func TestTraceRingKeepsCopies(t *testing.T) {
	for _, spans := range []int{3, 5} {
		t.Run(fmt.Sprintf("%d spans", spans), func(t *testing.T) {
			tracer := NewTracer(TracerConfig{Seed: 11, RingSize: 2})
			var tr Trace
			run := func(endpoint, status, span string, n int) {
				tracer.Open(&tr, endpoint, 0)
				for i := 0; i < n; i++ {
					start := time.Now()
					tr.RecordSpan(fmt.Sprintf("%s%d", span, i), start, time.Since(start))
				}
				tracer.Finish(&tr, status)
			}
			page := func() map[TraceID]string {
				w := httptest.NewRecorder()
				tracer.ServeTraces(w, httptest.NewRequest("GET", "/debug/traces", nil))
				var p struct{ Last []json.RawMessage }
				if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
					t.Fatal(err)
				}
				byID := map[TraceID]string{}
				for _, raw := range p.Last {
					var tr struct{ ID string }
					json.Unmarshal(raw, &tr)
					id, _ := strconv.ParseUint(tr.ID, 16, 64)
					byID[TraceID(id)] = string(raw)
				}
				return byID
			}
			marshal := func(tr *Trace) string {
				b, err := json.Marshal(tr)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}

			run("/v1/collect", "ok", "first", spans)
			first, want := tr.ID, marshal(&tr)
			last, slow := tracer.ring.last(1), tracer.ring.slowest(1)
			if len(last) != 1 || len(slow) != 1 {
				t.Fatalf("last(1) = %d traces, slowest(1) = %d", len(last), len(slow))
			}
			served := page()[first]
			if served == "" {
				t.Fatal("/debug/traces does not show the trace")
			}
			for what, got := range map[string]string{"Last": marshal(last[0]), "Slowest": marshal(slow[0])} {
				if got != want {
					t.Fatalf("%s copies\n %s\nof\n %s", what, got, want)
				}
			}

			// Reopen: a second trace, still on the ring beside the first.
			run("/v1/collect-json", "bad_json", "second", spans+1)
			if got := page()[first]; got != served {
				t.Fatalf("/debug/traces shows the first trace as\n %s\nafter the caller reused it, was\n %s", got, served)
			}
			// Reopen again: the first trace's slot is overwritten.
			run("tcp", "partial", "third", 1)
			if len(tracer.ring.last(3)) != 2 {
				t.Fatal("ring of two kept more than two traces")
			}
			for what, got := range map[string]string{"Last": marshal(last[0]), "Slowest": marshal(slow[0])} {
				if got != want {
					t.Fatalf("after reuse, %s's copy reads\n %s\nwas\n %s", what, got, want)
				}
			}
		})
	}
}

// TestTraceRingConcurrentPutAndRead puts traces from two writers per
// shard — each reusing one trace, as a pooled buffer does — while
// readers walk last, slowest and /debug/traces. Every trace read is
// whole: its status says how many spans it has and each span carries
// its endpoint's name. Run it under -race.
func TestTraceRingConcurrentPutAndRead(t *testing.T) {
	tracer := NewTracer(TracerConfig{Seed: 2, RingSize: 4})
	shards := len(tracer.ring.shards)
	const perWriter = 300
	check := func(trs []*Trace) error {
		for _, tr := range trs {
			if len(tr.Status) != 1 || len(tr.Spans) != int(tr.Status[0]-'0') {
				return fmt.Errorf("trace %s: status %q with %d spans", tr.ID, tr.Status, len(tr.Spans))
			}
			for _, sp := range tr.Spans {
				if sp.Name != tr.Endpoint {
					return fmt.Errorf("trace %s of %s holds span %q", tr.ID, tr.Endpoint, sp.Name)
				}
			}
		}
		return nil
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 3)
	for _, read := range []func() []*Trace{
		func() []*Trace { return tracer.ring.last(8) },
		func() []*Trace { return tracer.ring.slowest(8) },
		func() []*Trace {
			tracer.ServeTraces(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/traces?n=4", nil))
			return nil
		},
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := check(read()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < 2*shards; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			endpoint := fmt.Sprintf("w%d", g)
			var tr Trace
			for i := 0; i < perWriter; i++ {
				tracer.Open(&tr, endpoint, g%shards)
				n := i % (inlineSpans + 3)
				for k := 0; k < n; k++ {
					tr.RecordSpan(endpoint, tr.StartTime(), time.Duration(k))
				}
				tracer.Finish(&tr, strconv.Itoa(n))
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tracer.ring.total(); got != uint64(2*shards*perWriter) {
		t.Fatalf("total() = %d, want %d", got, 2*shards*perWriter)
	}
	if err := check(tracer.ring.slowest(-1)); err != nil {
		t.Fatal(err)
	}
}

func TestTracerFastRequestNotLogged(t *testing.T) {
	var buf bytes.Buffer
	tracer := NewTracer(TracerConfig{
		Seed:          3,
		SlowThreshold: time.Hour,
		Logger:        slog.New(slog.NewTextHandler(&buf, nil)),
	})
	_, tr := tracer.Start(context.Background(), "tcp")
	tracer.Finish(tr, "ok")
	if buf.Len() != 0 {
		t.Fatalf("fast request logged: %q", buf.String())
	}
	if tracer.ring.total() != 1 {
		t.Fatal("finished trace not retained")
	}
}

func TestServeTraces(t *testing.T) {
	tracer := NewTracer(TracerConfig{Seed: 5, RingSize: 8})
	for i := 0; i < 3; i++ {
		tr := new(Trace)
		tracer.Open(tr, "/v1/collect", 0)
		tracer.Finish(tr, "ok")
	}
	req := httptest.NewRequest("GET", "/debug/traces?n=2", nil)
	w := httptest.NewRecorder()
	tracer.ServeTraces(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var page struct {
		Count   uint64 `json:"count"`
		Last    []json.RawMessage
		Slowest []json.RawMessage
	}
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != 3 || len(page.Last) != 2 || len(page.Slowest) != 2 {
		t.Fatalf("page count=%d last=%d slowest=%d", page.Count, len(page.Last), len(page.Slowest))
	}

	w = httptest.NewRecorder()
	tracer.ServeTraces(w, httptest.NewRequest("GET", "/debug/traces?n=bogus", nil))
	if w.Code != 400 {
		t.Fatalf("bad n accepted: %d", w.Code)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, true).Info("hello", "k", "v")
	if !strings.HasPrefix(buf.String(), "{") {
		t.Fatalf("json logger emitted %q", buf.String())
	}
	buf.Reset()
	NewLogger(&buf, false).Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "k=v") {
		t.Fatalf("text logger emitted %q", buf.String())
	}
	// nil writer must discard without panicking.
	NewLogger(nil, false).With("a", 1).WithGroup("g").Info("dropped")
}
