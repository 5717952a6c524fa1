package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDGenDeterministicSet(t *testing.T) {
	a, b := NewIDGen(7), NewIDGen(7)
	for i := 0; i < 100; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d: %s != %s for the same seed", i, x, y)
		}
	}
	c := NewIDGen(8)
	if a0, c0 := NewIDGen(7).Next(), c.Next(); a0 == c0 {
		t.Fatal("different seeds produced the same first ID")
	}
}

func TestIDGenConcurrentUnique(t *testing.T) {
	g := NewIDGen(1)
	const workers, perWorker = 8, 500
	ids := make(chan TraceID, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ids <- g.Next()
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
	gen := NewIDGen(3)
	for i := 0; i < 64; i++ {
		ids = append(ids, gen.Next())
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
	r := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		r.Put(&Trace{ID: TraceID(i), DurUs: int64(i * 10)})
	}
	if r.Len() != 6 {
		t.Fatalf("Len() = %d", r.Len())
	}
	last := r.Last(3)
	if len(last) != 3 || last[0].ID != 6 || last[1].ID != 5 || last[2].ID != 4 {
		t.Fatalf("Last(3) = %v", ids(last))
	}
	// Ring size 4: traces 3..6 retained; slowest first.
	slow := r.Slowest(2)
	if len(slow) != 2 || slow[0].ID != 6 || slow[1].ID != 5 {
		t.Fatalf("Slowest(2) = %v", ids(slow))
	}
	if got := r.Last(100); len(got) != 4 {
		t.Fatalf("Last(100) returned %d traces from a 4-slot ring", len(got))
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
	tr := tracer.Open("/v1/collect")
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
		tr := tracer.Open("/v1/collect")
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
	kept := tracer.Ring().Last(len(names) + 1)
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
	if tracer.Ring().Len() != 1 {
		t.Fatal("finished trace not retained")
	}
}

func TestServeTraces(t *testing.T) {
	tracer := NewTracer(TracerConfig{Seed: 5, RingSize: 8})
	for i := 0; i < 3; i++ {
		tr := tracer.Open("/v1/collect")
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
