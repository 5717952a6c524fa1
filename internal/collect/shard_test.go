package collect

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// TestShardedCountersExact hammers both ingest endpoints from eight
// goroutines, so requests land on several shards; afterwards what every
// reader sums over the shards — /metrics, /debug/traces — is
// exactly what was sent.
func TestShardedCountersExact(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m, TraceRingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	honest := payloadFor(d, chrome, chrome)
	lying := payloadFor(d, chrome, ua.Release{Vendor: ua.Firefox, Version: 110})
	requests := [...]struct {
		endpoint string
		body     []byte
	}{
		{EndpointBinary, binaryBodyFor(t, honest)},
		{EndpointJSON, jsonBodyFor(t, honest)},
		{EndpointBinary, binaryBodyFor(t, lying)},
		{EndpointJSON, jsonBodyFor(t, lying)},
	}

	const workers, perWorker = 8, 160 // perWorker a multiple of len(requests)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rq := &requests[(g+i)%len(requests)]
				if rec := post(srv, rq.endpoint, bytes.NewReader(rq.body)); rec.Code != http.StatusOK {
					t.Errorf("%s: %d %s", rq.endpoint, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const total = workers * perWorker
	ex := obs.ParseExpositionString(srv.MetricsText())
	for name, want := range map[string]float64{
		"polygraph_collections_total":                 total,
		"polygraph_flagged_total":                     total / 2,
		"polygraph_score_duration_microseconds_count": total,
	} {
		if got := ex.Sum(name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	for _, s := range ex.Samples("polygraph_score_duration_microseconds_count") {
		if s.Value != total/2 {
			t.Errorf("%s{endpoint=%q} = %g, want %d", s.Name, s.Label("endpoint"), s.Value, total/2)
		}
	}
	if got := tracePageOf(t, srv, total).Count; got != total {
		t.Errorf("/debug/traces count %d, want %d", got, total)
	}
}

// TestDebugTracesNewestFirstAcrossShards spreads one request sequence
// over the trace ring's shards — each TCP connection borrows a new
// scoreBuf and so the next shard — and requires /debug/traces to list
// it newest first, trace IDs drawn from the tracer's seed telling which
// request is which.
func TestDebugTracesNewestFirstAcrossShards(t *testing.T) {
	m, d := testModel(t)
	const seed = 11
	srv, err := NewServer(Config{Model: m, TraceSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := NewTCPServer(Config{Model: m, Tracer: srv.Tracer()})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachTCP(tcp)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tcp.Serve(l)
	defer tcp.Close()

	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)
	body := jsonBodyFor(t, p)
	ids := traceIDs(seed, 2*(srv.ingest.shards+1))
	var sent []string // trace IDs, oldest first
	for c := 0; c <= srv.ingest.shards; c++ {
		client, err := DialTCP(l.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		// The frame's trace is finished before its reply is flushed.
		if _, err := client.SubmitBatch([]*fingerprint.Payload{p}); err != nil {
			t.Fatal(err)
		}
		client.Close()
		sent = append(sent, ids[len(sent)])
		if rec := post(srv, EndpointJSON, bytes.NewReader(body)); rec.Code != http.StatusOK {
			t.Fatalf("collect: %d %s", rec.Code, rec.Body)
		}
		sent = append(sent, ids[len(sent)])
	}

	page := tracePageOf(t, srv, len(sent))
	if page.Count != uint64(len(sent)) || len(page.Last) != len(sent) {
		t.Fatalf("count %d, %d last; want %d of each", page.Count, len(page.Last), len(sent))
	}
	for i, tr := range page.Last {
		if want := sent[len(sent)-1-i]; tr.ID != want {
			t.Fatalf("last[%d] is trace %s (%s), want %s", i, tr.ID, tr.Endpoint, want)
		}
	}
}

// TestDebugTracesHugeN asks /debug/traces, on the public ingest
// handler, for more traces than memory holds: the answer is capped at
// what the ring retains instead of sized by the request.
func TestDebugTracesHugeN(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m, TraceRingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	body := binaryBodyFor(t, payloadFor(d, chrome, chrome))
	const sent = 3
	for i := 0; i < sent; i++ {
		if rec := post(srv, EndpointBinary, bytes.NewReader(body)); rec.Code != http.StatusOK {
			t.Fatalf("collect: %d %s", rec.Code, rec.Body)
		}
	}
	page := tracePageOf(t, srv, 100000000000)
	if page.Count != sent || len(page.Last) != sent || len(page.Slowest) != sent {
		t.Fatalf("count %d, %d last, %d slowest; want %d of each", page.Count, len(page.Last), len(page.Slowest), sent)
	}
}

// tracePage is the part of the /debug/traces document these tests read.
type tracePage struct {
	Count   uint64            `json:"count"`
	Last    []traceDoc        `json:"last"`
	Slowest []json.RawMessage `json:"slowest"`
}

// traceDoc is one trace as /debug/traces lists it.
type traceDoc struct {
	ID       string     `json:"id"`
	Endpoint string     `json:"endpoint"`
	Status   string     `json:"status"`
	DurUs    int64      `json:"dur_us"`
	Spans    []obs.Span `json:"spans"`
}

// tracePageOf fetches /debug/traces?n=n from h: a Server's public
// handler, or a tracer's ServeTraces.
func tracePageOf(t *testing.T, h http.Handler, n int) tracePage {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?n="+strconv.Itoa(n), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces: %d %s", rec.Code, rec.Body)
	}
	var page tracePage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	return page
}

// traceIDs returns the first n trace IDs a tracer seeded with seed gives
// out, as a server with that TraceSeed does.
func traceIDs(seed uint64, n int) []string {
	tracer := obs.NewTracer(obs.TracerConfig{Seed: seed})
	ids := make([]string, n)
	var tr obs.Trace
	for i := range ids {
		tracer.Open(&tr, "", 0)
		tracer.Finish(&tr, "")
		ids[i] = tr.ID.String()
	}
	return ids
}
