package collect

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// routeHist sums one ingest route's latency histogram over the shards.
func routeHist(srv *Server, route int) (n uint64, sum time.Duration) {
	for i := range srv.shards {
		h := &srv.shards[i].hists[route]
		n += h.Count()
		sum += h.Sum()
	}
	return n, sum
}

// TestHTTPTraceTimeline pins the one timeline a scored HTTP request is
// timed on: decode, score and audit spans in order, without overlap,
// inside the trace's duration; the fault drill's delay ahead of decode,
// never in it; the audit record's time between wall-clock reads taken
// around the request; and the endpoint histogram moved by exactly the
// trace's own duration.
func TestHTTPTraceTimeline(t *testing.T) {
	m, d := testModel(t)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)
	const delay = 3 * time.Millisecond
	for route, body := range [...][]byte{binaryBodyFor(t, p), jsonBodyFor(t, p)} {
		endpoint := ingestRoutes[route].path
		for _, scoreDelay := range []time.Duration{0, delay} {
			led, err := audit.Open(audit.Config{Dir: t.TempDir(), SampleBenign: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer led.Close()
			srv, err := NewServer(Config{Model: m, Audit: led, ScoreDelay: scoreDelay})
			if err != nil {
				t.Fatal(err)
			}
			post(srv, endpoint, bytes.NewReader(body)) // warm the pool and the memo
			n0, sum0 := routeHist(srv, route)

			before := time.Now()
			rec := post(srv, endpoint, bytes.NewReader(body))
			after := time.Now()
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", endpoint, rec.Code, rec.Body)
			}

			recent := led.Recent(1, "", "")
			if len(recent) != 1 {
				t.Fatalf("%s: no audit record", endpoint)
			}
			r := recent[0]
			if r.TimeNs < before.UnixNano() || r.TimeNs > after.UnixNano() {
				t.Errorf("%s: audit time_ns %d outside the request's [%d, %d]", endpoint, r.TimeNs, before.UnixNano(), after.UnixNano())
			}
			var tr *obs.Trace
			for _, c := range srv.Tracer().Ring().Last(2) {
				if c.ID.String() == r.TraceID {
					tr = c
				}
			}
			if tr == nil || tr.Status != "ok" {
				t.Fatalf("%s: no finished trace %s: %+v", endpoint, r.TraceID, tr)
			}

			spans := map[string]obs.Span{}
			for _, sp := range tr.Spans {
				spans[sp.Name] = sp
			}
			// Each span must start no earlier than the previous one ends;
			// microsecond truncation never breaks that, as a truncated
			// start plus a truncated length is at most the truncated end.
			at := int64(0)
			for _, name := range []string{"decode", "score", "audit"} {
				sp, ok := spans[name]
				if !ok {
					t.Fatalf("%s: trace spans %+v lack %s", endpoint, tr.Spans, name)
				}
				if sp.StartUs < at || sp.DurUs < 0 || sp.StartUs+sp.DurUs > tr.DurUs {
					t.Errorf("%s: %s span [%d, +%d] µs overlaps what precedes it (%d) or leaves [0, %d]",
						endpoint, name, sp.StartUs, sp.DurUs, at, tr.DurUs)
				}
				at = sp.StartUs + sp.DurUs
			}
			if len(tr.Spans) != 3 {
				t.Errorf("%s: spans %+v, want decode, score, audit", endpoint, tr.Spans)
			}
			if scoreDelay > 0 {
				dec := spans["decode"]
				if dec.StartUs < delay.Microseconds() || dec.DurUs >= delay.Microseconds() {
					t.Errorf("%s: decode span [%d, +%d] µs holds the %v fault-drill delay", endpoint, dec.StartUs, dec.DurUs, delay)
				}
			}

			n1, sum1 := routeHist(srv, route)
			if n1-n0 != 1 || (sum1-sum0).Microseconds() != tr.DurUs {
				t.Errorf("%s: histogram moved by %d observations, %v; the trace took %d µs", endpoint, n1-n0, sum1-sum0, tr.DurUs)
			}
		}
	}
}

// TestHTTPBenignSampledOutAllocs pins what the common HTTP request
// allocates — a benign verdict the ledger samples out, behind a drift
// monitor: nothing. The trace, the reply and its session ID live in the
// pooled buffer, the ring keeps a copy of the trace, and Content-Type is
// a package-level value. The
// drift reservoir is filled first: a vector entering it is copied, and
// past the first few thousand requests one enters about once a thousand.
func TestHTTPBenignSampledOutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	m, d := testModel(t)
	led, err := audit.Open(audit.Config{Dir: t.TempDir(), SampleBenign: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	drift, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(m.Features), Reservoir: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Model: m, Drift: drift, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)
	for _, endpoint := range []string{EndpointBinary, EndpointJSON} {
		payload := binaryBodyFor(t, p)
		if endpoint == EndpointJSON {
			payload = jsonBodyFor(t, p)
		}
		var body bytes.Reader
		req := httptest.NewRequest(http.MethodPost, endpoint, nil)
		req.Body = io.NopCloser(&body)
		w := &nopWriter{header: http.Header{}}
		serve := func() {
			body.Reset(payload)
			clear(w.header)
			srv.ServeHTTP(w, req)
		}
		for i := 0; i < 4000; i++ {
			serve()
		}
		got := testing.AllocsPerRun(200, serve)
		if got > 0 {
			t.Errorf("%s: a sampled-out benign request allocates %.1f, want 0", endpoint, got)
		}
	}
	if c := led.Counters(); c.Records != 0 || c.Dropped == 0 {
		t.Fatalf("requests were not sampled out: %+v", c)
	}
	if n := srv.Snapshot().Received; n == 0 {
		t.Fatal("no request was scored")
	}
}
