package collect

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// jsonBodyFor is p in the frame the script posts.
func jsonBodyFor(t testing.TB, p *fingerprint.Payload) []byte {
	t.Helper()
	body, err := json.Marshal(jsonPayload{
		SessionID: hex.EncodeToString(p.SessionID[:]),
		UserAgent: p.UserAgent,
		Values:    p.Values,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func binaryBodyFor(t testing.TB, p *fingerprint.Payload) []byte {
	t.Helper()
	body, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post hands one request straight to the handler, as an embedder's mux
// does.
func post(srv *Server, endpoint string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint, body))
	return rec
}

// dirtyPayload is a reused Payload with every field set to something no
// test frame carries.
func dirtyPayload() fingerprint.Payload {
	p := fingerprint.Payload{UserAgent: "stale agent", Values: []int64{-7, -7, -7, -7, -7, -7, -7, -7}}
	for i := range p.SessionID {
		p.SessionID[i] = 0xEE
	}
	return p
}

// checkJSONPayloadParity holds the scanner to the reference decoder:
// whatever it accepts, encoding/json accepts, and decodeJSONPayload's
// reference half builds the same payload from it.
func checkJSONPayloadParity(t testing.TB, body []byte) (accepted bool) {
	t.Helper()
	got := dirtyPayload()
	if !scanJSONPayload(&got, body) {
		return false
	}
	var jp jsonPayload
	if err := json.Unmarshal(body, &jp); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
	}
	var wantID [fingerprint.SessionIDSize]byte
	if sid, err := hex.DecodeString(jp.SessionID); err == nil && len(sid) == len(wantID) {
		copy(wantID[:], sid)
	}
	if got.SessionID != wantID || got.UserAgent != jp.UserAgent {
		t.Fatalf("%q: scanner read sid %x ua %q, encoding/json %x %q", body, got.SessionID, got.UserAgent, wantID, jp.UserAgent)
	}
	if len(got.Values) != len(jp.Values) {
		t.Fatalf("%q: scanner read %d values, encoding/json %d", body, len(got.Values), len(jp.Values))
	}
	for i, v := range jp.Values {
		if got.Values[i] != v {
			t.Fatalf("%q: value %d is %d, encoding/json reads %d", body, i, got.Values[i], v)
		}
	}
	return true
}

const canonicalFrame = `{"sid":"00112233445566778899aabbccddeeff","ua":"Mozilla/5.0 (X11; Linux x86_64)","v":[0,1,-2,30,999999999999999999]}`

// jsonParitySeeds are the committed fuzz seeds, with whether the scanner
// is expected to take the frame itself.
var jsonParitySeeds = []struct {
	body string
	scan bool
}{
	{canonicalFrame, true},
	{`{}`, true},
	{`{"v":[]}`, true},
	{" \t\r\n{ \"v\" : [ 1 , 2 ] , \"ua\" : \"x\" , \"sid\" : \"\" } \n", true},
	{`{"v":[-0]}`, true},
	{`{"v":[-999999999999999999]}`, true},
	{`{"sid":"00112233445566778899AABBCCDDEEFF"}`, true}, // upper-case hex
	{`{"sid":"0011"}`, true},                             // short sid: zero ID
	{`{"sid":"zz112233445566778899aabbccddeeff"}`, true}, // non-hex sid: zero ID
	{"{\"ua\":\"del\x7f\"}", true},                       // DEL is ASCII and needs no escape
	{`{"v":[01]}`, false},
	{`{"v":[1.0]}`, false},
	{`{"v":[1e2]}`, false},
	{`{"v":[1234567890123456789]}`, false},  // 19 digits
	{`{"v":[12345678901234567890]}`, false}, // 20 digits: encoding/json rejects
	{`{"v":[1],"v":[2]}`, false},
	{`{"UA":"x"}`, false},
	{`{"v":null}`, false},
	{`null`, false},
	{`{"ua":"x","extra":1}`, false},
	{`{"ua":"\u0041"}`, false},
	{`{"ua":"café"}`, false},
	{`{"ua":"x"} trailing`, false},
	{`{"ua":"x"}{}`, false},
	{`{"v":[1,]}`, false},
	{`{"v":[1],}`, false},
	{`{"v":[-]}`, false},
	{`{"ua":"tab	"}`, false},
	{`{"ua":"unterminated`, false},
	{`{"sid":1}`, false},
	{`[]`, false},
	{``, false},
}

func TestJSONPayloadScanner(t *testing.T) {
	for _, s := range jsonParitySeeds {
		if got := checkJSONPayloadParity(t, []byte(s.body)); got != s.scan {
			t.Errorf("%q: scanner accepted = %v, want %v", s.body, got, s.scan)
		}
	}
	// Past the scanner nothing changed: the whole decoder agrees with
	// encoding/json on every seed, accept or reject.
	for _, s := range jsonParitySeeds {
		got := dirtyPayload()
		reason, err := decodeJSONPayload(&got, []byte(s.body))
		var jp jsonPayload
		wantErr := json.Unmarshal([]byte(s.body), &jp)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: decode error %v, encoding/json %v", s.body, err, wantErr)
		}
		if err != nil {
			if reason != reasonBadJSON || err.Error() != wantErr.Error() {
				t.Fatalf("%q: reject (%s, %v), want (bad_json, %v)", s.body, reasonNames[reason], err, wantErr)
			}
			continue
		}
		if got.UserAgent != jp.UserAgent || len(got.Values) != len(jp.Values) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", s.body, got, jp)
		}
	}
}

func FuzzJSONPayloadParity(f *testing.F) {
	for _, s := range jsonParitySeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkJSONPayloadParity(t, body)
	})
}

// TestCollectResponseParity pins the append-encoded reply to what
// json.NewEncoder(w).Encode(&d) sent before it: status, content type and
// every body byte, the trailing newline included.
func TestCollectResponseParity(t *testing.T) {
	m, d := testModel(t)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	firefox := ua.Release{Vendor: ua.Firefox, Version: 110}
	garbled := payloadFor(d, chrome, chrome)
	garbled.UserAgent = "definitely not a browser"
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	jumpy, err := core.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	jumpy.NoveltyThreshold = 1e-12 // flags every surface, matched or not

	cases := []struct {
		name             string
		model            *core.Model
		payload          *fingerprint.Payload
		flagged, matched bool
	}{
		{"benign matched", m, payloadFor(d, chrome, chrome), false, true},
		{"flagged unmatched", m, payloadFor(d, firefox, chrome), true, false},
		{"flagged unparseable", m, garbled, true, false},
		{"flagged matched", jumpy, payloadFor(d, chrome, chrome), true, true},
	}
	for _, tc := range cases {
		srv, err := NewServer(Config{Model: tc.model})
		if err != nil {
			t.Fatal(err)
		}
		for endpoint, body := range map[string][]byte{
			EndpointBinary: binaryBodyFor(t, tc.payload),
			EndpointJSON:   jsonBodyFor(t, tc.payload),
		} {
			rec := post(srv, endpoint, bytes.NewReader(body))
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s %s: status %d, content type %q", tc.name, endpoint, rec.Code, rec.Header().Get("Content-Type"))
			}
			var dec Decision
			if err := json.Unmarshal(rec.Body.Bytes(), &dec); err != nil {
				t.Fatalf("%s %s: %v", tc.name, endpoint, err)
			}
			if dec.Flagged != tc.flagged || dec.Matched != tc.matched || dec.SessionID != hex.EncodeToString(tc.payload.SessionID[:]) {
				t.Fatalf("%s %s: verdict %+v", tc.name, endpoint, dec)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(&dec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%s %s: reply differs from json.Encoder:\n got %q\nwant %q", tc.name, endpoint, rec.Body.Bytes(), want.Bytes())
			}
		}
	}
}

// TestCollectBodyRead drives the reused-buffer body read through the
// handler with every way a body can arrive or fail to.
func TestCollectBodyRead(t *testing.T) {
	m, d := testModel(t)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	good := binaryBodyFor(t, payloadFor(d, chrome, chrome))
	errBroken := errors.New("connection broke")
	pad := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	cases := []struct {
		name   string
		reader func() io.Reader
		code   int
		reason rejectReason // of a non-200
	}{
		{"valid", func() io.Reader { return bytes.NewReader(good) }, 200, 0},
		{"empty", func() io.Reader { return bytes.NewReader(nil) }, 400, reasonDecode},
		{"exactly the limit", func() io.Reader { return bytes.NewReader(pad(maxBodyBytes)) }, 400, reasonDecode},
		{"one over the limit", func() io.Reader { return bytes.NewReader(pad(maxBodyBytes + 1)) }, 413, reasonTooLarge},
		{"far over the limit", func() io.Reader { return bytes.NewReader(pad(1 << 16)) }, 413, reasonTooLarge},
		{"one byte at a time", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(good)) }, 200, 0},
		{"last bytes and EOF in one call", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(good)) }, 200, 0},
		{"error mid-body", func() io.Reader {
			return io.MultiReader(bytes.NewReader(good[:len(good)/2]), iotest.ErrReader(errBroken))
		}, 400, reasonRead},
		{"error after the limit is never reached", func() io.Reader {
			return io.MultiReader(bytes.NewReader(pad(maxBodyBytes+1)), iotest.ErrReader(errBroken))
		}, 413, reasonTooLarge},
	}
	for _, tc := range cases {
		srv, err := NewServer(Config{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		// Twice: the second request reads into the buffer the first left.
		for pass := 0; pass < 2; pass++ {
			rec := post(srv, EndpointBinary, tc.reader())
			if rec.Code != tc.code {
				t.Fatalf("%s, pass %d: status %d, want %d (%s)", tc.name, pass, rec.Code, tc.code, rec.Body)
			}
			if tc.code != 200 && srv.rejects[tc.reason].Load() != int64(pass+1) {
				t.Fatalf("%s, pass %d: reject not counted as %s", tc.name, pass, reasonNames[tc.reason])
			}
		}

	}
}

var elapsedField = regexp.MustCompile(`"elapsed_us":\d+`)

// answer is what of a reply does not depend on the clock.
func answer(rec *httptest.ResponseRecorder) string {
	return fmt.Sprintf("%d %s %s", rec.Code, rec.Header().Get("Content-Type"),
		elapsedField.ReplaceAllString(rec.Body.String(), `"elapsed_us":0`))
}

// poisonPooled overwrites the body bytes of every scoreBuf at rest in
// srv's pool, as the requests that borrow them next will. A buffer taken
// from the pool is the caller's alone, so this may run beside requests.
func poisonPooled(srv *Server) {
	var held []*scoreBuf
	for {
		buf, _ := srv.bufs.Get().(*scoreBuf)
		if buf == nil {
			break
		}
		poison(buf.body.Bytes())
		held = append(held, buf)
	}
	for _, buf := range held {
		srv.bufs.Put(buf)
	}
}

// poison fills b, to its capacity, with 0xAA.
func poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xAA
	}
}

// TestCollectPooledStateIsolation interleaves long and short, binary and
// JSON, accepted and rejected requests on several goroutines: every
// reply must be the one a server that never saw another request gives,
// so nothing of a request outlives it in the pooled scoreBuf. Run under
// -race it also proves a scoreBuf is never shared.
//
// The decoded user agent is a view of the request's bytes, so the other
// half of the test is that nothing keeps that view: the body buffer is
// overwritten after every request, and the coalescer's view of its read
// buffer after every batch, and the audit ledger, /debug/decisions and
// /v1/flagged must still hold what each session sent.
func TestCollectPooledStateIsolation(t *testing.T) {
	m, d := testModel(t)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	firefox := ua.Release{Vendor: ua.Firefox, Version: 110}
	honest, lying := payloadFor(d, chrome, chrome), payloadFor(d, firefox, chrome)
	for i := range lying.SessionID {
		lying.SessionID[i] = byte(0xA0 + i)
	}
	longUA := payloadFor(d, chrome, chrome)
	longUA.UserAgent += strings.Repeat(" padding", 60)
	longUA.SessionID[0] = 0xB0
	tcpHonest, tcpLying := *honest, *lying
	tcpHonest.SessionID[0], tcpLying.SessionID[0] = 0xC0, 0xC1
	tcpHonest.UserAgent += " (framed)"
	wantUA := map[string]string{hex.EncodeToString(make([]byte, fingerprint.SessionIDSize)): honest.UserAgent}
	for _, p := range []*fingerprint.Payload{honest, lying, longUA, &tcpHonest, &tcpLying} {
		wantUA[hexSessionID(&p.SessionID)] = p.UserAgent
	}

	noSID := jsonBodyFor(t, honest)
	noSID = append([]byte(`{`), noSID[bytes.Index(noSID, []byte(`"ua"`)):]...)
	fallback := bytes.Replace(jsonBodyFor(t, lying), []byte(`"ua"`), []byte(`"UA"`), 1)
	width := func(n int) []byte {
		return jsonBodyFor(t, &fingerprint.Payload{SessionID: lying.SessionID, UserAgent: "x", Values: honest.Values[:n]})
	}

	type request struct {
		endpoint string
		body     []byte
	}
	requests := []request{
		{EndpointBinary, binaryBodyFor(t, honest)},
		{EndpointJSON, jsonBodyFor(t, lying)},
		{EndpointJSON, noSID}, // no sid: the zero session ID, not the last request's
		{EndpointBinary, binaryBodyFor(t, longUA)},
		{EndpointJSON, fallback}, // takes encoding/json
		{EndpointJSON, jsonBodyFor(t, longUA)},
		{EndpointJSON, width(3)}, // bad_dim
		{EndpointBinary, binaryBodyFor(t, lying)},
		{EndpointJSON, []byte(`{"ua":"x","v":[1,2`)}, // bad_json
		{EndpointBinary, []byte("garbage")},          // decode
		{EndpointJSON, width(len(honest.Values) - 1)},
		{EndpointBinary, bytes.Repeat([]byte{'x'}, 5000)}, // too_large
		{EndpointJSON, []byte(`{}`)},
	}
	want := make([]string, len(requests))
	for i, rq := range requests {
		fresh, err := NewServer(Config{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer(post(fresh, rq.endpoint, bytes.NewReader(rq.body)))
	}
	if !strings.Contains(want[2], `"session_id":"00000000000000000000000000000000"`) {
		t.Fatalf("a frame with no sid answered %s", want[2])
	}

	dir := t.TempDir()
	led, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	srv, err := NewServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40*len(requests); k++ {
				i := (k*(2*g+1) + g) % len(requests) // a different order on each goroutine
				rq := requests[i]
				got := answer(post(srv, rq.endpoint, bytes.NewReader(rq.body)))
				poisonPooled(srv)
				if got != want[i] {
					t.Errorf("goroutine %d, request %d: answered %s, a fresh server answers %s", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The framed transport, through the same ingest core: two coalesced
	// batches on one connection's coalescer, the frame views of each
	// poisoned after it.
	tcp, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachTCP(tcp)
	server, client := net.Pipe()
	defer client.Close()
	c := &coalescer{s: tcp, conn: server, buf: tcp.newScoreBuf(),
		br: bufio.NewReaderSize(server, tcpReadBufSize), bw: bufio.NewWriterSize(server, tcpMaxBatch*tcpReplySize)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		for c.serveBatch() {
			poison(c.batch)
		}
	}()
	for batch := 0; batch < 2; batch++ {
		if _, err := client.Write(frameBytes(t, false, &tcpHonest, &tcpLying, &tcpHonest)); err != nil {
			t.Fatal(err)
		}
		readReplies(t, client, 3)
	}
	client.Close()
	<-served
	if got := tcp.BatchHist().Sum(); got != 6*time.Microsecond {
		t.Fatalf("the listener coalesced %v frames, want 6", got)
	}

	check := func(where string, rec audit.Record) {
		t.Helper()
		if ua, ok := wantUA[rec.SessionID]; !ok || rec.UserAgent != ua {
			t.Fatalf("%s: session %s recorded with user agent %q, sent %q", where, rec.SessionID, rec.UserAgent, ua)
		}
	}
	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	framed := 0
	stats, err := audit.Scan(dir, "", func(rec audit.Record) error {
		check("ledger", rec)
		if rec.Endpoint == EndpointTCP {
			framed++
		}
		return nil
	})
	if err != nil || !stats.Clean() || framed != 6 {
		t.Fatalf("ledger scan: %+v, %v; %d framed records, want 6", stats, err, framed)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/decisions?n=256", nil))
	var recent []audit.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &recent); err != nil || len(recent) != audit.DefaultRingSize {
		t.Fatalf("/debug/decisions: %d records, %v", len(recent), err)
	}
	for _, r := range recent {
		check("/debug/decisions", r)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/flagged", nil))
	var queue []audit.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &queue); err != nil || len(queue) == 0 {
		t.Fatalf("/v1/flagged: %d records, %v", len(queue), err)
	}
	for _, r := range queue {
		check("/v1/flagged", r)
		if id := r.SessionID; id != hexSessionID(&lying.SessionID) && id != hexSessionID(&tcpLying.SessionID) {
			t.Fatalf("/v1/flagged holds session %s, which no flagged request carried", id)
		}
	}
}

// nopWriter is a reusable http.ResponseWriter that keeps nothing, as the
// direct caller of bench/ is.
type nopWriter struct{ header http.Header }

func (w *nopWriter) Header() http.Header         { return w.header }
func (w *nopWriter) WriteHeader(int)             {}
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkCollectHandler is Server.ServeHTTP as an embedder mounts it:
// no sockets, a reused request and ResponseWriter, so allocs/op is the
// handler's own. scripts/benchgate.sh gates it.
func BenchmarkCollectHandler(b *testing.B) {
	m, d := testModel(b)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)
	for _, bc := range []struct {
		name, endpoint string
		body           []byte
	}{
		{"binary", EndpointBinary, binaryBodyFor(b, p)},
		{"json", EndpointJSON, jsonBodyFor(b, p)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := NewServer(Config{Model: m})
			if err != nil {
				b.Fatal(err)
			}
			var body bytes.Reader
			req := httptest.NewRequest(http.MethodPost, bc.endpoint, nil)
			req.Body = io.NopCloser(&body)
			w := &nopWriter{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Reset(bc.body)
				clear(w.header)
				srv.ServeHTTP(w, req)
			}
		})
	}
}

// BenchmarkCollectHandlerParallel is BenchmarkCollectHandler on every
// core: each goroutine of b.RunParallel hands Server.ServeHTTP its own
// reused requests, binary and JSON in turn, behind a server built as a
// replica builds it — drift monitor on, ledger sampling one benign
// verdict in a hundred. What concurrent requests share is what it
// measures; scripts/benchgate.sh runs it at -cpu 1,2, holds it to the
// serial twin's allocation ceiling and prints ns/op at one CPU over
// ns/op at two, the scaling ratio.
func BenchmarkCollectHandlerParallel(b *testing.B) {
	m, d := testModel(b)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)
	bodies := [...][]byte{binaryBodyFor(b, p), jsonBodyFor(b, p)}
	led, err := audit.Open(audit.Config{Dir: b.TempDir(), SampleBenign: 100})
	if err != nil {
		b.Fatal(err)
	}
	defer led.Close()
	drift, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(m.Features), Reservoir: 512, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(Config{Model: m, Drift: drift, Audit: led})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var body [len(bodies)]bytes.Reader
		var reqs [len(bodies)]*http.Request
		for i, endpoint := range [...]string{EndpointBinary, EndpointJSON} {
			reqs[i] = httptest.NewRequest(http.MethodPost, endpoint, nil)
			reqs[i].Body = io.NopCloser(&body[i])
		}
		w := &nopWriter{header: http.Header{}}
		for i := 0; pb.Next(); i++ {
			k := i % len(bodies)
			body[k].Reset(bodies[k])
			clear(w.header)
			srv.ServeHTTP(w, reqs[k])
		}
	})
}
