package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"
)

// A caller makes the k-th call of one closed-loop client: it sends the
// next unit of the stream, waits for the answer, checks it against the
// oracle and reports how many ops it attempted and how many failed.
type caller interface {
	call(k int) (attempted, failed int)
	received() int64 // answer bytes read so far
	close()
}

// cursor is the part every caller shares: which units of the stream are
// its own, and how many answer bytes it has read.
type cursor struct {
	st        *stream
	w, c      int
	respBytes int64
}

func (c *cursor) received() int64 { return c.respBytes }

// clients is C = min(2, nproc) connections, each driven by its own
// goroutine. Client w sends units w, w+C, w+2C, ... of the stream, cycling.
type clients struct {
	callers    []caller
	opsPerCall int
	next       []int // per client: how many calls it has made
}

func newClients(wl workload, r *rig, st *stream, c int) (*clients, error) {
	cl := &clients{opsPerCall: 1, next: make([]int, c)}
	for w := 0; w < c; w++ {
		var (
			cr  caller
			err error
			cur = cursor{st: st, w: w, c: c}
		)
		switch wl.transport {
		case transportHTTP:
			cr, err = newHTTPCaller(r.baseURL, cur)
		case transportDirect:
			cr, err = newDirectCaller(r.handler, cur)
		case transportTCP:
			cl.opsPerCall = tcpBlock
			cr, err = newTCPCaller(r.tcpAddr, cur)
		}
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.callers = append(cl.callers, cr)
	}
	return cl, nil
}

func (cl *clients) received() (total int64) {
	for _, c := range cl.callers {
		total += c.received()
	}
	return total
}

func (cl *clients) close() {
	for _, c := range cl.callers {
		c.close()
	}
}

// callLog is one client's raw record of a phase, allocated before the
// phase starts. A failed call is stored as 0, so it counts towards
// neither throughput nor latency.
type callLog struct {
	lat     []uint32 // ns per call (at most 4.29 s), in completion order
	n       int
	winEnd  []int // winEnd[w] = samples completed before window w closed
	dropped int   // calls that found lat full
}

type phaseResult struct {
	attempted, failed int64
	elapsed           time.Duration
	cpu               time.Duration
	logs              []*callLog
	calls             [][2]int // per client: first call and one past the last
	window            time.Duration
	windows           int
	opsPerCall        int
}

// run drives every client for dur and returns the raw logs. capacity is
// the number of latency samples to pre-allocate per client.
func (cl *clients) run(dur, window time.Duration, capacity int) *phaseResult {
	res := &phaseResult{window: window, windows: int(dur / window), opsPerCall: cl.opsPerCall,
		calls: make([][2]int, len(cl.callers))}
	for range cl.callers {
		res.logs = append(res.logs, &callLog{lat: make([]uint32, capacity), winEnd: make([]int, 0, res.windows+2)})
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		started = time.Now()
		cpu0    = cpuTime()
	)
	for w, cr := range cl.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := res.logs[w]
			att, fail, k := log.drive(cr, cl.next[w], started, dur, window)
			mu.Lock()
			res.calls[w] = [2]int{cl.next[w], k}
			cl.next[w] = k
			res.attempted += att
			res.failed += fail
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(started)
	res.cpu = cpuTime() - cpu0
	return res
}

func (l *callLog) drive(cr caller, k int, started time.Time, dur, window time.Duration) (attempted, failed int64, next int) {
	deadline := started.Add(dur)
	windowEnd := started.Add(window)
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		a, f := cr.call(k)
		k++
		t1 := time.Now()
		for !t1.Before(windowEnd) {
			l.winEnd = append(l.winEnd, l.n)
			windowEnd = windowEnd.Add(window)
		}
		d := uint32(min(max(t1.Sub(t0), 1), math.MaxUint32))
		if f > 0 {
			d = 0
		}
		if l.n < len(l.lat) {
			l.lat[l.n] = d
			l.n++
		} else {
			l.dropped++
		}
		attempted += int64(a)
		failed += int64(f)
	}
	for !deadline.Before(windowEnd) {
		l.winEnd = append(l.winEnd, l.n)
		windowEnd = windowEnd.Add(window)
	}
	return attempted, failed, k
}

// windowSamples returns the successful calls' latencies that completed
// in window w, over all clients, ascending.
func (p *phaseResult) windowSamples(w int, into []int64) []int64 {
	into = into[:0]
	for _, l := range p.logs {
		if w >= len(l.winEnd) {
			continue
		}
		lo := 0
		if w > 0 {
			lo = l.winEnd[w-1]
		}
		for _, d := range l.lat[lo:l.winEnd[w]] {
			if d > 0 {
				into = append(into, int64(d))
			}
		}
	}
	slices.Sort(into)
	return into
}

type phaseStats struct {
	rps          float64 // median over windows of verdict-correct ops per second
	p50us, p99us float64
	samples      int
	tail         int // fewest samples beyond p99 in any window
	dropped      int
	// per window, for the progress line
	rates, p50s, p99s []float64
}

// stats reduces the raw logs: throughput and p99 are medians over the
// whole windows of the phase (robust to a neighbour's burst), p50 is
// exact over every sample of those windows.
func (p *phaseResult) stats() phaseStats {
	var (
		st      = phaseStats{tail: -1}
		all     []int64
		scratch []int64
	)
	for _, l := range p.logs {
		st.dropped += l.dropped
	}
	for w := 0; w < p.windows; w++ {
		scratch = p.windowSamples(w, scratch)
		st.rates = append(st.rates, float64(len(scratch)*p.opsPerCall)/p.window.Seconds())
		if len(scratch) == 0 {
			continue
		}
		st.p50s = append(st.p50s, float64(quantileSorted(scratch, 0.50))/1e3)
		st.p99s = append(st.p99s, float64(quantileSorted(scratch, 0.99))/1e3)
		beyond := len(scratch) - int(math.Ceil(0.99*float64(len(scratch))))
		if st.tail < 0 || beyond < st.tail {
			st.tail = beyond
		}
		all = append(all, scratch...)
	}
	slices.Sort(all)
	st.samples = len(all)
	st.rps = median(st.rates)
	st.p50us = float64(quantileSorted(all, 0.50)) / 1e3
	st.p99us = median(st.p99s)
	return st
}

// ---- HTTP: plain net/http over one keep-alive connection per client ----

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// posts is the pair of requests one client reuses for every call: only
// the body changes.
type posts struct {
	bin, json *http.Request
	body      bodyReader
}

func newPosts(baseURL string) (*posts, error) {
	p := &posts{}
	var err error
	if p.bin, err = postRequest(baseURL+pathBinary, "application/octet-stream"); err != nil {
		return nil, err
	}
	if p.json, err = postRequest(baseURL+pathJSON, "application/json"); err != nil {
		return nil, err
	}
	return p, nil
}

// request returns the request that carries o's body.
func (p *posts) request(o *op) *http.Request {
	req := p.bin
	if o.json {
		req = p.json
	}
	p.body.Reset(o.body)
	req.Body = &p.body
	req.ContentLength = int64(len(o.body))
	return req
}

type httpCaller struct {
	cursor
	client *http.Client
	posts  *posts
	buf    []byte
}

func newHTTPCaller(baseURL string, cur cursor) (*httpCaller, error) {
	h := &httpCaller{
		cursor: cur,
		buf:    make([]byte, 4096),
		// No Client.Timeout: it costs a goroutine per request. A hung rig
		// is caught by the header timeout and the run's wall-clock cap.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost:   1,
			DisableCompression:    true,
			ResponseHeaderTimeout: 30 * time.Second,
		}},
	}
	var err error
	h.posts, err = newPosts(baseURL)
	return h, err
}

func postRequest(rawURL, contentType string) (*http.Request, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	return &http.Request{
		Method: http.MethodPost, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:     http.Header{"Content-Type": {contentType}},
		RemoteAddr: "127.0.0.1:1",
	}, nil
}

func (h *httpCaller) call(k int) (int, int) {
	o := &h.st.ops[(h.w+k*h.c)%len(h.st.ops)]
	resp, err := h.client.Do(h.posts.request(o))
	if err != nil {
		return 1, 1
	}
	n, err := io.ReadFull(resp.Body, h.buf)
	resp.Body.Close()
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		return 1, 1 // read error, or an answer larger than any verdict
	}
	h.respBytes += int64(n)
	if !o.answered(resp.StatusCode, h.buf[:n]) {
		return 1, 1
	}
	return 1, 0
}

func (h *httpCaller) close() { h.client.CloseIdleConnections() }

// answered is the oracle check of one HTTP answer: the verdict for a
// valid body, any 4xx for a malformed one.
func (o *op) answered(status int, body []byte) bool {
	if o.malformed {
		return status >= 400 && status < 500
	}
	return status == http.StatusOK && o.answerOK(body)
}

// ---- direct: the handler an embedder mounts, no sockets ----

// respWriter is the least a handler needs of an http.ResponseWriter.
type respWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *respWriter) Header() http.Header { return w.header }
func (w *respWriter) WriteHeader(s int)   { w.status = s }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	clear(w.header)
	w.status = http.StatusOK
	w.body = w.body[:0]
}

type directCaller struct {
	cursor
	handler *httpIngest
	posts   *posts
	rw      respWriter
}

func newDirectCaller(handler *httpIngest, cur cursor) (*directCaller, error) {
	d := &directCaller{cursor: cur, handler: handler,
		rw: respWriter{header: http.Header{}, body: make([]byte, 0, 4096)}}
	var err error
	d.posts, err = newPosts("http://bench.invalid")
	return d, err
}

// serve hands one op to the handler and checks the answer.
func (d *directCaller) serve(o *op) bool {
	d.rw.reset()
	seamServeHTTP(d.handler, &d.rw, d.posts.request(o))
	d.respBytes += int64(len(d.rw.body))
	return o.answered(d.rw.status, d.rw.body)
}

func (d *directCaller) call(k int) (int, int) {
	if !d.serve(&d.st.ops[(d.w+k*d.c)%len(d.st.ops)]) {
		return 1, 1
	}
	return 1, 0
}

func (d *directCaller) close() {}

// ---- framed TCP: hello, then 64-frame blocks written in one piece ----

type tcpCaller struct {
	cursor
	conn net.Conn
	buf  []byte
}

func newTCPCaller(addr string, cur cursor) (*tcpCaller, error) {
	if len(cur.st.blocks) == 0 {
		return nil, fmt.Errorf("tcp: stream of %d ops holds no %d-frame block", len(cur.st.ops), tcpBlock)
	}
	conn, err := dialFramed("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpCaller{cursor: cur, conn: conn, buf: make([]byte, tcpBlock*tcpReplySize)}, nil
}

func dialFramed(network, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(conn, tcpHello); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

func (t *tcpCaller) call(k int) (int, int) {
	b := &t.st.blocks[(t.w+k*t.c)%len(t.st.blocks)]
	failed := exchangeBlock(t.conn, b, t.buf)
	t.respBytes += int64(len(b.want))
	return tcpBlock, failed
}

// exchangeBlock writes one block, reads its replies and returns how many
// of them differ from the oracle.
func exchangeBlock(conn net.Conn, b *block, buf []byte) (failed int) {
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(b.wire); err != nil {
		return tcpBlock
	}
	got := buf[:len(b.want)]
	if _, err := io.ReadFull(conn, got); err != nil {
		return tcpBlock
	}
	if bytes.Equal(got, b.want) {
		return 0
	}
	for i := 0; i < len(got); i += tcpReplySize {
		if !bytes.Equal(got[i:i+tcpReplySize], b.want[i:i+tcpReplySize]) {
			failed++
		}
	}
	return failed
}

func (t *tcpCaller) close() { t.conn.Close() }
