// Package collect is the web-scale deployment tier of Browser Polygraph:
// an HTTP service that serves the fingerprint-collection script, ingests
// ≤1 KB fingerprint payloads, scores them against the trained model in
// real time (paper §3 budget: 100 ms; measured cost: microseconds), and
// writes flagged sessions to the audit ledger, the one evidence log the
// fraud team's queue (/v1/flagged) reads. A framed TCP listener serves
// backend replay, and both transports hand every payload to one ingest
// core (ingest.go) — a binary one as its bytes, which the model's verdict
// memo answers without decoding when it has seen the class — so a
// verdict and its side effects — drift sample, audit record — do not
// depend on the socket it arrived on. The package also provides the
// clients.
//
// A request borrows what it needs instead of allocating it: body, decoded
// payload, feature vector, model scratch and encoded reply all live in a
// scoreBuf (ingest.go) — pooled per HTTP request, one per TCP connection
// — and the JSON frame the script sends is read by a scanner
// (jsonscan.go), with encoding/json behind it for every other body. What
// a scored HTTP request still allocates is its trace; the reply encodes
// the session ID as hex in place, the user agent is a view of the body,
// and both are copied into strings only for an audit record. A request
// reads the wall clock once, when its trace opens, and every boundary
// after it (decode end, score end, audit end, request end) is one
// monotonic read, an offset from that start.
//
// Observability (internal/obs) is threaded through the whole serving
// path: every ingest request runs under a deterministic trace whose
// spans (decode, score, audit) land in a lock-free ring served at
// /debug/traces, per-endpoint request latency feeds Prometheus
// histogram families at /metrics, rejects are counted by cause, and
// accepted feature vectors optionally stream into a drift monitor.
//
// A verdict's cost must not grow with the cores serving it, so the HTTP
// ingest path writes no cache line another core writes, apart from the
// trace-ID sequence, the drift monitor's and the ledger's sampling
// counters (DESIGN.md §3). Server.ServeHTTP matches the two ingest
// routes itself, ahead of the mux and its read lock; the scored-request
// counters, the endpoint histograms and the trace ring are split into
// shards (obs.ShardCount), and a request writes the shard of the
// scoreBuf it borrows. Readers sum the shards.
package collect

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/jsonappend"
	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

// The ingest endpoints, also the labels of the per-endpoint latency
// histogram family at /metrics. EndpointTCP labels the framed TCP
// listener.
const (
	EndpointBinary = "/v1/collect"
	EndpointJSON   = "/v1/collect-json"
	EndpointTCP    = "tcp"
)

// Decision is the scoring outcome returned to the risk system.
type Decision struct {
	SessionID  string `json:"session_id"`
	Cluster    int    `json:"cluster"`
	Matched    bool   `json:"matched"`
	RiskFactor int    `json:"risk_factor"`
	Flagged    bool   `json:"flagged"`
	// ElapsedMicros is the server-side scoring latency in microseconds.
	ElapsedMicros int64 `json:"elapsed_us"`
}

// AppendJSON appends d byte for byte as json.Marshal encodes it, without
// reflection (TestDecisionEncodeParity and its fuzz twin hold the two
// together). A json-tagged field added to Decision needs its line in
// appendTail.
func (d *Decision) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"session_id":`...)
	return d.appendTail(jsonappend.String(dst, d.SessionID))
}

// appendJSONHexID is AppendJSON with the lower-case hex of id in place of
// d.SessionID: the bytes Decision{SessionID: hex}.AppendJSON writes,
// without building the hex string. Hex digits need no JSON escaping.
func (d *Decision) appendJSONHexID(dst []byte, id *[fingerprint.SessionIDSize]byte) []byte {
	dst = append(dst, `{"session_id":"`...)
	dst = append(hex.AppendEncode(dst, id[:]), '"')
	return d.appendTail(dst)
}

// appendTail appends every field after session_id and the closing brace.
func (d *Decision) appendTail(dst []byte) []byte {
	dst = append(dst, `,"cluster":`...)
	dst = strconv.AppendInt(dst, int64(d.Cluster), 10)
	dst = append(dst, `,"matched":`...)
	dst = strconv.AppendBool(dst, d.Matched)
	dst = append(dst, `,"risk_factor":`...)
	dst = strconv.AppendInt(dst, int64(d.RiskFactor), 10)
	dst = append(dst, `,"flagged":`...)
	dst = strconv.AppendBool(dst, d.Flagged)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, d.ElapsedMicros, 10)
	return append(dst, '}')
}

// Config parameterizes the server.
type Config struct {
	// Model scores sessions; required.
	Model *core.Model
	// Store is ignored: the audit ledger is the one evidence log
	// (pinned.go).
	Store *MemoryStore
	// RateLimitPerSec enables per-client-IP token-bucket limiting on
	// the ingestion endpoints (0 disables), with a burst of 2× the rate.
	// Limited requests count as rejects with reason="rate_limit".
	RateLimitPerSec float64
	// Logger receives structured request/reject/slow-trace records;
	// nil discards. Build one with obs.NewLogger.
	Logger *slog.Logger
	// Tracer overrides the request tracer (shared with a TCP listener,
	// pinned seed in tests); nil builds one from TraceRingSize,
	// TraceSeed, SlowRequest, and Logger.
	Tracer *obs.Tracer
	// TraceRingSize is how many finished traces each shard of the
	// /debug/traces ring retains (0 = 256; obs.TracerConfig.RingSize).
	TraceRingSize int
	// TraceSeed drives the deterministic trace-ID stream.
	TraceSeed uint64
	// SlowRequest is the structured-log threshold for request traces
	// (0 = the paper's 100 ms scoring budget).
	SlowRequest time.Duration
	// Drift, when set, receives every accepted feature vector for live
	// PSI monitoring; /metrics then exports the drift families.
	Drift *obs.DriftMonitor
	// Audit, when set, durably records decisions in the append-only
	// ledger: every flagged session, benign ones per the ledger's
	// sampling policy. Every deployed model is archived in the ledger
	// directory first, so a deployment fails when that directory cannot
	// be written. Recent records are served, explained, at
	// /debug/decisions, their flagged ones at /v1/flagged, and the
	// polygraph_audit_* families appear at /metrics.
	Audit *audit.Ledger
	// ScoreDelay injects an artificial per-request delay into the HTTP
	// ingest path, inside the latency-histogram measurement and ahead of
	// the decode span. It exists solely for SLO burn-rate fault drills
	// (loadgen -fault-slow, CI's seeded breach test) and must never be
	// set in production.
	ScoreDelay time.Duration
}

// Server is the collection/scoring HTTP service. Create with NewServer;
// it implements http.Handler.
type Server struct {
	*ingest
	tracer  *obs.Tracer
	limiter *RateLimiter
	mux     *http.ServeMux

	// bufs pools the scoreBufs requests borrow.
	bufs sync.Pool

	// shards holds what every scored request writes, one shard per
	// ingest shard: a request writes the shard of the scoreBuf it
	// borrows, and readers sum them all.
	shards []serveShard

	// rejects counts rejections by cause, indexed by rejectReason.
	// Rejects are rare, so they stay unsharded.
	rejects [numReasons]atomic.Int64

	// trainedAtNs is the deployed model's training completion time
	// (unix nanoseconds, 0 = unknown), exported at /metrics.
	trainedAtNs atomic.Int64

	// tcp, when attached, contributes the EndpointTCP histogram series
	// and counters to /metrics.
	tcp atomic.Pointer[TCPServer]

	// slo, when attached, contributes the polygraph_slo_* families to
	// /metrics and serves the /debug/slo status page.
	slo atomic.Pointer[slo.Engine]

	// scoreDelay is Config.ScoreDelay (fault drills only).
	scoreDelay time.Duration
}

// serveShard is one shard (obs.ShardCount) of the HTTP server's
// per-request state.
type serveShard struct {
	received atomic.Int64 // scored requests
	flagged  atomic.Int64 // of which flagged
	// hists holds request-handling latency of scored requests (handler
	// entry → response written) per ingest route, indexed like
	// ingestRoutes: the polygraph_score_duration_microseconds family.
	hists [len(ingestRoutes)]obs.Hist
	_     obs.CacheLinePad
}

// ingestRoutes are the two ingest endpoints. NewServer registers them on
// the mux and ServeHTTP dispatches them ahead of it, both from this one
// table; a route's index picks its latency histogram. The binary route
// has no decoder: its body is a frame, whose class bytes the model
// scores as they arrived (core.Model.ScoreClass), decoding them only on
// a memo miss. The JSON route's decoded payload is scored by its class
// bytes too (fingerprint.AppendClass).
var ingestRoutes = [...]struct {
	path   string
	decode payloadDecoder
}{
	{EndpointBinary, nil},
	{EndpointJSON, decodeJSONPayload},
}

// rejectReason taxonomizes rejects for polygraph_rejected_total.
type rejectReason int

const (
	reasonRead rejectReason = iota
	reasonTooLarge
	reasonDecode
	reasonBadVersion
	reasonBadJSON
	reasonBadDim
	reasonScore
	reasonRateLimit
	reasonBadRequest
	numReasons
)

// reasonNames are the reason label values; every value is always
// exported (zeros included) so dashboards can rate() them from first
// scrape.
var reasonNames = [numReasons]string{
	"read", "too_large", "decode", "bad_version", "bad_json",
	"bad_dim", "score", "rate_limit", "bad_request",
}

// NewServer validates the config and builds the service.
func NewServer(cfg Config) (*Server, error) {
	in, err := newIngest(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ingest:     in,
		tracer:     tracerFor(cfg),
		mux:        http.NewServeMux(),
		shards:     make([]serveShard, in.shards),
		scoreDelay: cfg.ScoreDelay,
	}
	if cfg.RateLimitPerSec > 0 {
		// One limiter shared by both ingest endpoints: a client's budget
		// covers its total ingest traffic, not per-endpoint budgets.
		s.limiter = NewRateLimiter(cfg.RateLimitPerSec, int(2*cfg.RateLimitPerSec))
	}
	s.mux.HandleFunc("GET /script.js", s.handleScript)
	for route, rt := range ingestRoutes {
		s.mux.HandleFunc(http.MethodPost+" "+rt.path, func(w http.ResponseWriter, r *http.Request) {
			s.serveCollect(w, r, route)
		})
	}
	s.mux.HandleFunc("GET /v1/flagged", s.handleFlagged)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/", s.handleDebugIndex)
	s.mux.HandleFunc("GET /debug/traces", s.tracer.ServeTraces)
	s.mux.HandleFunc("GET /debug/decisions", s.handleDecisions)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
	return s, nil
}

// ServeHTTP implements http.Handler. It matches the ingest routes itself,
// ahead of the mux, whose lookup takes a read lock — a shared word every
// core serving verdicts would write. Only a POST whose path is exactly an
// ingest path, unescaped, is taken here; anything else goes to the mux,
// where every route is registered too, so a wrong method still gets its
// 405 with Allow, an uncleaned path its redirect, an escaped spelling
// the same handler (TestIngestRoutingParity).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.RawPath == "" {
		for route := range ingestRoutes {
			if r.URL.Path == ingestRoutes[route].path {
				s.serveCollect(w, r, route)
				return
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

// Tracer exposes the request tracer (to share with a TCP listener or
// inspect the ring in tests).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// AttachTCP joins a TCP batch listener to this server: its histogram
// and counters ride this server's /metrics exposition, and from here on
// it scores through this server's ingest core — one model holder, drift
// monitor and ledger — so a SwapModel reaches both transports at once
// and no audit record can carry a stale hash. Call it before t.Serve;
// whatever ingest settings t was built with are dropped.
func (s *Server) AttachTCP(t *TCPServer) {
	t.ingest = s.ingest
	s.tcp.Store(t)
}

// SetSLO attaches a burn-rate engine: its polygraph_slo_* families join
// the /metrics exposition and GET /debug/slo serves its status page.
// The caller owns the engine's tick loop (slo.Engine.Run or explicit
// ticks); the server only reads evaluations.
func (s *Server) SetSLO(e *slo.Engine) { s.slo.Store(e) }

// SLO returns the attached burn-rate engine (nil when none).
func (s *Server) SLO() *slo.Engine { return s.slo.Load() }

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	e := s.slo.Load()
	if e == nil {
		http.Error(w, "no SLO engine attached", http.StatusNotFound)
		return
	}
	e.ServeHTTP(w, r)
}

// SwapModel atomically replaces the scoring model — the deployment step
// of the §6.6 retraining loop. In-flight requests finish on the model
// they started with; subsequent requests (and the served script, if the
// feature set changed) use the new one. With an audit ledger the model
// is archived there first; an error leaves the old model serving.
func (s *Server) SwapModel(m *core.Model) error {
	if m == nil {
		return errors.New("collect: SwapModel with nil model")
	}
	return s.model.store(m)
}

// ModelHash returns the audit hash of the deployed model (the value
// stamped on every audit record it produces).
func (s *Server) ModelHash() string { return s.model.loadDeployed().hash }

// Model returns the currently deployed model.
func (s *Server) Model() *core.Model { return s.model.load() }

// SetModelTrainedAt records when the deployed model was trained (zero
// time = unknown); /metrics exports it as
// polygraph_model_trained_timestamp_seconds so dashboards can alert on
// stale models.
func (s *Server) SetModelTrainedAt(t time.Time) {
	if t.IsZero() {
		s.trainedAtNs.Store(0)
		return
	}
	s.trainedAtNs.Store(t.UnixNano())
}

// ModelTrainedAt returns the recorded training time (zero when unset).
func (s *Server) ModelTrainedAt() time.Time {
	ns := s.trainedAtNs.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (s *Server) handleScript(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/javascript")
	w.Header().Set("Cache-Control", "public, max-age=3600")
	io.WriteString(w, CollectionScript(s.model.load().Features, EndpointJSON))
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// serveCollect is the shared ingest path of ingestRoutes[route]: borrow
// a scoreBuf, open its trace on its shard, rate-limit, decode, score, and
// seal the trace with the outcome. Only successfully scored requests
// feed the route's latency histogram — rejects are counted by cause
// instead — and it records the duration Finish measured, so the trace
// and the histogram agree and the request end is one clock read. The
// trace's start is the handler's.
func (s *Server) serveCollect(w http.ResponseWriter, r *http.Request, route int) {
	buf, _ := s.bufs.Get().(*scoreBuf)
	if buf == nil {
		buf = s.newScoreBuf()
	}
	defer s.bufs.Put(buf)
	rt := &ingestRoutes[route]
	tr := &buf.trace
	s.tracer.Open(tr, rt.path, buf.shard)
	status := s.collectOne(w, r, tr, buf, rt.decode)
	d := s.tracer.Finish(tr, status)
	if status == "ok" {
		s.shards[buf.shard].hists[route].Record(d)
	}
}

// jsonContentType is the Content-Type of every verdict reply, assigned to
// the header map as is: Header.Set would canonicalise the key and
// allocate the slice per request. It is never mutated; net/http clones
// the header map at WriteHeader and only ever deletes from or appends to
// it.
var jsonContentType = []string{"application/json"}

// payloadDecoder decodes a bounded request body into p, overwriting
// every field, or reports the reject reason. p.UserAgent may be a view
// of body: the caller keeps body as it is for as long as it uses p.
type payloadDecoder func(p *fingerprint.Payload, body []byte) (rejectReason, error)

// jsonPayload is the sendBeacon-friendly JSON frame the script posts.
type jsonPayload struct {
	SessionID string  `json:"sid"`
	UserAgent string  `json:"ua"`
	Values    []int64 `json:"v"`
}

// decodeJSONPayload decodes the frame with scanJSONPayload when the body
// is the shape the script sends, and with encoding/json when it is
// anything else — the reference decoder, and the only one that ever
// rejects a body.
func decodeJSONPayload(p *fingerprint.Payload, body []byte) (rejectReason, error) {
	if scanJSONPayload(p, body) {
		return 0, nil
	}
	var jp jsonPayload
	if err := json.Unmarshal(body, &jp); err != nil {
		return reasonBadJSON, err
	}
	*p = fingerprint.Payload{UserAgent: jp.UserAgent, Values: jp.Values}
	if sid, err := hex.DecodeString(jp.SessionID); err == nil && len(sid) == fingerprint.SessionIDSize {
		copy(p.SessionID[:], sid)
	}
	return 0, nil
}

// maxBodyBytes caps a request body: the paper's 1 KB payload budget
// with framing slack for the JSON variant.
const maxBodyBytes = 4 * fingerprint.MaxPayloadSize

// readPayload reads the bounded request body into buf.body — one byte
// past the limit at most, which is how a body over it is told — and,
// on a route with a decoder, decodes it into buf.payload, or reports the
// reject: status code, reason and message.
func (s *Server) readPayload(buf *scoreBuf, body io.Reader, decode payloadDecoder) (int, rejectReason, error) {
	buf.body.Reset()
	buf.limited = io.LimitedReader{R: body, N: maxBodyBytes + 1}
	_, err := buf.body.ReadFrom(&buf.limited)
	buf.limited.R = nil // the pool must not keep the request alive
	if err != nil {
		return http.StatusBadRequest, reasonRead, fmt.Errorf("read: %w", err)
	}
	if buf.body.Len() > maxBodyBytes {
		return http.StatusRequestEntityTooLarge, reasonTooLarge, fmt.Errorf("body over %d bytes", maxBodyBytes)
	}
	if decode == nil {
		return http.StatusOK, 0, nil
	}
	if reason, err := decode(&buf.payload, buf.body.Bytes()); err != nil {
		return http.StatusBadRequest, reason, fmt.Errorf("payload: %w", err)
	}
	return http.StatusOK, 0, nil
}

// collectOne handles one ingest request under an open trace and returns
// the trace status ("ok" or the reject reason). Body, payload and reply
// live in buf, and the counters it adds to are buf's shard. Its
// boundaries are offsets from the trace start: the decode span starts
// there, at its own clock read only when the fault drill's delay or the
// rate limiter ran first, and its end is the score span's start. On the
// binary route the decode span is the read and the size check, and the
// frame's decode, when the verdict memo does not answer it, falls in the
// score span.
func (s *Server) collectOne(w http.ResponseWriter, r *http.Request, tr *obs.Trace, buf *scoreBuf, decode payloadDecoder) string {
	if s.scoreDelay > 0 {
		time.Sleep(s.scoreDelay) // fault drill: inflate measured latency
	}
	if s.limiter != nil && !s.limiter.Allow(clientKey(r)) {
		s.reject(w, tr, http.StatusTooManyRequests, reasonRateLimit, "rate limit exceeded")
		return reasonNames[reasonRateLimit]
	}
	var decodeStart time.Duration
	if s.scoreDelay > 0 || s.limiter != nil {
		decodeStart = time.Since(tr.StartTime())
	}
	code, reason, err := s.readPayload(buf, r.Body, decode)
	decodeEnd := time.Since(tr.StartTime())
	tr.RecordSpan("decode", tr.StartTime().Add(decodeStart), decodeEnd-decodeStart)
	if err != nil {
		s.reject(w, tr, code, reason, "%v", err)
		return reasonNames[reason]
	}
	dep := s.model.loadDeployed()
	buf.newBlock()
	if decode == nil {
		s.scoreFrame(dep, buf, buf.body.Bytes())
	} else {
		p := &buf.payload
		buf.class = fingerprint.AppendClass(buf.class[:0], p.UserAgent, p.Values)
		s.scoreClass(dep, buf, p.SessionID[:], buf.class)
	}
	elapsed := s.settle(tr, dep, buf, decodeEnd)
	v := &buf.block[0]
	if v.err != nil {
		code := http.StatusBadRequest
		if v.reason == reasonScore {
			code = http.StatusInternalServerError
		}
		s.reject(w, tr, code, v.reason, "%v", v.err)
		return reasonNames[v.reason]
	}
	res := v.res
	sh := &s.shards[buf.shard]
	sh.received.Add(1)
	if res.Flagged() {
		sh.flagged.Add(1)
	}
	d := Decision{
		Cluster:       res.Cluster,
		Matched:       res.Matched,
		RiskFactor:    res.RiskFactor,
		Flagged:       res.Flagged(),
		ElapsedMicros: elapsed,
	}
	// One Write of what json.NewEncoder(w).Encode(&d) would send, d's
	// SessionID the payload's in hex.
	buf.reply = append(d.appendJSONHexID(buf.reply[:0], &v.sessionID), '\n')
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(buf.reply); err != nil {
		s.logWarn(tr, "collect: encode response failed", "err", err.Error())
	}
	return "ok"
}

// clientKey is the rate-limit key: the remote IP, ignoring the
// ephemeral port.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// reject counts, logs, and answers one rejected request. tr may be nil
// for untraced endpoints (stats/flagged query validation).
func (s *Server) reject(w http.ResponseWriter, tr *obs.Trace, code int, reason rejectReason, format string, args ...any) {
	s.rejects[reason].Add(1)
	msg := fmt.Sprintf(format, args...)
	s.logWarn(tr, "collect: reject",
		"code", code, "reason", reasonNames[reason], "detail", msg)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, code)
}

// snapshot reads the received and flagged counters, summed over the
// shards. Every shard's flagged is loaded before any shard's received:
// ingest counts a request received before flagged, on one shard, so
// flagged never exceeds received.
func (s *Server) snapshot() (received, flagged int64) {
	for i := range s.shards {
		flagged += s.shards[i].flagged.Load()
	}
	for i := range s.shards {
		received += s.shards[i].received.Load()
	}
	return received, flagged
}
