package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// wireVerdict is what a client can read off either transport's answer.
type wireVerdict struct {
	Cluster, Risk    int
	Matched, Flagged bool
	Err              bool
}

// sideEffects is everything one run left behind, with the fields that
// legitimately differ per transport or per run (endpoint, clock, trace
// ID, ledger sequence) zeroed.
type sideEffects struct {
	Verdicts []wireVerdict
	Status   string // trace status of the last trace
	Drift    uint64
	Audit    []audit.Record
	Flagged  []audit.Record // the /v1/flagged queue
}

// ingestRig is one set of sinks; every transport under test is built
// over a fresh one from the same Config shape.
type ingestRig struct {
	cfg    Config
	drift  *obs.DriftMonitor
	ledger *audit.Ledger
}

func newIngestRig(t *testing.T, m *core.Model) *ingestRig {
	t.Helper()
	drift, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(m.Features), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := audit.Open(audit.Config{Dir: t.TempDir(), SampleBenign: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ledger.Close() })
	return &ingestRig{
		cfg: Config{
			Model:     m,
			Drift:     drift,
			Audit:     ledger,
			TraceSeed: 1,
		},
		drift: drift, ledger: ledger,
	}
}

// effects collects what the run left in the rig's sinks. reader is a
// server over the rig's ledger: its /v1/flagged queue must be exactly
// the flagged records of the ledger's ring.
func (r *ingestRig) effects(t *testing.T, verdicts []wireVerdict, traces http.Handler, reader *Server) sideEffects {
	t.Helper()
	out := sideEffects{Verdicts: verdicts, Drift: r.drift.Seen()}
	if last := tracePageOf(t, traces, 1).Last; len(last) == 1 {
		out.Status = last[0].Status
	}
	normalize := func(rec audit.Record) audit.Record {
		if rec.TraceID == "" || rec.TimeNs == 0 || rec.Endpoint == "" {
			t.Fatalf("audit record missing trace ID, time or endpoint: %+v", rec)
		}
		rec.Seq, rec.TimeNs, rec.TraceID, rec.Endpoint = 0, 0, "", ""
		return rec
	}
	for _, rec := range r.ledger.Recent(100, "", "") {
		out.Audit = append(out.Audit, normalize(rec))
	}
	rec := httptest.NewRecorder()
	reader.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/flagged", nil))
	var queue []audit.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &queue); err != nil {
		t.Fatalf("/v1/flagged: %d %q: %v", rec.Code, rec.Body.String(), err)
	}
	if ring := r.ledger.Recent(100, "flagged", ""); !reflect.DeepEqual(queue, ring) {
		t.Fatalf("/v1/flagged\n%+v\n!= the ledger ring's flagged records\n%+v", queue, ring)
	}
	for _, rec := range queue {
		out.Flagged = append(out.Flagged, normalize(rec))
	}
	return out
}

// An ingestTransport sends the same wire bytes `frames` times through
// one way into the ingest core.
type ingestTransport struct {
	name   string
	json   bool
	frames int
	send   func(t *testing.T, r *ingestRig, wire []byte, frames int) sideEffects
}

func sendHTTP(endpoint string) func(*testing.T, *ingestRig, []byte, int) sideEffects {
	return func(t *testing.T, r *ingestRig, wire []byte, _ int) sideEffects {
		srv, err := NewServer(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(wire)))
		v := wireVerdict{Err: rec.Code != http.StatusOK}
		if !v.Err {
			var d Decision
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatal(err)
			}
			v = wireVerdict{Cluster: d.Cluster, Risk: d.RiskFactor, Matched: d.Matched, Flagged: d.Flagged}
		}
		ex := obs.ParseExpositionString(srv.MetricsText())
		if received, rejected := ex.Sum(obs.FamCollections.Name), ex.Sum(obs.FamRejected.Name); received != 1-rejected {
			t.Fatalf("received %g, rejected %g for one request", received, rejected)
		}
		return r.effects(t, []wireVerdict{v}, srv, srv)
	}
}

func sendTCP(t *testing.T, r *ingestRig, wire []byte, frames int) sideEffects {
	srv, err := NewTCPServer(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, cleanup := pipeServe(srv)
	defer cleanup()
	// One Write: net.Pipe hands it over whole, so the coalescer
	// sees every frame buffered and serves them as one batch.
	burst := []byte(tcpHello)
	for i := 0; i < frames; i++ {
		burst = binary.BigEndian.AppendUint32(burst, uint32(len(wire)))
		burst = append(burst, wire...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	var verdicts []wireVerdict
	for _, reply := range readReplies(t, conn, frames) {
		flags := reply[tcpReplySize-1]
		verdicts = append(verdicts, wireVerdict{
			Cluster: int(binary.BigEndian.Uint16(reply[fingerprint.SessionIDSize:])),
			Risk:    int(binary.BigEndian.Uint16(reply[fingerprint.SessionIDSize+2:])),
			Matched: flags&tcpMatched != 0,
			Flagged: flags&tcpFlagged != 0,
			Err:     flags&tcpErrorFlag != 0,
		})
	}
	if h := &srv.batchHist; h.Count() != 1 || h.Summary().Max != time.Duration(frames)*time.Microsecond {
		t.Fatalf("%d frames served as %d batches (max %v), want one batch", frames, h.Count(), h.Summary().Max)
	}
	if got := srv.scored.Load() + srv.badFrames.Load(); got != int64(frames) {
		t.Fatalf("scored+bad = %d, want %d", got, frames)
	}
	reader, err := NewServer(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.effects(t, verdicts, http.HandlerFunc(srv.tracer.ServeTraces), reader)
}

// TestIngestParityAcrossTransports is the single-core contract: the same
// payload gets the same verdict, the same reject reason and the same
// side effects — drift sample, audit record, /v1/flagged entry —
// whichever transport carried it.
func TestIngestParityAcrossTransports(t *testing.T) {
	m, d := testModel(t)
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	firefox := ua.Release{Vendor: ua.Firefox, Version: 110}
	garbled := payloadFor(d, chrome, chrome)
	garbled.UserAgent = "definitely not a browser"

	// A copy of the model with a hair-trigger novelty guard: every
	// surface is alien to it, so an honest claim is flagged while still
	// matching its cluster — the one verdict with Flagged and Matched
	// both set.
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	jumpy, err := core.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	jumpy.NoveltyThreshold = 1e-12

	const block = 3
	transports := []ingestTransport{
		{name: "http-binary", frames: 1, send: sendHTTP(EndpointBinary)},
		{name: "http-json", frames: 1, json: true, send: sendHTTP(EndpointJSON)},
		{name: "tcp-frame", frames: 1, send: sendTCP},
		{name: "tcp-block", frames: block, send: sendTCP},
	}
	cases := []struct {
		name    string
		model   *core.Model // nil = m
		payload *fingerprint.Payload
		mangle  func(wire []byte) []byte // damage below the payload level
		reason  string                   // "ok", or the reject reason on the binary wire
		flagged bool
		matched bool
	}{
		{name: "honest match", payload: payloadFor(d, chrome, chrome), reason: "ok", matched: true},
		{name: "engine/UA mismatch", payload: payloadFor(d, firefox, chrome), reason: "ok", flagged: true},
		{name: "unparseable UA", payload: garbled, reason: "ok", flagged: true},
		{name: "novel surface, honest UA", model: jumpy, payload: payloadFor(d, chrome, chrome), reason: "ok", flagged: true, matched: true},
		{name: "wrong width", payload: &fingerprint.Payload{UserAgent: "x", Values: []int64{1, 2, 3}}, reason: "bad_dim"},
		{name: "model without a plan", model: unplannable(m), payload: payloadFor(d, chrome, chrome), reason: "score"},
		{name: "bad version byte", payload: payloadFor(d, chrome, chrome), reason: "bad_version",
			mangle: func(w []byte) []byte { w[2] = 0xFF; return w }},
		{name: "truncated body", payload: payloadFor(d, chrome, chrome), reason: "decode",
			mangle: func(w []byte) []byte { return w[:len(w)/2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := tc.model
			if model == nil {
				model = m
			}
			var base sideEffects
			for ti, tp := range transports {
				if tp.json && tc.reason == "bad_version" {
					continue // the JSON frame carries no version byte to damage
				}
				wire, err := tc.payload.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				wantReason := tc.reason
				if tp.json {
					wire, _ = json.Marshal(jsonPayload{
						SessionID: hex.EncodeToString(tc.payload.SessionID[:]),
						UserAgent: tc.payload.UserAgent,
						Values:    tc.payload.Values,
					})
					if tc.mangle != nil {
						wantReason = "bad_json" // the only way a JSON body breaks below the payload
					}
				}
				if tc.mangle != nil {
					wire = tc.mangle(wire)
				}
				got := tp.send(t, newIngestRig(t, model), wire, tp.frames)

				// Absolute expectations, per frame.
				if len(got.Verdicts) != tp.frames {
					t.Fatalf("%s: %d answers for %d frames", tp.name, len(got.Verdicts), tp.frames)
				}
				for _, v := range got.Verdicts {
					if v.Err != (tc.reason != "ok") || v.Flagged != tc.flagged || v.Matched != tc.matched {
						t.Fatalf("%s: verdict %+v, want err=%v flagged=%v matched=%v", tp.name, v, tc.reason != "ok", tc.flagged, tc.matched)
					}
				}
				wantStatus := wantReason
				if wantReason != "ok" && tp.frames > 1 {
					wantStatus = "partial" // a batch trace names no single frame's reason
				}
				if got.Status != wantStatus {
					t.Fatalf("%s: trace status %q, want %q", tp.name, got.Status, wantStatus)
				}
				scored, flagged := 0, 0
				if tc.reason == "ok" {
					scored = tp.frames
				}
				if tc.flagged {
					flagged = tp.frames
				}
				if int(got.Drift) != scored || len(got.Audit) != scored || len(got.Flagged) != flagged {
					t.Fatalf("%s: drift=%d audit=%d flagged=%d, want %d scored and %d flagged",
						tp.name, got.Drift, len(got.Audit), len(got.Flagged), scored, flagged)
				}

				// Relative expectations: every frame's verdict and side
				// effects equal the first transport's.
				if ti == 0 {
					base = got
					continue
				}
				for i := range got.Verdicts {
					if got.Verdicts[i] != base.Verdicts[0] {
						t.Fatalf("%s: verdict %+v != %s's %+v", tp.name, got.Verdicts[i], transports[0].name, base.Verdicts[0])
					}
				}
				for i := range got.Flagged {
					if !reflect.DeepEqual(got.Flagged[i], base.Flagged[0]) {
						t.Fatalf("%s: /v1/flagged entry\n%+v\n!= %s's\n%+v", tp.name, got.Flagged[i], transports[0].name, base.Flagged[0])
					}
				}
				for i := range got.Audit {
					if !reflect.DeepEqual(got.Audit[i], base.Audit[0]) {
						t.Fatalf("%s: audit record\n%+v\n!= %s's\n%+v", tp.name, got.Audit[i], transports[0].name, base.Audit[0])
					}
				}
			}
		})
	}
}

// TestTCPAuditFailureIsLoggedNotSwallowed closes the ledger under a
// live listener: frames must still be answered with verdicts, each
// failed record must produce one warning carrying the batch's trace ID,
// and the ledger's accounting identity must survive.
func TestTCPAuditFailureIsLoggedNotSwallowed(t *testing.T) {
	m, d := testModel(t)
	led, err := audit.Open(audit.Config{Dir: t.TempDir(), SampleBenign: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	srv, err := NewTCPServer(Config{
		Model:     m,
		Audit:     led,
		TraceSeed: 9,
		Logger:    obs.NewLogger(&syncWriter{w: &logBuf}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, cleanup := pipeServe(srv)

	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	honest := payloadFor(d, chrome, chrome)
	lying := payloadFor(d, ua.Release{Vendor: ua.Firefox, Version: 110}, chrome)
	if _, err := conn.Write(frameBytes(t, true, honest, lying)); err != nil {
		t.Fatal(err)
	}
	replies := readReplies(t, conn, 2)
	cleanup() // handler goroutine gone: the log buffer is quiescent

	for i, r := range replies {
		if r[tcpReplySize-1]&tcpErrorFlag != 0 {
			t.Fatalf("frame %d answered with the error flag; an audit failure must not cost the verdict", i)
		}
	}
	if replies[0][tcpReplySize-1]&tcpFlagged != 0 || replies[1][tcpReplySize-1]&tcpFlagged == 0 {
		t.Fatalf("verdicts wrong: %v", replies)
	}
	logged := logBuf.String()
	if got := strings.Count(logged, "collect: audit record failed"); got != 2 {
		t.Fatalf("%d audit-failure warnings, want one per frame (2):\n%s", got, logged)
	}
	wantID := traceIDs(9, 1)[0]
	if got := strings.Count(logged, obs.TraceIDKey+"="+wantID); got != 2 {
		t.Fatalf("warnings do not carry the batch trace ID %s:\n%s", wantID, logged)
	}
	c := led.Counters()
	if scored := srv.scored.Load(); scored != 2 || c.Records+c.Dropped != scored {
		t.Fatalf("records %d + dropped %d != scored %d", c.Records, c.Dropped, scored)
	}
}

// TestIngestBenignSampledOutAllocs pins the common payload's cost: a
// benign verdict that the ledger samples out must not pay for the audit
// path's owned vector copy or the store path's hex session ID — the core
// allocates no more than the model call and the drift monitor do alone.
func TestIngestBenignSampledOutAllocs(t *testing.T) {
	m, d := testModel(t)
	newDrift := func() *obs.DriftMonitor {
		mon, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(m.Features), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	led, err := audit.Open(audit.Config{Dir: t.TempDir(), SampleBenign: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	srv, err := NewServer(Config{Model: m, Drift: newDrift(), Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)

	vec := fingerprint.ValuesToVector(p.Values)
	scratch, alone := m.NewScratch(), newDrift()
	floor := testing.AllocsPerRun(200, func() {
		if _, err := m.ScoreStringWith(scratch, vec, p.UserAgent); err != nil {
			t.Fatal(err)
		}
		alone.Observe(vec)
	})

	buf, dep := srv.newScoreBuf(), srv.model.loadDeployed()
	tr := &buf.trace
	srv.Tracer().Open(tr, EndpointBinary, 0)
	frame := binaryBodyFor(t, p)
	for form, score := range map[string]func(){
		"decoded payload": func() {
			buf.class = fingerprint.AppendClass(buf.class[:0], p.UserAgent, p.Values)
			srv.scoreClass(dep, buf, p.SessionID[:], buf.class)
		},
		"frame": func() { srv.scoreFrame(dep, buf, frame) },
	} {
		got := testing.AllocsPerRun(200, func() {
			buf.newBlock()
			score()
			srv.settle(tr, dep, buf, untimed)
			if v := &buf.block[0]; v.err != nil || v.res.Flagged() {
				t.Fatalf("benign %s: %+v, %v", form, v.res, v.err)
			}
		})
		if got > floor {
			t.Fatalf("ingest core allocates %.0f per benign sampled-out %s; the model call and drift monitor alone allocate %.0f", got, form, floor)
		}
	}
	if c := led.Counters(); c.Records != 0 || c.Dropped == 0 {
		t.Fatalf("payloads were not sampled out: %+v", c)
	}
}
