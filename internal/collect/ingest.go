package collect

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/seglog"
)

// deployed pairs a model with its audit hash so a hot swap can never
// tear the two apart: an audit record is always stamped with the hash
// of the exact model that produced its verdict.
type deployed struct {
	m    *core.Model
	hash string
}

// modelHolder supports hot model swaps: the drift detector's retrain
// loop produces a new model, and the serving tier adopts it without
// downtime. The transports load the pointer once per block — an HTTP
// request, a TCP batch — so a swap never tears a verdict and no batch
// straddles one.
type modelHolder struct {
	ptr atomic.Pointer[deployed]
	// ledger, when set, archives every model before it is deployed.
	ledger *audit.Ledger
}

func (h *modelHolder) load() *core.Model { return h.ptr.Load().m }

func (h *modelHolder) loadDeployed() *deployed { return h.ptr.Load() }

// store is the one place a model becomes deployed: at boot, on
// SwapModel, on a fleet push. The ledger's archive of m is in place
// before the pointer is published, so no audit record ever carries a
// hash that does not resolve; when it cannot be written the deployment
// fails and the model already serving, if any, keeps serving.
func (h *modelHolder) store(m *core.Model) error {
	var hash string
	var err error
	if h.ledger != nil {
		hash, err = h.ledger.ArchiveModel(m)
	} else {
		hash, err = m.Hash()
	}
	if err != nil {
		return fmt.Errorf("collect: deploy model: %w", err)
	}
	h.ptr.Store(&deployed{m: m, hash: hash})
	return nil
}

// ingest is the one scoring pipeline behind every transport. The HTTP
// handlers and the TCP coalescer read and bound their own bytes, keep
// their own counters and histograms and encode their own replies. A
// payload's score step — scoreFrame for a binary one, as the bytes it
// arrived in, scorePayload for a decoded JSON one — adds its verdict to
// the scoreBuf's block; every side effect of a verdict happens in
// settle, over the block, so it cannot depend on which socket the
// session arrived on. An HTTP request is a block of one, a TCP batch a
// block of its frames.
type ingest struct {
	model  modelHolder
	drift  *obs.DriftMonitor
	ledger *audit.Ledger
	logger *slog.Logger

	// Set once the ledger's segment write has failed and been logged;
	// see warnAppend.
	ledgerFailed atomic.Bool

	// shards is how many ways per-request serving state is split
	// (obs.ShardCount when the core is built); nextShard hands each new
	// scoreBuf the next shard, round-robin.
	shards    int
	nextShard atomic.Uint32
}

func newIngest(cfg Config) (*ingest, error) {
	if cfg.Model == nil {
		return nil, errors.New("collect: Config.Model is required")
	}
	in := &ingest{
		model:  modelHolder{ledger: cfg.Audit},
		drift:  cfg.Drift,
		ledger: cfg.Audit,
		logger: cfg.Logger,
		shards: obs.ShardCount(),
	}
	if err := in.model.store(cfg.Model); err != nil {
		return nil, err
	}
	return in, nil
}

// tracerFor returns the configured tracer, or builds one from the
// config's trace settings.
func tracerFor(cfg Config) *obs.Tracer {
	if cfg.Tracer != nil {
		return cfg.Tracer
	}
	return obs.NewTracer(obs.TracerConfig{
		RingSize:      cfg.TraceRingSize,
		Seed:          cfg.TraceSeed,
		SlowThreshold: cfg.SlowRequest,
		Logger:        cfg.Logger,
	})
}

// scoreBuf is everything one request borrows — pooled per request by the
// HTTP server, one per connection on TCP — so the steady-state path
// allocates nothing for the numeric work, the body or the reply. Each
// user overwrites what it reads: payload is decoded in place (every
// field set, the capacity of Values reused), body and reply are
// reset before they are filled, and nothing here outlives the
// request. payload.UserAgent is a view of the bytes it was decoded from
// — body, or the coalescer's view of its read buffer — which stay as
// they are until the request or the batch is answered, or a
// verdict-memo entry's own string; audit, the one place that keeps it,
// clones it. vec is the JSON route's vector; a frame's is the memo
// entry's or, on a miss, a copy in owned (core.Model.ScoreFrame). Buffers
// are model-agnostic and survive SwapModel.
//
// shard is the buffer's share of the serving state every request
// writes (obs.ShardCount): the trace-ring shard, and on HTTP the
// server's counters and latency histograms. sync.Pool keeps a buffer on
// the P that returned it, so a core keeps writing the one shard.
//
// trace is the request's or the batch's trace: the buffer owns it, the
// transport opens it (obs.Tracer.Open resets it) and finishes it before
// the buffer goes back to the pool or on to the next batch, and the
// ring keeps a copy. So a trace, too, is allocated once per buffer.
type scoreBuf struct {
	shard   int
	trace   obs.Trace
	vec     []float64
	scratch *core.Scratch
	payload fingerprint.Payload

	// block is the verdicts scored since newBlock, in order, for settle.
	// owned holds their memo-miss vectors back to back: a miss's vector
	// is the scratch's until the next miss. The vec of an earlier
	// verdict keeps the array it was copied into when owned grows, so
	// it stays valid; each buffer grows to its largest block and is
	// reused. drifted and admit are settle's: the block's accepted
	// vectors and its flags, then their admissions.
	block   []verdict
	owned   []float64
	drifted [][]float64
	admit   []bool

	// HTTP only: the request body as read, through the reader that
	// bounds it, and the encoded reply.
	body    bytes.Buffer
	limited io.LimitedReader
	reply   []byte
}

// verdict is one payload's outcome between its score step and its
// block's settle. settle maps a failed model call's err to the reject
// reason and the error to report.
type verdict struct {
	res       core.Result
	vec       []float64 // read only when err is nil
	err       error
	reason    rejectReason
	width     int // the payload's decoded width, for a width reject
	sessionID [fingerprint.SessionIDSize]byte
	userAgent string
}

// newBlock empties buf's block for the next request or batch.
func (buf *scoreBuf) newBlock() {
	buf.block, buf.owned = buf.block[:0], buf.owned[:0]
}

// push adds the verdict of the payload just scored into buf.payload.
func (buf *scoreBuf) push(res core.Result, vec []float64, err error) {
	p := &buf.payload
	buf.block = append(buf.block, verdict{res: res, vec: vec, err: err, width: len(p.Values), sessionID: p.SessionID, userAgent: p.UserAgent})
}

func (in *ingest) newScoreBuf() *scoreBuf {
	shard := int(in.nextShard.Add(1)-1) % in.shards
	return &scoreBuf{shard: shard, scratch: in.model.load().NewScratch()}
}

// hexSessionID is hex.EncodeToString(id[:]) in one allocation, not two.
func hexSessionID(id *[fingerprint.SessionIDSize]byte) string {
	var b [2 * fingerprint.SessionIDSize]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// untimed is the score start a transport passes to score when it does
// not time its payloads.
const untimed time.Duration = -1

// scoreFrame is the score step of one binary payload: the model
// answers it from its class bytes or decodes it into buf.payload
// (core.Model.ScoreFrame), and its verdict joins buf's block. A miss's
// vector is copied into buf.owned, since the next miss overwrites the
// scratch's; a hit keeps the memo entry's, which never changes, and
// leaves the payload without values. buf.payload is left as ScoreFrame
// leaves it: empty when frame does not decode.
func (in *ingest) scoreFrame(dep *deployed, buf *scoreBuf, frame []byte) {
	res, vec, err := dep.m.ScoreFrame(buf.scratch, &buf.payload, frame)
	if err == nil && len(buf.payload.Values) > 0 {
		n := len(buf.owned)
		buf.owned = append(buf.owned, vec...)
		vec = buf.owned[n:]
	}
	buf.push(res, vec, err)
}

// scorePayload is the score step of the decoded payload in buf.payload
// (the JSON route's): ValuesToVectorInto buf's vector, then
// ScoreStringWith, whose ErrBadInput is the width check. The vector is
// buf.vec, which the request's block of one is settled before reusing.
func (in *ingest) scorePayload(dep *deployed, buf *scoreBuf) {
	buf.vec = fingerprint.ValuesToVectorInto(buf.vec, buf.payload.Values)
	res, err := dep.m.ScoreStringWith(buf.scratch, buf.vec, buf.payload.UserAgent)
	buf.push(res, buf.vec, err)
}

// settle is the one pipeline after the model calls of buf's block,
// whichever route its payloads took, and dep is the deployment that
// scored them. In order: the score span, the reject of each failed call,
// one drift Observe of the block's accepted vectors, one ledger Admit of
// their flags, then an audit record for each admitted verdict — every
// flagged one is — in block order. It returns the score span in
// microseconds. tr is the caller's open trace: it names the endpoint,
// stamps audit records and log lines, and receives an audit span from
// each payload that is audited.
//
// Every boundary is one monotonic clock read, an offset from tr's start.
// scoreStart is the caller's read of where scoring begins (HTTP: its
// decode end); settle adds the score span, which ends at one more read.
// A transport with one payload per trace passes it; the TCP coalescer,
// whose one trace covers up to tcpMaxBatch rows, passes untimed — two
// clock reads per row are a quarter of a 200 ns kernel. An audited
// payload's audit span starts at the score end (its own read when
// untimed) and ends at one more read, and its record's time is the
// trace's wall start plus that start offset.
func (in *ingest) settle(tr *obs.Trace, dep *deployed, buf *scoreBuf, scoreStart time.Duration) (elapsedUs int64) {
	scoreEnd := untimed
	if scoreStart != untimed {
		scoreEnd = time.Since(tr.StartTime())
		tr.RecordSpan("score", tr.StartTime().Add(scoreStart), scoreEnd-scoreStart)
		elapsedUs = (scoreEnd - scoreStart).Microseconds()
	}
	buf.drifted, buf.admit = buf.drifted[:0], buf.admit[:0]
	for i := range buf.block {
		v := &buf.block[i]
		if v.err != nil {
			v.reason, v.err = rejectOf(v.err, dep.m.Dim(), v.width)
			continue
		}
		buf.drifted = append(buf.drifted, v.vec)
		buf.admit = append(buf.admit, v.res.Flagged())
	}
	if in.drift != nil {
		in.drift.Observe(buf.drifted...)
	}
	if in.ledger == nil || len(buf.admit) == 0 {
		return elapsedUs
	}
	admitted := in.ledger.Admit(buf.admit)
	// The hex session ID and the owned vector copy are built only for an
	// audited payload.
	j := 0
	for i := range buf.block {
		v := &buf.block[i]
		if v.err != nil {
			continue
		}
		if admitted[j] {
			start := scoreEnd
			if start == untimed {
				start = time.Since(tr.StartTime())
			}
			if err := in.audit(dep, tr, start, hexSessionID(&v.sessionID), v.userAgent, v.vec, v.res); err != nil {
				in.warnAppend(tr, "collect: audit record failed", err)
			}
			tr.RecordSpan("audit", tr.StartTime().Add(start), time.Since(tr.StartTime())-start)
		}
		j++
	}
	return elapsedUs
}

// rejectOf names the reject of a failed model call on a payload whose
// decoded width is n: a frame that does not decode (reported as the
// JSON route reports a body it cannot decode), a vector of the wrong
// width, or a scoring failure.
func rejectOf(err error, dim, n int) (rejectReason, error) {
	switch {
	case errors.Is(err, fingerprint.ErrBadVersion):
		return reasonBadVersion, fmt.Errorf("payload: %w", err)
	case errors.Is(err, fingerprint.ErrBadPayload), errors.Is(err, fingerprint.ErrPayloadTooLarge):
		return reasonDecode, fmt.Errorf("payload: %w", err)
	case errors.Is(err, core.ErrBadInput):
		return reasonBadDim, fmt.Errorf("expected %d features, got %d", dim, n)
	}
	return reasonScore, fmt.Errorf("score: %w", err)
}

// audit appends an admitted verdict to the ledger with what it was
// decided from, stamped with the hash of the deployment that decided it
// (dep is the snapshot score loaded, so a concurrent SwapModel cannot
// mismatch them) and timed at offset at from tr's start. The explanation
// is not computed here: readers derive it from the record and the model
// archive. vec is a reusable buffer or a memo entry's, and userAgent may
// be a view of the request bytes; the ledger's recent ring retains the
// record, so it gets its own copy of both.
func (in *ingest) audit(dep *deployed, tr *obs.Trace, at time.Duration, sessionID, userAgent string, vec []float64, res core.Result) error {
	return in.ledger.Append(audit.Record{
		TimeNs:    tr.StartTime().Add(at).UnixNano(),
		TraceID:   tr.ID.String(),
		ModelHash: dep.hash,
		SessionID: sessionID,
		UserAgent: strings.Clone(userAgent),
		Endpoint:  tr.Endpoint,
		Vector:    append([]float64(nil), vec...),
		Verdict:   core.VerdictOf(res),
	})
}

// warnAppend logs a failed ledger append. A failed segment write is
// sticky — every append after it fails the same way, and the ledger
// counts each as dropped — so it is logged once, with what it lost, not
// once per request; any other failure is logged each time.
func (in *ingest) warnAppend(tr *obs.Trace, msg string, err error) {
	if errors.Is(err, seglog.ErrWriteFailed) && in.ledgerFailed.Swap(true) {
		return
	}
	in.logWarn(tr, msg, "err", err.Error())
}

// logWarn emits a structured warning carrying the trace ID when a trace
// is in flight.
func (in *ingest) logWarn(tr *obs.Trace, msg string, args ...any) {
	if in.logger == nil {
		return
	}
	if tr != nil {
		args = append(args, obs.TraceIDKey, tr.ID.String())
	}
	in.logger.Warn(msg, args...)
}
