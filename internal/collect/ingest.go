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
// downtime. The ingest core loads the pointer once per payload, so a
// swap never tears a verdict.
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
// their own counters and histograms and encode their own replies; a
// binary payload goes to scoreFrame as the bytes it arrived in, a JSON
// one to scorePayload decoded, and every side effect of a verdict
// happens in settle, which both end in, so it cannot depend on which
// socket the session arrived on.
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
// — body, or the coalescer's frame buffer — which stay as they are
// until the request or the batch is answered, or a verdict-memo entry's
// own string; audit, the one place that keeps it, clones it. vec is the
// JSON route's vector; a frame's is the scratch's or the memo entry's
// (core.Model.ScoreFrame). Buffers are model-agnostic and survive
// SwapModel.
//
// shard is the buffer's share of the serving state every request
// writes (obs.ShardCount): the trace-ring shard, and on HTTP the
// server's counters and latency histograms. sync.Pool keeps a buffer on
// the P that returned it, so a core keeps writing the one shard.
type scoreBuf struct {
	shard   int
	vec     []float64
	scratch *core.Scratch
	payload fingerprint.Payload

	// HTTP only: the request body as read, through the reader that
	// bounds it, and the encoded reply.
	body    bytes.Buffer
	limited io.LimitedReader
	reply   []byte
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

// scoreFrame runs one binary payload through the pipeline: the model
// answers it from its class bytes or decodes it into p
// (core.Model.ScoreFrame), and settle does the rest. p is left as
// ScoreFrame leaves it: empty when frame does not decode.
func (in *ingest) scoreFrame(tr *obs.Trace, buf *scoreBuf, p *fingerprint.Payload, frame []byte, scoreStart time.Duration) (core.Result, int64, rejectReason, error) {
	dep := in.model.loadDeployed()
	res, vec, err := dep.m.ScoreFrame(buf.scratch, p, frame)
	return in.settle(tr, dep, p, vec, res, err, scoreStart)
}

// scorePayload runs one decoded payload (the JSON route's) through the
// pipeline: ValuesToVectorInto buf's vector, ScoreStringWith (whose
// ErrBadInput is the width check), and settle does the rest.
func (in *ingest) scorePayload(tr *obs.Trace, buf *scoreBuf, p *fingerprint.Payload, scoreStart time.Duration) (core.Result, int64, rejectReason, error) {
	dep := in.model.loadDeployed()
	buf.vec = fingerprint.ValuesToVectorInto(buf.vec, p.Values)
	res, err := dep.m.ScoreStringWith(buf.scratch, buf.vec, p.UserAgent)
	return in.settle(tr, dep, p, buf.vec, res, err, scoreStart)
}

// settle is the one pipeline after the model call, whichever route the
// payload took: the score span, the reject of a failed call, the drift
// monitor, then the audit ledger for an admitted verdict — every flagged
// one is.
// vec is the vector the model returned or was given. It returns the
// verdict, or the reject reason with the error to report. tr is the
// caller's open trace: it names the endpoint, stamps audit records and
// log lines, and receives an audit span from the payloads that are
// audited.
//
// Every boundary is one monotonic clock read, an offset from tr's start.
// scoreStart is the caller's read of where scoring begins (HTTP: its
// decode end); settle adds the score span, which ends at one more read,
// and returns it in microseconds. A transport with one payload per trace
// passes it; the TCP coalescer, whose one trace covers up to tcpMaxBatch
// rows, passes untimed — two clock reads per row are a quarter of a
// 200 ns kernel. An audited payload's audit span starts at the score end
// (its own read when untimed) and ends at one more read, and its record's
// time is the trace's wall start plus that start offset.
func (in *ingest) settle(tr *obs.Trace, dep *deployed, p *fingerprint.Payload, vec []float64, res core.Result, err error, scoreStart time.Duration) (core.Result, int64, rejectReason, error) {
	scoreEnd, elapsedUs := untimed, int64(0)
	if scoreStart != untimed {
		scoreEnd = time.Since(tr.StartTime())
		tr.RecordSpan("score", tr.StartTime().Add(scoreStart), scoreEnd-scoreStart)
		elapsedUs = (scoreEnd - scoreStart).Microseconds()
	}
	if err != nil {
		reason, err := rejectOf(err, dep.m.Dim(), len(p.Values))
		return res, elapsedUs, reason, err
	}
	if in.drift != nil {
		in.drift.Observe(vec)
	}

	// The hex session ID and the owned vector copy are built only for an
	// audited payload.
	if in.ledger != nil && in.ledger.Admit(res.Flagged()) {
		start := scoreEnd
		if start == untimed {
			start = time.Since(tr.StartTime())
		}
		if err := in.audit(dep, tr, start, hexSessionID(&p.SessionID), p.UserAgent, vec, res); err != nil {
			in.warnAppend(tr, "collect: audit record failed", err)
		}
		tr.RecordSpan("audit", tr.StartTime().Add(start), time.Since(tr.StartTime())-start)
	}
	return res, elapsedUs, 0, nil
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
