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
// handlers and the TCP coalescer read and decode their own bytes, keep
// their own counters and histograms and encode their own replies; what
// happens to a decoded payload — and every side effect of its verdict —
// happens in score, so it cannot depend on which socket the session
// arrived on.
type ingest struct {
	model  modelHolder
	drift  *obs.DriftMonitor
	ledger *audit.Ledger
	logger *slog.Logger

	// Set once the ledger's segment write has failed and been logged;
	// see warnAppend.
	ledgerFailed atomic.Bool
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
// until the request or the batch is answered; audit, the one place that
// keeps it, clones it. Buffers are model-agnostic and survive SwapModel.
type scoreBuf struct {
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
	return &scoreBuf{scratch: in.model.load().NewScratch()}
}

// hexSessionID is hex.EncodeToString(id[:]) in one allocation, not two.
func hexSessionID(id *[fingerprint.SessionIDSize]byte) string {
	var b [2 * fingerprint.SessionIDSize]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// score runs one decoded payload through the pipeline: dimension check
// and vectorise, the model, the drift monitor, then the audit ledger for
// an admitted verdict — every flagged one is. It returns the verdict, or
// the reject reason with the error to report. tr is the caller's open
// trace: it names the endpoint, stamps audit records and log lines, and
// receives an audit span from the payloads that are audited. sessionID
// is the payload's session ID in hex when the transport has already
// encoded it for its reply, "" when it has not: it is then encoded here,
// once, and only for a payload that is audited.
//
// timed adds the score span and returns the kernel time in
// microseconds. A transport with one payload per trace sets it; the TCP
// coalescer, whose one trace covers up to tcpMaxBatch rows, does not —
// two clock reads per row are a quarter of a 200 ns kernel.
func (in *ingest) score(tr *obs.Trace, buf *scoreBuf, p *fingerprint.Payload, sessionID string, timed bool) (res core.Result, elapsedUs int64, reason rejectReason, err error) {
	dep := in.model.loadDeployed()
	if len(p.Values) != dep.m.Dim() {
		return res, 0, reasonBadDim, fmt.Errorf("expected %d features, got %d", dep.m.Dim(), len(p.Values))
	}
	buf.vec = fingerprint.ValuesToVectorInto(buf.vec, p.Values)
	var start time.Time
	if timed {
		start = time.Now()
	}
	res, err = dep.m.ScoreStringWith(buf.scratch, buf.vec, p.UserAgent)
	if timed {
		d := time.Since(start)
		tr.RecordSpan("score", start, d)
		elapsedUs = d.Microseconds()
	}
	if err != nil {
		return res, elapsedUs, reasonScore, fmt.Errorf("score: %w", err)
	}
	if in.drift != nil {
		in.drift.Observe(buf.vec)
	}

	// The hex session ID and the owned vector copy are built only for an
	// audited payload.
	if in.ledger != nil && in.ledger.Admit(res.Flagged()) {
		start := time.Now()
		if sessionID == "" {
			sessionID = hexSessionID(&p.SessionID)
		}
		if err := in.audit(dep, tr, sessionID, p.UserAgent, buf.vec, res); err != nil {
			in.warnAppend(tr, "collect: audit record failed", err)
		}
		tr.RecordSpan("audit", start, time.Since(start))
	}
	return res, elapsedUs, 0, nil
}

// audit appends an admitted verdict to the ledger with what it was
// decided from, stamped with the hash of the deployment that decided it
// (dep is the snapshot score loaded, so a concurrent SwapModel cannot
// mismatch them). The explanation is not computed here: readers derive
// it from the record and the model archive. vec is the caller's reusable
// buffer and userAgent a view of its request bytes; the ledger's recent
// ring retains the record, so it gets its own copy of both.
func (in *ingest) audit(dep *deployed, tr *obs.Trace, sessionID, userAgent string, vec []float64, res core.Result) error {
	return in.ledger.Append(audit.Record{
		TimeNs:    time.Now().UnixNano(),
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
