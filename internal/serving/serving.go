// Package serving is the reusable replica runtime extracted from
// cmd/polygraphd: everything a scoring replica needs — model
// deployment, the collect server and its framed TCP listener, drift
// telemetry, audit ledger, hot reload — behind one Replica type, so a
// process can run one replica (the daemon) or a harness can run N
// in-process (cmd/loadgen). It is the only package
// that constructs a collect server (scripts/check.sh enforces it), so
// what the load harness gates is what the daemon deploys.
//
// A model reaches a replica one way: deploy, whether it comes from
// Config.Model or Config.ModelPath at boot, a POST to the admin
// endpoint, or a Reload of the model file. Each deployment installs the
// model's drift baseline (core.Model.Baseline) and restarts the drift
// window. Models are trained offline (polygraph train); a replica never
// trains one.
//
// A Replica can boot in two modes:
//
//   - Deployed: Config carries a model source (Model or ModelPath) and
//     the replica serves from startup — the standalone polygraphd path.
//   - Warming: no model source. Every scoring endpoint (and /healthz)
//     answers 503 until a model arrives through the admin endpoint —
//     the fleet path, where the control plane trains once, pushes the
//     model to every replica, and hash-verifies the deployment before
//     admitting the replica to rotation (internal/fleet). A warming
//     replica that never receives a model never serves a request, which
//     is exactly the fail-closed behavior a fraud scorer wants.
//
// The admin surface (fleet.AdminModelPath) is mounted on the same
// listener as the collect endpoints: GET returns the deployed model's
// identity (hash, dims, accuracy), POST deserializes a model from the
// body, hot-swaps it in, and echoes the deployed hash back so the
// pusher can verify byte-exact distribution.
package serving

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/bundle"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

// Config assembles one replica. The zero value is not servable: set a
// Name and either a model source or expect a fleet push.
type Config struct {
	// Name identifies the replica in logs and fleet membership.
	Name string
	// Addr is the listen address (":0" for an ephemeral port).
	Addr string
	// TCPAddr, when set, also serves the framed batch protocol
	// (collect.TCPServer) on this address. The listener scores through
	// the collect server's ingest core, so it shares the model — hot
	// swaps included — tracer, drift monitor and ledger, and its
	// counters ride the same /metrics page.
	TCPAddr string

	// Model deploys this in-memory model at startup (takes precedence
	// over ModelPath).
	Model *core.Model
	// ModelPath loads the model from this file at startup and on Reload.
	ModelPath string

	// RateLimitPerSec is the per-client-IP ingest rate limit (0 = off).
	RateLimitPerSec float64

	// JournalDir is ignored: the audit ledger is the one evidence log
	// (collect/pinned.go).
	JournalDir string
	// AuditDir enables the checksummed decision audit ledger, the one
	// evidence log: it holds every flagged verdict, and /v1/flagged
	// reads it.
	AuditDir string
	// AuditSample records every Nth benign decision (default 1).
	AuditSample int
	// AuditMaxBytes rotates audit segments beyond this size (0 = default).
	AuditMaxBytes int64

	// DriftInterval drives the live PSI evaluation loop (0 = off).
	DriftInterval time.Duration
	// DriftReservoir is the live-traffic sample size for drift PSI.
	DriftReservoir int

	// TraceRingSize, TraceSeed, SlowRequest configure request tracing.
	TraceRingSize int
	TraceSeed     uint64
	SlowRequest   time.Duration

	// Debug mounts pprof and expvar on the serving mux, which makes
	// the replica fully self-snapshotting: GET /debug/bundle can then
	// include profiles without a separate -debug-addr listener. Fleet
	// rigs and tests enable it; polygraphd keeps its dedicated debug
	// listener instead.
	Debug bool

	// SLOSpec arms the burn-rate engine on first model deployment: the
	// replica self-scrapes its own exposition on every SLOInterval tick,
	// exports the polygraph_slo_* families at /metrics, and serves
	// GET /debug/slo. Nil disables the engine.
	SLOSpec *slo.Spec
	// SLOInterval is the engine's tick cadence (0 = 10s). Tests and
	// loadgen rigs usually skip Run and tick explicitly instead.
	SLOInterval time.Duration

	// ScoreDelay is collect.Config.ScoreDelay, the SLO fault-drill seam
	// (loadgen -fault-slow); never set it in production.
	ScoreDelay time.Duration

	// Logger receives replica events; nil discards.
	Logger *slog.Logger
}

// Replica is one serving instance: listener, collect server, admin
// surface, and the operational subsystems polygraphd used to wire
// inline. Create with New, serve with Start, take out of service with
// Drain (the fleet drill's failure injection), stop with Close.
type Replica struct {
	cfg    Config
	logger *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc

	mux     *http.ServeMux
	httpSrv *http.Server
	ln      net.Listener
	done    chan error

	ledger *audit.Ledger

	// srv and model are nil until the first deployment (warming state).
	srv   atomic.Pointer[collect.Server]
	model atomic.Pointer[core.Model]

	// sloEng is built on first deployment when cfg.SLOSpec is set.
	sloEng atomic.Pointer[slo.Engine]

	// deployMu serializes create-vs-swap on first deployment and guards
	// the fields below, which that deployment (driftMon, tcp) and Start
	// (tcpLn) fill in.
	deployMu sync.Mutex
	driftMon *obs.DriftMonitor
	tcp      *collect.TCPServer
	tcpLn    net.Listener

	killed atomic.Bool
}

// New builds the replica and, when cfg names a model source, obtains
// and deploys the initial model. The replica's background loops run
// under a context carrying ctx's values but not its cancellation; Close
// stops them.
func New(ctx context.Context, cfg Config) (*Replica, error) {
	if cfg.Name == "" {
		cfg.Name = "replica"
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NewLogger(nil, false)
	}
	logger = logger.With("replica", cfg.Name)

	rctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	r := &Replica{
		cfg:    cfg,
		logger: logger,
		ctx:    rctx,
		cancel: cancel,
		done:   make(chan error, 1),
	}

	fail := func(err error) (*Replica, error) {
		r.closeLedger()
		cancel()
		return nil, err
	}

	if cfg.AuditDir != "" {
		sample := cfg.AuditSample
		if sample <= 0 {
			sample = 1
		}
		ledger, err := audit.Open(audit.Config{
			Dir:          cfg.AuditDir,
			MaxBytes:     cfg.AuditMaxBytes,
			SampleBenign: sample,
		})
		if err != nil {
			return fail(fmt.Errorf("serving: audit: %w", err))
		}
		r.ledger = ledger
		logger.Info("auditing decisions", "dir", cfg.AuditDir, "benign_sample", sample)
	}

	mux := http.NewServeMux()
	mux.HandleFunc(fleet.AdminModelPath, r.handleAdminModel)
	// Read-only alias: the support-bundle capture path. GET /admin/model
	// answers the same, but the alias keeps provenance reads apart from
	// the push surface in access logs.
	mux.HandleFunc("GET "+bundle.AdminModelInfoPath, r.handleModelInfo)
	// The self-snapshot endpoint is mounted above the warming catchall
	// on purpose: a replica stuck warming is exactly the one an operator
	// wants a bundle from.
	mux.HandleFunc("GET /debug/bundle", r.handleBundle)
	if cfg.Debug {
		MountProfiling(mux)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		srv := r.srv.Load()
		if srv == nil {
			// Warming: fail closed until a model is deployed and verified.
			http.Error(w, "no model deployed", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, req)
	})
	r.mux = mux

	if cfg.Model != nil {
		if _, err := r.deploy(cfg.Model, time.Now()); err != nil {
			return fail(err)
		}
	} else if cfg.ModelPath != "" {
		if err := r.deployFile(); err != nil {
			return fail(err)
		}
		m := r.model.Load()
		logger.Info("model ready",
			"features", m.Dim(), "clusters", m.KMeans.K,
			"accuracy_pct", fmt.Sprintf("%.2f", 100*m.Accuracy))
	}
	return r, nil
}

// MountProfiling mounts net/http/pprof and expvar on mux — the surface
// Config.Debug adds to the serving listener and polygraphd keeps on its
// separate -debug-addr one.
func MountProfiling(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
}

// closeLedger seals the audit ledger; the close is idempotent.
func (r *Replica) closeLedger() error {
	if r.ledger == nil {
		return nil
	}
	return r.ledger.Close()
}

// deployFile loads the model file at Config.ModelPath and deploys it;
// the file's modification time stands in for when the model was
// trained.
func (r *Replica) deployFile() error {
	f, err := os.Open(r.cfg.ModelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	m, err := core.Load(f)
	if err != nil {
		return err
	}
	_, err = r.deploy(m, fi.ModTime())
	return err
}

// deploy is every deployment path: the collect server swaps m in (or is
// built around it), the drift monitor measures against m's baseline from
// a fresh window, and trainedAt is exported with the model. It returns
// the deployed model's hash.
func (r *Replica) deploy(m *core.Model, trainedAt time.Time) (string, error) {
	r.deployMu.Lock()
	defer r.deployMu.Unlock()
	if srv := r.srv.Load(); srv != nil {
		if err := srv.SwapModel(m); err != nil {
			return "", fmt.Errorf("serving: swap model: %w", err)
		}
		r.armDrift(m)
		srv.SetModelTrainedAt(trainedAt)
		r.model.Store(m)
		return srv.ModelHash(), nil
	}
	// First deployment: the drift monitor needs the model's feature
	// names and the collect server needs the model, so both wait here
	// rather than in New.
	if r.cfg.DriftInterval > 0 {
		mon, err := obs.NewDriftMonitor(obs.DriftConfig{
			Features:  fingerprint.Names(m.Features),
			Reservoir: r.cfg.DriftReservoir,
			Seed:      r.cfg.TraceSeed,
			Logger:    r.logger,
		})
		if err != nil {
			return "", fmt.Errorf("serving: drift: %w", err)
		}
		r.driftMon = mon
		r.armDrift(m)
		go mon.Run(r.ctx, r.cfg.DriftInterval)
	}
	srv, err := collect.NewServer(collect.Config{
		Model:           m,
		Logger:          r.logger,
		RateLimitPerSec: r.cfg.RateLimitPerSec,
		TraceRingSize:   r.cfg.TraceRingSize,
		TraceSeed:       r.cfg.TraceSeed,
		SlowRequest:     r.cfg.SlowRequest,
		Drift:           r.driftMon,
		Audit:           r.ledger,
		ScoreDelay:      r.cfg.ScoreDelay,
	})
	if err != nil {
		return "", fmt.Errorf("serving: server: %w", err)
	}
	if r.cfg.SLOSpec != nil {
		interval := r.cfg.SLOInterval
		if interval <= 0 {
			interval = 10 * time.Second
		}
		eng, err := slo.NewEngine(slo.Config{
			Spec:      r.cfg.SLOSpec,
			IntervalS: int(interval / time.Second),
			Scope:     "replica " + r.cfg.Name,
			Logger:    r.logger,
			Source: func() *obs.Exposition {
				return obs.ParseExpositionString(srv.MetricsText())
			},
		})
		if err != nil {
			return "", fmt.Errorf("serving: slo engine: %w", err)
		}
		srv.SetSLO(eng)
		r.sloEng.Store(eng)
		go eng.Run(r.ctx, interval)
	}
	if r.cfg.TCPAddr != "" {
		// AttachTCP puts the listener on srv's ingest core; only the
		// tracer is its own to share.
		tcp, err := collect.NewTCPServer(collect.Config{Model: m, Tracer: srv.Tracer()})
		if err != nil {
			return "", fmt.Errorf("serving: tcp listener: %w", err)
		}
		srv.AttachTCP(tcp)
		r.tcp = tcp
		r.serveTCP()
	}
	srv.SetModelTrainedAt(trainedAt)
	r.model.Store(m)
	r.srv.Store(srv)
	return srv.ModelHash(), nil
}

// armDrift installs m's drift baseline, which restarts the drift window.
// A model without a usable one (a file written before models carried
// one) still serves, with drift unarmed until a model with one arrives.
// deployMu must be held.
func (r *Replica) armDrift(m *core.Model) {
	if r.driftMon == nil {
		return
	}
	err := r.driftMon.SetBaseline(m.Baseline)
	if err == nil && m.Baseline == nil {
		err = errors.New("the model carries none")
	}
	if err != nil {
		r.logger.Warn("drift unarmed: no usable baseline", "err", err.Error())
	}
}

// serveTCP starts the framed listener once both halves exist: the
// socket Start bound and the TCPServer the first deployment built,
// whichever comes second (a warming replica binds first and accepts
// nothing until a model arrives). deployMu must be held.
func (r *Replica) serveTCP() {
	if r.tcp == nil || r.tcpLn == nil {
		return
	}
	tcp, ln := r.tcp, r.tcpLn
	go func() {
		if err := tcp.Serve(ln); err != nil {
			r.logger.Error("tcp listener failed", "err", err.Error())
		}
	}()
	r.logger.Info("listening (framed tcp)", "addr", ln.Addr().String())
}

// SLO returns the replica's burn-rate engine (nil until a model is
// deployed with Config.SLOSpec set).
func (r *Replica) SLO() *slo.Engine { return r.sloEng.Load() }

// Drift returns the replica's drift monitor (nil until a model is
// deployed with Config.DriftInterval set), so a rig can force an
// Evaluate after a short run.
func (r *Replica) Drift() *obs.DriftMonitor {
	r.deployMu.Lock()
	defer r.deployMu.Unlock()
	return r.driftMon
}

// handleModelInfo is the read-only provenance view served at GET
// /admin/model and its alias GET /admin/model/info.
func (r *Replica) handleModelInfo(w http.ResponseWriter, req *http.Request) {
	m := r.model.Load()
	if m == nil {
		http.Error(w, "no model deployed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.modelInfo(m))
}

// handleBundle streams a self-snapshot support bundle of this replica:
// GET /debug/bundle?pprof_seconds=2&no-redact=1. Collection goes
// through the replica's own mux in-process, so the snapshot works even
// while the replica is warming (the scoring endpoints just record 503
// collector errors — itself a diagnosis).
func (r *Replica) handleBundle(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	seconds := 0
	if v := q.Get("pprof_seconds"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 || parsed > 30 {
			http.Error(w, fmt.Sprintf("bad pprof_seconds %q (want 0..30)", v), http.StatusBadRequest)
			return
		}
		seconds = parsed
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", "polygraph-bundle-"+bundle.SanitizeName(r.cfg.Name)+".tgz"))
	if _, err := bundle.Capture(req.Context(), w, bundle.Options{
		Targets:      []bundle.Target{r.Member().BundleTarget()},
		NoRedact:     q.Get("no-redact") == "1",
		PprofSeconds: seconds,
		SkipPprof:    !r.cfg.Debug,
		Tool:         obs.Version("serving").String(),
	}); err != nil {
		// Headers are gone; all we can do is log and cut the stream.
		r.logger.Warn("bundle capture failed", "err", err.Error())
	}
}

// fetch GETs path straight off the replica's mux, no listener needed, so
// a drained replica's pages stay readable — the one way the fleet
// harness, its reconciliation and bundle capture read a replica
// in-process.
func (r *Replica) fetch(ctx context.Context, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	r.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	if rec.Code != http.StatusOK {
		msg := strings.TrimSpace(rec.Body.String())
		if len(msg) > 120 {
			msg = msg[:120]
		}
		return nil, fmt.Errorf("%s: %d %s", path, rec.Code, msg)
	}
	return rec.Body.Bytes(), nil
}

// handleAdminModel is the distribution endpoint: POST deploys the model
// serialized in the body and echoes the deployed identity, GET reports
// the current one. The POST response hash is computed by the replica
// from what it actually deserialized — a corrupted upload therefore
// reports a different hash and the controller refuses the replica.
func (r *Replica) handleAdminModel(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		r.handleModelInfo(w, req)
	case http.MethodPost:
		m, err := core.Load(io.LimitReader(req.Body, 64<<20))
		if err != nil {
			http.Error(w, fmt.Sprintf("decode model: %v", err), http.StatusBadRequest)
			return
		}
		if _, err := r.deploy(m, time.Now()); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		r.logger.Info("model deployed via admin push", "model_hash", r.ModelHash())
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.modelInfo(m))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (r *Replica) modelInfo(m *core.Model) fleet.ModelInfo {
	hash := ""
	if srv := r.srv.Load(); srv != nil {
		hash = srv.ModelHash()
	}
	return fleet.ModelInfo{
		Hash:     hash,
		Features: m.Dim(),
		Clusters: m.KMeans.K,
		Accuracy: m.Accuracy,
	}
}

// Start binds the listener and serves until Drain or Close. It returns
// once the listener is bound, so BaseURL is valid immediately after.
func (r *Replica) Start() error {
	if r.ln != nil {
		return errors.New("serving: already started")
	}
	addr := r.cfg.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serving: listen: %w", err)
	}
	if r.cfg.TCPAddr != "" {
		tcpLn, err := net.Listen("tcp", r.cfg.TCPAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serving: listen (framed tcp): %w", err)
		}
		r.deployMu.Lock()
		r.tcpLn = tcpLn
		r.serveTCP()
		r.deployMu.Unlock()
	}
	r.ln = ln
	r.httpSrv = &http.Server{
		Handler:           r.mux,
		ReadHeaderTimeout: 5 * time.Second,
		// Ingest bodies are ≤1 KB and scoring takes microseconds, so
		// these bounds are generous for legitimate clients while keeping
		// slow-loris connections from pinning goroutines.
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	go func() {
		err := r.httpSrv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		r.done <- err
	}()
	r.logger.Info("listening", "addr", ln.Addr().String())
	return nil
}

// Done delivers the serve loop's terminal error (nil on clean close).
func (r *Replica) Done() <-chan error { return r.done }

// BaseURL returns the replica's serving root ("" before Start).
func (r *Replica) BaseURL() string {
	if r.ln == nil {
		return ""
	}
	return "http://" + r.ln.Addr().String()
}

// TCPAddr returns the framed listener's bound address ("" before Start
// or without Config.TCPAddr).
func (r *Replica) TCPAddr() string {
	r.deployMu.Lock()
	defer r.deployMu.Unlock()
	if r.tcpLn == nil {
		return ""
	}
	return r.tcpLn.Addr().String()
}

// Handler returns the replica's serving mux — the admin and bundle
// surface plus, once a model is deployed, every collect endpoint (503
// until then). polygraphd forwards its debug listener's trace and
// decision pages here so they resolve the collect server per request.
func (r *Replica) Handler() http.Handler { return r.mux }

// Name returns the replica's configured name.
func (r *Replica) Name() string { return r.cfg.Name }

// Server exposes the collect server (nil while warming) for surfaces
// the daemon mounts elsewhere, like the pprof listener's trace ring.
func (r *Replica) Server() *collect.Server { return r.srv.Load() }

// ModelHash returns the deployed model's hash ("" while warming).
func (r *Replica) ModelHash() string {
	if srv := r.srv.Load(); srv != nil {
		return srv.ModelHash()
	}
	return ""
}

// Member adapts the replica for fleet membership. Liveness probes go
// over HTTP (a drained replica must probe dead), while every page read
// resolves in-process (a drained replica's counters must stay readable
// for client-vs-sum-of-replicas reconciliation).
func (r *Replica) Member() fleet.Member {
	return fleet.Member{Name: r.cfg.Name, BaseURL: r.BaseURL(), Fetch: r.fetch}
}

// RotateAudit seals the active audit segment (no-op without a ledger) —
// polygraphd calls this on SIGHUP so operators can archive sealed
// segments on the same signal that reloads the model.
func (r *Replica) RotateAudit() error {
	if r.ledger == nil {
		return nil
	}
	return r.ledger.Rotate()
}

// ErrNoModelFile is Reload on a replica with no model file: one booted
// from an in-memory model, or a fleet-managed one whose controller owns
// the model.
var ErrNoModelFile = errors.New("serving: no model file to reread")

// Reload rereads the model file the replica booted from and hot-swaps it
// in. On error the current model keeps serving.
func (r *Replica) Reload() error {
	if r.cfg.ModelPath == "" {
		return ErrNoModelFile
	}
	if err := r.deployFile(); err != nil {
		return fmt.Errorf("serving: reload: %w", err)
	}
	return nil
}

// Drain takes the replica out of service gracefully: in-flight requests
// complete with responses, then the listener closes; new connections are
// refused. This is the failure mode the fleet kill drill injects when
// the reconciliation must stay exact — a hard kill can sever a
// connection after the server scored the request but before the client
// read the response, so the client's retry would score the same request
// twice on another replica. Counters stay readable in-process, and Close
// must still be called to flush the ledger.
func (r *Replica) Drain() {
	if !r.killed.CompareAndSwap(false, true) {
		return
	}
	if r.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r.httpSrv.Shutdown(ctx)
		cancel()
	}
	r.closeTCP()
	r.logger.Warn("replica drained out of service")
}

// closeTCP stops the framed listener: the TCPServer when one is serving
// (closes the socket and live connections, waits for their handlers),
// else the bare socket a replica that never left warming still holds.
// The protocol has no in-band goodbye, so a drain and a kill look the
// same to a framed client; both are idempotent.
func (r *Replica) closeTCP() {
	r.deployMu.Lock()
	tcp, ln := r.tcp, r.tcpLn
	r.deployMu.Unlock()
	if tcp != nil {
		tcp.Close()
	} else if ln != nil {
		ln.Close()
	}
}

// Close shuts the replica down gracefully: drain the listeners, stop
// the drift loop and seal the audit ledger.
func (r *Replica) Close() error {
	var firstErr error
	if r.httpSrv != nil && !r.killed.Load() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		firstErr = r.httpSrv.Shutdown(ctx)
		cancel()
	}
	r.closeTCP()
	r.cancel()
	if err := r.closeLedger(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
