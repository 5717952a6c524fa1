// Command polygraphd runs the Browser Polygraph collection and scoring
// service: it serves the fingerprinting script, ingests ≤1 KB payloads,
// and returns real-time risk decisions.
//
// Usage:
//
//	polygraphd -model model.json -addr :8080
//	polygraphd -train -sessions 40000 -addr :8080   # train in-process first
//	polygraphd -warm -addr :8080                    # fleet-managed: wait for a push
//
// With -warm the daemon boots without a model and fails closed: every
// endpoint (including /healthz) answers 503 until the fleet control
// plane (cmd/polygraphctl push) deploys a model through POST
// /admin/model and hash-verifies it. A warm replica has no reload
// source, so SIGHUP only rotates the audit segment — redeployment is
// the controller's job.
//
// The replica runtime itself — model load/train, collect server, drift
// telemetry, journal, audit ledger, hot reload — lives in
// internal/serving so a fleet harness can run N replicas in one
// process; this command wires exactly one replica to flags, signals,
// and the optional pprof listener.
//
// SIGHUP reloads the model and hot-swaps it into the running service —
// the deployment step of the drift detector's retraining loop. When the
// daemon was started with -train, SIGHUP retrains in-process; otherwise
// it rereads -model. The reload runs asynchronously under a context
// bounded by -reload-timeout and is cancelled cleanly on shutdown, so a
// SIGTERM never waits behind a half-finished retrain. SIGHUP also seals
// the active audit segment so operators can archive sealed segments on
// the same signal.
//
// Observability: logs are structured (log/slog; -log-json switches to
// JSON), every ingest request is traced (last/slowest traces at
// /debug/traces on the serving listener), /metrics exports per-endpoint
// latency histograms and live feature-PSI drift gauges (-drift-interval
// drives the background evaluation loop), and -debug-addr opens a
// separate listener with net/http/pprof and expvar for profiling —
// kept off the public serving port on purpose. A burn-rate SLO engine
// (on by default; -slo-spec overrides the built-in objectives,
// -slo-interval 0 disables) self-scrapes the replica's counters,
// exports the polygraph_slo_* families, and serves GET /debug/slo.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polygraph/internal/core"
	"polygraph/internal/obs"
	"polygraph/internal/serving"
	"polygraph/internal/slo"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		modelPath     = flag.String("model", "model.json", "trained model path")
		train         = flag.Bool("train", false, "train a fresh model in-process instead of loading one")
		warm          = flag.Bool("warm", false, "start without a model and wait for a fleet push (everything 503s until /admin/model deploys one)")
		sessions      = flag.Int("sessions", 40000, "sessions to generate when -train is set")
		journalDir    = flag.String("journal", "", "directory for the durable flagged-decision journal (empty = off)")
		novelty       = flag.Bool("novelty", false, "arm the novelty guard when training with -train")
		rateLimit     = flag.Float64("rate-limit", 0, "per-client-IP requests/second on the ingest endpoints (0 = off)")
		reloadTimeout = flag.Duration("reload-timeout", 5*time.Minute, "deadline for a SIGHUP model reload/retrain")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		debugAddr     = flag.String("debug-addr", "", "separate listener for pprof/expvar (empty = off)")
		slowRequest   = flag.Duration("slow-request", 100*time.Millisecond, "log requests slower than this with their trace")
		traceRing     = flag.Int("trace-ring", 256, "finished request traces retained for /debug/traces")
		traceSeed     = flag.Uint64("trace-seed", 1, "seed for the deterministic trace-ID stream")
		driftInterval = flag.Duration("drift-interval", time.Minute, "period of the live feature-drift PSI evaluation (0 = off)")
		driftRes      = flag.Int("drift-reservoir", 512, "feature vectors sampled from live traffic for drift PSI")
		auditDir      = flag.String("audit-dir", "", "directory for the checksummed decision audit ledger (empty = off)")
		auditSample   = flag.Int("audit-sample", 1, "record every Nth benign decision in the audit ledger (flagged always recorded)")
		auditMaxBytes = flag.Int64("audit-max-bytes", 0, "rotate audit-ledger segments beyond this size (0 = 16 MiB default)")
		sloSpecPath   = flag.String("slo-spec", "", "SLO spec JSON for burn-rate alerting (empty = the built-in spec)")
		sloInterval   = flag.Duration("slo-interval", 10*time.Second, "SLO engine tick period (0 disables the engine)")
		version       = flag.Bool("version", false, "print build info (and the model hash when -model loads) and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version("polygraphd"))
		// When a model file is on hand, print its hash too — the identity
		// the fleet control plane verifies across replicas.
		if !*train {
			if f, err := os.Open(*modelPath); err == nil {
				if m, err := core.Load(f); err == nil {
					if h, err := m.Hash(); err == nil {
						fmt.Printf("model %s %s\n", *modelPath, h)
					}
				}
				f.Close()
			}
		}
		return
	}

	logger := obs.NewLogger(os.Stderr, *logJSON).With("app", "polygraphd")
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	// The signal context exists before the first model load so that a
	// SIGINT during a slow in-process training run aborts it promptly
	// instead of waiting out the full train.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfgTrain, cfgModelPath := *train, *modelPath
	if *warm {
		if *train {
			fatalf("-warm and -train are mutually exclusive")
		}
		cfgTrain, cfgModelPath = false, ""
	}
	// Burn-rate alerting is on by default with the built-in spec; the
	// engine arms itself on the first model deployment and serves GET
	// /debug/slo plus the polygraph_slo_* families from then on.
	var sloSpec *slo.Spec
	if *sloInterval > 0 {
		sloSpec = slo.DefaultSpec()
		if *sloSpecPath != "" {
			loaded, err := slo.LoadSpec(*sloSpecPath)
			if err != nil {
				fatalf("slo: %v", err)
			}
			sloSpec = loaded
		}
	}
	replica, err := serving.New(ctx, serving.Config{
		Name:            "polygraphd",
		Addr:            *addr,
		Train:           cfgTrain,
		ModelPath:       cfgModelPath,
		Sessions:        *sessions,
		Novelty:         *novelty,
		RateLimitPerSec: *rateLimit,
		ReloadTimeout:   *reloadTimeout,
		JournalDir:      *journalDir,
		AuditDir:        *auditDir,
		AuditSample:     *auditSample,
		AuditMaxBytes:   *auditMaxBytes,
		DriftInterval:   *driftInterval,
		DriftReservoir:  *driftRes,
		TraceRingSize:   *traceRing,
		TraceSeed:       *traceSeed,
		SlowRequest:     *slowRequest,
		SLOSpec:         sloSpec,
		SLOInterval:     *sloInterval,
		Logger:          logger,
	})
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			fatalf("model: startup interrupted: %v", err)
		}
		fatalf("model: %v", err)
	}
	if err := replica.Start(); err != nil {
		fatalf("%v", err)
	}

	// The profiling listener is separate from the serving one so the
	// pprof surface never faces ingest traffic (and can bind loopback
	// while the service binds a VIP).
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(replica),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err.Error())
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

loop:
	for {
		select {
		case err := <-replica.Done():
			if err != nil {
				fatalf("serve: %v", err)
			}
			break loop
		case <-hup:
			if err := replica.RotateAudit(); err != nil {
				logger.Warn("audit rotate failed", "err", err.Error())
			} else if *auditDir != "" {
				logger.Info("audit ledger rotated", "dir", *auditDir)
			}
			replica.TriggerReload()
		case <-ctx.Done():
			logger.Info("shutting down")
			if err := replica.Close(); err != nil {
				logger.Warn("shutdown", "err", err.Error())
			}
			if debugSrv != nil {
				shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				debugSrv.Shutdown(shutdownCtx)
				cancel()
			}
			break loop
		}
	}
	stats := replica.Stats()
	logger.Info("served",
		"collections", stats.Received, "flagged", stats.Flagged, "rejected", stats.Rejected,
		"avg_score_us", fmt.Sprintf("%.1f", stats.AvgScoreUs))
}

// debugMux assembles the -debug-addr surface: pprof profiles, expvar,
// and (for convenience next to the profiles) the request-trace ring and
// the audit surface. See the README runbook for the capture recipe.
// The last two are forwarded to the replica's serving mux, which
// resolves the collect server per request: a -warm replica answers 503
// there until the fleet pushes its first model, and serves them from
// then on.
func debugMux(replica *serving.Replica) *http.ServeMux {
	mux := http.NewServeMux()
	serving.MountProfiling(mux)
	mux.Handle("GET /debug/traces", replica.Handler())
	mux.Handle("GET /debug/decisions", replica.Handler())
	return mux
}
