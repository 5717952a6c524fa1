// Command polygraphd runs the Browser Polygraph collection and scoring
// service: it serves the fingerprinting script, ingests ≤1 KB payloads,
// and returns real-time risk decisions.
//
// Usage:
//
//	polygraphd -model model.json -addr :8080
//	polygraphd -train -sessions 40000 -addr :8080   # train in-process first
//	polygraphd -warm -addr :8080                    # fleet-managed: wait for a push
//	polygraphd -model model.json -tcp-addr :9090    # also serve the framed TCP protocol
//
// With -warm the daemon boots without a model and fails closed: every
// endpoint (including /healthz) answers 503 until the fleet control
// plane (cmd/polygraphctl push) deploys a model through POST
// /admin/model and hash-verifies it. A warm replica has no reload
// source, so SIGHUP only rotates the audit segment — redeployment is
// the controller's job.
//
// The replica runtime itself — model load/train, collect server, drift
// telemetry, audit ledger, hot reload — lives in
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

// options is the command line: the replica's configuration (everything
// but the logger) and what main itself acts on.
type options struct {
	replica   serving.Config
	train     bool
	modelPath string
	debugAddr string
	logJSON   bool
	version   bool
}

// parseFlags turns the command line into the replica configuration main
// boots, so a test can boot the same replica from the same flags.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	c := &o.replica
	c.Name = "polygraphd"
	fs := flag.NewFlagSet("polygraphd", flag.ContinueOnError)
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.TCPAddr, "tcp-addr", "", "also serve the framed TCP protocol (length-prefixed binary payloads, pipelined frames scored as one batch) on this address (empty = off)")
	fs.StringVar(&o.modelPath, "model", "model.json", "trained model path")
	fs.BoolVar(&o.train, "train", false, "train a fresh model in-process instead of loading one")
	warm := fs.Bool("warm", false, "start without a model and wait for a fleet push (everything 503s until /admin/model deploys one)")
	fs.IntVar(&c.Sessions, "sessions", 40000, "sessions to generate when -train is set")
	fs.BoolVar(&c.Novelty, "novelty", false, "arm the novelty guard when training with -train")
	fs.Float64Var(&c.RateLimitPerSec, "rate-limit", 0, "per-client-IP requests/second on the ingest endpoints (0 = off)")
	fs.DurationVar(&c.ReloadTimeout, "reload-timeout", 5*time.Minute, "deadline for a SIGHUP model reload/retrain")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listener for pprof/expvar (empty = off)")
	fs.DurationVar(&c.SlowRequest, "slow-request", 100*time.Millisecond, "log requests slower than this with their trace")
	fs.IntVar(&c.TraceRingSize, "trace-ring", 256, "finished request traces each shard of the /debug/traces ring retains")
	fs.Uint64Var(&c.TraceSeed, "trace-seed", 1, "seed for the deterministic trace-ID stream")
	fs.DurationVar(&c.DriftInterval, "drift-interval", time.Minute, "period of the live feature-drift PSI evaluation (0 = off)")
	fs.IntVar(&c.DriftReservoir, "drift-reservoir", 512, "feature vectors sampled from live traffic for drift PSI")
	fs.StringVar(&c.AuditDir, "audit-dir", "", "directory for the checksummed decision audit ledger (empty = off)")
	fs.IntVar(&c.AuditSample, "audit-sample", 1, "record every Nth benign decision in the audit ledger (flagged always recorded)")
	fs.Int64Var(&c.AuditMaxBytes, "audit-max-bytes", 0, "rotate audit-ledger segments beyond this size (0 = 16 MiB default)")
	sloSpecPath := fs.String("slo-spec", "", "SLO spec JSON for burn-rate alerting (empty = the built-in spec)")
	fs.DurationVar(&c.SLOInterval, "slo-interval", 10*time.Second, "SLO engine tick period (0 disables the engine)")
	fs.BoolVar(&o.version, "version", false, "print build info (and the model hash when -model loads) and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	c.Train, c.ModelPath = o.train, o.modelPath
	if *warm {
		if o.train {
			return nil, errors.New("-warm and -train are mutually exclusive")
		}
		c.Train, c.ModelPath = false, ""
	}
	// Burn-rate alerting is on by default with the built-in spec; the
	// engine arms itself on the first model deployment and serves GET
	// /debug/slo plus the polygraph_slo_* families from then on.
	if c.SLOInterval > 0 {
		c.SLOSpec = slo.DefaultSpec()
		if *sloSpecPath != "" {
			loaded, err := slo.LoadSpec(*sloSpecPath)
			if err != nil {
				return nil, fmt.Errorf("slo: %w", err)
			}
			c.SLOSpec = loaded
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "polygraphd:", err)
		os.Exit(2)
	}

	if o.version {
		fmt.Println(obs.Version("polygraphd"))
		// When a model file is on hand, print its hash too — the identity
		// the fleet control plane verifies across replicas.
		if !o.train {
			if f, err := os.Open(o.modelPath); err == nil {
				if m, err := core.Load(f); err == nil {
					if h, err := m.Hash(); err == nil {
						fmt.Printf("model %s %s\n", o.modelPath, h)
					}
				}
				f.Close()
			}
		}
		return
	}

	logger := obs.NewLogger(os.Stderr, o.logJSON).With("app", "polygraphd")
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	// The signal context exists before the first model load so that a
	// SIGINT during a slow in-process training run aborts it promptly
	// instead of waiting out the full train.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o.replica.Logger = logger
	replica, err := serving.New(ctx, o.replica)
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
	if o.debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              o.debugAddr,
			Handler:           debugMux(replica),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err.Error())
			}
		}()
		logger.Info("debug listener up", "addr", o.debugAddr)
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
			} else if o.replica.AuditDir != "" {
				logger.Info("audit ledger rotated", "dir", o.replica.AuditDir)
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
