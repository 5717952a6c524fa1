// Command loadgen is the deterministic load/soak harness for the serving
// path. It synthesizes a PCG-seeded mix of honest and fraud-browser
// sessions, drives a target through scripted scenario phases (ramp /
// steady / burst), and reports per-endpoint latency quantiles, achieved
// throughput, an error taxonomy, and a client-vs-server cross-check of
// the ingest counters.
//
// Usage:
//
//	loadgen -short                          # built-in smoke scenario, one in-process replica
//	loadgen -scenario soak.json             # scripted scenario, one in-process replica
//	loadgen -short -fleet 3                 # 3 in-process replicas behind the balancer
//	loadgen -short -fleet 3 -fleet-kill     # same, draining one replica mid-steady
//	loadgen -tcp -scenario tcp-bench.json   # the replica's framed TCP listener (frame coalescer)
//	loadgen -tcp -min-rps 4000              # same, gating on sustained throughput
//	loadgen -addr http://127.0.0.1:8080     # drive a live polygraphd
//
// Every target is a fleet.Member behind the health-checked balancer
// (internal/fleet). In-process, the members are serving.Replica values
// — the runtime cmd/polygraphd runs, configured the same way whatever
// their number: loadgen trains one model (fixed dataset seed,
// -train-sessions), boots N warming replicas and distributes the model
// hash-verified through their admin endpoints; each replica measures
// drift against the baseline the model carries. N is 1 unless -fleet
// says otherwise;
// -tcp drives that one replica's framed listener. With -addr the one
// member is a live server reached over plain HTTP.
//
// A fixed-seed run is fully reproducible: two runs produce an identical
// request stream and an identical ledger (-ledger writes it as JSON for
// byte-compare). CI runs each smoke command twice, diffs the ledgers,
// and gates on -fail-on-errors plus the -max-p99 ceiling or -min-rps
// floor. The cross-check reconciles the client ledger against the sum
// of all members' counters — and -fleet-kill proves the availability
// story by draining one replica at the exact midpoint of the steady
// phase, which must cost zero client-visible errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polygraph/internal/bundle"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/loadgen"
	"polygraph/internal/obs"
	"polygraph/internal/serving"
	"polygraph/internal/slo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the harness and returns the process exit code (0 ok,
// 1 assertion failure, 2 usage/setup error).
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath  = fs.String("scenario", "", "scenario file (JSON); empty uses a built-in scenario")
		short         = fs.Bool("short", false, "use the built-in short deterministic smoke scenario")
		seed          = fs.Uint64("seed", 1, "scenario seed (drives the whole request stream)")
		addr          = fs.String("addr", "", "base URL of a live server (empty = in-process replicas)")
		trainSessions = fs.Int("train-sessions", 12000, "training-set size for the in-process model")
		fraudMix      = fs.Float64("fraud-mix", -1, "override the scenario's fraud-browser mix (-1 keeps it)")
		invalidMix    = fs.Float64("invalid-mix", -1, "override the scenario's malformed-payload mix (-1 keeps it)")
		maxP99        = fs.Duration("max-p99", 0, "fail when any endpoint's overall p99 exceeds this (0 = off)")
		failOnErrors  = fs.Bool("fail-on-errors", false, "fail on any non-2xx response or transport error")
		ledgerPath    = fs.String("ledger", "", "write the deterministic run ledger (JSON) to this path")
		noCrossCheck  = fs.Bool("no-crosscheck", false, "skip the /metrics reconciliation")
		metricsOut    = fs.String("metrics-out", "", "dump the first member's /metrics exposition plus the balancer's fleet families to this path after the run")
		auditDir      = fs.String("audit-dir", "", "enable the decision audit ledger, the one evidence log every flagged verdict goes to, on the in-process replicas; replica r<i> writes to <dir>/r<i>")
		auditSample   = fs.Int("audit-sample", 1, "record every Nth benign decision in the audit ledger (flagged always recorded)")
		modelOut      = fs.String("model-out", "", "save the in-process model to this file (for polygraphctl audit replay)")
		fleetN        = fs.Int("fleet", 0, "run N in-process replicas behind the health-checked balancer (0 = one)")
		fleetKill     = fs.Bool("fleet-kill", false, "drain one replica at the midpoint of the steady phase (requires -fleet of at least 2)")
		tcpMode       = fs.Bool("tcp", false, "drive the replica's framed TCP listener (frame coalescer) instead of the HTTP endpoints")
		minRPS        = fs.Float64("min-rps", 0, "fail when overall achieved requests-per-second falls below this floor (0 = off)")
		bundleOut     = fs.String("bundle-out", "", "capture a support bundle from the target into this tar.gz after the run")
		sloSpecPath   = fs.String("slo-spec", "", "SLO spec JSON evaluated by the in-process replicas and the fleet rollup (empty = the built-in spec)")
		faultSlow     = fs.Duration("fault-slow", 0, "SLO fault drill: delay every HTTP score on the one in-process replica by this much")
		version       = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, obs.Version("loadgen"))
		return 0
	}
	replicas := max(*fleetN, 1)
	usage := ""
	switch {
	case *addr != "" && (*fleetN > 0 || *tcpMode || *faultSlow > 0 || *auditDir != "" || *modelOut != ""):
		usage = "-fleet, -tcp, -fault-slow, -audit-dir and -model-out configure in-process replicas and cannot combine with -addr"
	case *fleetKill && replicas < 2:
		usage = "-fleet-kill needs -fleet of at least 2 (a 1-replica fleet cannot survive a kill)"
	case replicas > 1 && (*tcpMode || *faultSlow > 0 || *auditDir != "" && *auditSample != 1):
		// Which replica serves a request depends on routing, so every-Nth
		// benign sampling and a per-replica delay stop being a function
		// of the seed; the framed listener has no balancer in front.
		usage = "-tcp, -fault-slow and -audit-sample other than 1 need exactly one replica (with more, routing decides which replica samples or delays a request)"
	case *tcpMode && *faultSlow > 0:
		usage = "-fault-slow delays the HTTP score path, which -tcp does not drive"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "loadgen: "+usage)
		return 2
	}

	sc, err := buildScenario(*scenarioPath, *short, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *fraudMix >= 0 {
		sc.FraudMix = *fraudMix
	}
	if *invalidMix >= 0 {
		sc.InvalidMix = *invalidMix
	}
	if *tcpMode {
		if sc.InvalidMix > 0 {
			fmt.Fprintln(stderr, "loadgen: -tcp drives the binary frame codec only; set -invalid-mix 0 (corrupted bodies have no decoded payload to pipeline)")
			return 2
		}
		// The JSON/binary coin flip still burns one PCG draw per pool
		// entry, so zeroing the mix changes only the encoding — the
		// session stream (and therefore every verdict) is identical to
		// the same scenario driven over HTTP.
		sc.JSONMix = 0
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sloSpec := slo.DefaultSpec()
	if *sloSpecPath != "" {
		loaded, err := slo.LoadSpec(*sloSpecPath)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 2
		}
		sloSpec = loaded
	}

	ctx := context.Background()
	var rig *targetRig
	if *addr != "" {
		rig, err = liveRig(ctx, sc, *addr, sloSpec, stderr)
	} else {
		rig, err = startRig(ctx, sc, rigConfig{
			replicas:    replicas,
			sessions:    *trainSessions,
			auditDir:    *auditDir,
			auditSample: *auditSample,
			tcp:         *tcpMode,
			faultSlow:   *faultSlow,
			sloSpec:     sloSpec,
		}, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: target: %v\n", err)
		return 2
	}
	defer rig.shutdown()
	if *modelOut != "" {
		if err := saveModel(rig.model, *modelOut); err != nil {
			fmt.Fprintf(stderr, "loadgen: model-out: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "model: saved to %s\n", *modelOut)
	}

	pool, err := loadgen.BuildPool(sc, rig.features)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}
	opts := loadgen.Options{
		Scenario:       sc,
		Pool:           pool,
		Fleet:          rig.balancer,
		TCPAddr:        rig.tcpAddr,
		SkipCrossCheck: *noCrossCheck,
		ExpectAudit:    *auditDir != "",
	}
	if *fleetKill {
		opts.Hook = &loadgen.PhaseHook{Midpoint: func(phase string) {
			if phase != killPhase {
				return
			}
			victim := rig.replicas[len(rig.replicas)-1]
			fmt.Fprintf(stderr, "loadgen: fleet drill: draining replica %s mid-%s\n", victim.Name(), phase)
			// Out of rotation first, shutdown second: quiescing
			// before Drain is what keeps the client-vs-fleet
			// reconciliation exact (see fleet.Quiesce).
			qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
			if err := rig.balancer.Quiesce(qctx, victim.Name()); err != nil {
				fmt.Fprintf(stderr, "loadgen: fleet drill: %v\n", err)
			}
			qcancel()
			victim.Drain()
		}}
	}
	report, err := loadgen.Run(ctx, opts)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, loadgen.FormatReport(report))
	for _, ms := range rig.balancer.Snapshot() {
		fmt.Fprintf(stdout, "fleet: %-4s %-22s %-8s hash=%s\n", ms.Name, ms.BaseURL, ms.State, short12(ms.ModelHash))
	}

	// The background cadences are too slow for a short run, so force the
	// evaluations once over the traffic just sent: each drift monitor's
	// PSI gauges, then every SLO engine and the fleet rollup one final
	// deterministic tick over the run's finished counters — the exported
	// gauges, and any burn-rate alert a fault drill tripped, then reflect
	// the whole run in the -metrics-out dump and the support bundle.
	for _, r := range rig.replicas {
		if _, err := r.Drift().Evaluate(); err != nil && !errors.Is(err, obs.ErrDriftNotReady) {
			fmt.Fprintf(stderr, "loadgen: drift evaluation %s: %v\n", r.Name(), err)
		}
		if err := r.SLO().TickNow(); err != nil {
			fmt.Fprintf(stderr, "loadgen: slo tick %s: %v\n", r.Name(), err)
		}
	}
	if _, err := rig.rollup.Collect(ctx); err != nil {
		fmt.Fprintf(stderr, "loadgen: slo rollup: %v\n", err)
	}
	printSLO(stdout, rig.rollup.Engine().Status())
	if *metricsOut != "" {
		if err := rig.dumpMetrics(ctx, *metricsOut); err != nil {
			fmt.Fprintf(stderr, "loadgen: metrics-out: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "metrics: exposition written to %s\n", *metricsOut)
	}

	if *ledgerPath != "" {
		if err := writeLedger(*ledgerPath, report); err != nil {
			fmt.Fprintf(stderr, "loadgen: write ledger: %v\n", err)
			return 2
		}
	}
	if *bundleOut != "" {
		if err := rig.captureBundle(ctx, *bundleOut); err != nil {
			fmt.Fprintf(stderr, "loadgen: bundle-out: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "bundle: support bundle written to %s\n", *bundleOut)
	}

	return assess(report, *maxP99, *minRPS, *failOnErrors, stderr)
}

// assess applies the gate assertions and returns the exit code.
func assess(report *loadgen.Report, maxP99 time.Duration, minRPS float64, failOnErrors bool, stderr *os.File) int {
	code := 0
	if report.BudgetExceeded {
		fmt.Fprintln(stderr, "loadgen: FAIL: run exceeded its wall-clock budget")
		code = 1
	}
	if failOnErrors {
		if n := report.Ledger.Errors(); n != 0 {
			fmt.Fprintf(stderr, "loadgen: FAIL: %d error responses/transport failures (want 0)\n", n)
			code = 1
		}
	}
	if maxP99 > 0 {
		if p99 := report.P99(); p99 > maxP99 {
			fmt.Fprintf(stderr, "loadgen: FAIL: overall p99 %v exceeds ceiling %v\n", p99, maxP99)
			code = 1
		}
	}
	if minRPS > 0 && report.Elapsed > 0 {
		if rps := float64(report.Ledger.Sent) / report.Elapsed.Seconds(); rps < minRPS {
			fmt.Fprintf(stderr, "loadgen: FAIL: sustained %.0f requests/sec, below the -min-rps floor %.0f\n", rps, minRPS)
			code = 1
		}
	}
	if cc := report.CrossCheck; cc != nil && !cc.OK {
		fmt.Fprintln(stderr, "loadgen: FAIL: client ledger does not reconcile with server counters")
		code = 1
	}
	return code
}

func buildScenario(path string, short bool, seed uint64) (*loadgen.Scenario, error) {
	if path != "" {
		sc, err := loadgen.LoadScenario(path)
		if err != nil {
			return nil, err
		}
		if seed != 1 {
			sc.Seed = seed
		}
		return sc, nil
	}
	if short {
		return loadgen.ShortScenario(seed), nil
	}
	return loadgen.DefaultScenario(seed), nil
}

// trainModel builds the deterministic in-process model: fixed dataset
// seed and the scenario's UA version ceiling.
func trainModel(sc *loadgen.Scenario, sessions int, stderr *os.File) (*core.Model, error) {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = sessions
	cfg.MaxVersion = sc.MaxVersion
	if cfg.MaxVersion == 0 {
		cfg.MaxVersion = 114
	}
	fmt.Fprintf(stderr, "loadgen: training in-process model on %d sessions...\n", sessions)
	_, model, _, err := dataset.Train(cfg, core.DefaultTrainConfig())
	return model, err
}

// killPhase is the scenario phase whose midpoint hosts the -fleet-kill
// drill. Every built-in scenario names its main fixed-count phase
// "steady", which pins the drain to the same request index every run.
const killPhase = "steady"

// targetRig is the run's target: members behind a balancer, the fleet-level
// SLO rollup over them, and what the run needs to know about them. An
// in-process rig also owns the replicas behind the members.
type targetRig struct {
	balancer *fleet.Balancer
	rollup   *fleet.SLORollup
	// features is the feature set the payloads must carry.
	features []fingerprint.Feature

	// In-process only: the trained model, the replicas serving it, and
	// the first replica's framed listener when the run drives TCP.
	model    *core.Model
	replicas []*serving.Replica
	tcpAddr  string

	cancel context.CancelFunc // stops the health loop
}

// newRig puts members behind a balancer pinned to expectHash, attaches
// the fleet-level rollup (loadgen drives Collect explicitly after the
// run, keeping the fleet page a function of the run alone), and returns
// the rig with nobody admitted yet.
func newRig(sc *loadgen.Scenario, expectHash string, sloSpec *slo.Spec, logger *slog.Logger, members ...fleet.Member) (*targetRig, error) {
	b, err := fleet.NewBalancer(fleet.Config{Seed: sc.Seed, ExpectHash: expectHash, Logger: logger}, members...)
	if err != nil {
		return nil, err
	}
	rollup, err := fleet.NewSLORollup(b, sloSpec, 1, logger)
	if err != nil {
		return nil, err
	}
	b.AttachSLO(rollup)
	return &targetRig{balancer: b, rollup: rollup}, nil
}

// serve starts the 200ms health loop that keeps ejection and
// re-admission live for the rest of the run.
func (rig *targetRig) serve(ctx context.Context) {
	ctx, rig.cancel = context.WithCancel(ctx)
	go rig.balancer.RunHealth(ctx, 200*time.Millisecond)
}

// liveRig fronts a running server with a one-member balancer. The
// member is plain HTTP: stats, metrics, probes and bundle artifacts all
// come off its listener. The payloads carry the standard Table 8
// feature set every polygraphd deployment serves — the run's
// cross-check catches a width mismatch immediately (every request
// rejects) — and an unreachable address fails the same way: the first
// send ejects the member and the ledger fills with transport errors.
func liveRig(ctx context.Context, sc *loadgen.Scenario, addr string, sloSpec *slo.Spec, stderr *os.File) (*targetRig, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	rig, err := newRig(sc, "", sloSpec, obs.NewLogger(stderr, false), fleet.Member{Name: "live", BaseURL: addr})
	if err != nil {
		return nil, err
	}
	if err := rig.balancer.Admit("live", ""); err != nil {
		return nil, err
	}
	rig.features = fingerprint.Table8()
	rig.serve(ctx)
	return rig, nil
}

// rigConfig is what the flags decide about the in-process replicas.
type rigConfig struct {
	replicas    int
	sessions    int
	auditDir    string
	auditSample int
	tcp         bool
	faultSlow   time.Duration
	sloSpec     *slo.Spec
}

// startRig trains the model once and stands up cfg.replicas warming
// replicas on loopback listeners — all configured alike, as polygraphd
// would be — then walks the real fleet admission path: pin the balancer
// to the trained model's hash, distribute the model through every
// replica's admin endpoint, and hash-verify each deployment before
// admission. Each deployment installs the model's drift baseline, so a
// post-run Evaluate exports real PSI values.
func startRig(ctx context.Context, sc *loadgen.Scenario, cfg rigConfig, stderr *os.File) (*targetRig, error) {
	model, err := trainModel(sc, cfg.sessions, stderr)
	if err != nil {
		return nil, err
	}
	hash, err := model.Hash()
	if err != nil {
		return nil, err
	}
	logger := obs.NewLogger(stderr, false).With("app", "loadgen")

	var replicas []*serving.Replica
	ok := false
	defer func() {
		if !ok {
			for _, r := range replicas {
				r.Close()
			}
		}
	}()
	members := make([]fleet.Member, 0, cfg.replicas)
	for i := 0; i < cfg.replicas; i++ {
		rc := serving.Config{
			Name:          fmt.Sprintf("r%d", i),
			Addr:          "127.0.0.1:0",
			AuditSample:   cfg.auditSample,
			DriftInterval: time.Minute,
			TraceSeed:     sc.Seed,
			ScoreDelay:    cfg.faultSlow,
			Logger:        logger,
			// Self-snapshotting replicas: pprof/expvar on the serving
			// mux so -bundle-out can capture profiles in-process.
			Debug: true,
			// Per-replica burn-rate engines; loadgen ticks each one a
			// final time post-run so the 1s background cadence never
			// races the metrics dump.
			SLOSpec:     cfg.sloSpec,
			SLOInterval: time.Second,
		}
		if cfg.auditDir != "" {
			rc.AuditDir = filepath.Join(cfg.auditDir, rc.Name)
		}
		if cfg.tcp {
			rc.TCPAddr = "127.0.0.1:0"
		}
		r, err := serving.New(ctx, rc)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, r)
		if err := r.Start(); err != nil {
			return nil, err
		}
		members = append(members, r.Member())
	}

	rig, err := newRig(sc, hash, cfg.sloSpec, logger, members...)
	if err != nil {
		return nil, err
	}
	results, err := (&fleet.Controller{Logger: logger}).Distribute(ctx, rig.balancer, model)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if !res.Admitted {
			return nil, fmt.Errorf("replica %s refused: %v", res.Name, res.Error)
		}
		fmt.Fprintf(stderr, "loadgen: fleet: %s %s admitted hash=%s\n", res.Name, res.BaseURL, short12(res.Hash))
	}
	rig.model, rig.features, rig.replicas = model, model.Features, replicas
	rig.tcpAddr = replicas[0].TCPAddr()
	rig.serve(ctx)
	ok = true
	return rig, nil
}

// shutdown stops the health loop and closes the replicas, which seals
// their audit ledgers so `polygraphctl audit` can verify and replay them the moment
// the process exits.
func (rig *targetRig) shutdown() {
	rig.cancel()
	for _, r := range rig.replicas {
		r.Close()
	}
}

// dumpMetrics writes the first member's full exposition with the
// balancer's fleet families appended — one file carrying both the
// serving contract and the fleet contract for `polygraphctl lint`.
func (rig *targetRig) dumpMetrics(ctx context.Context, path string) error {
	text, err := rig.balancer.Members()[0].FetchMetrics(ctx, rig.balancer.Client())
	if err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString(text)
	rig.balancer.WriteMetrics(&b)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// captureBundle snapshots the target into a support bundle: every
// member (in-process replicas straight off their muxes, so a drained
// kill-drill victim is still captured) plus the balancer's own
// exposition. Collector errors are recorded in the manifest, not fatal.
func (rig *targetRig) captureBundle(ctx context.Context, path string) error {
	_, err := bundle.CaptureFile(ctx, path, bundle.Options{
		Tool:         obs.Version("loadgen").String(),
		Targets:      rig.balancer.BundleTargets(),
		FleetMetrics: rig.balancer.WriteMetrics,
	})
	return err
}

// printSLO summarizes the run's error-budget standing: one quiet line
// when everything is within budget, one loud line per firing objective
// otherwise (the same state `polygraphctl slo` gates on from the metrics dump).
func printSLO(w io.Writer, page slo.Page) {
	if !page.Alerting {
		fmt.Fprintf(w, "slo: %s: %d objective(s) within budget\n", page.Spec, len(page.Objectives))
		return
	}
	for _, o := range page.Objectives {
		if !o.Alerting {
			continue
		}
		fmt.Fprintf(w, "slo: ALERT %s: %s burning error budget (sli=%.5f target=%.5f fast=%v slow=%v)\n",
			page.Spec, o.Name, o.SLI, o.Target, o.FastBurn, o.SlowBurn)
	}
}

// short12 abbreviates a model hash for one-line fleet summaries.
func short12(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	if h == "" {
		return "-"
	}
	return h
}

// saveModel serializes the in-process model so `polygraphctl audit replay` can pair
// it with the ledger the run just produced.
func saveModel(m *core.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLedger writes the deterministic ledger as indented JSON; CI runs
// the same scenario twice and byte-compares the two files.
func writeLedger(path string, report *loadgen.Report) error {
	data, err := json.MarshalIndent(&report.Ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
