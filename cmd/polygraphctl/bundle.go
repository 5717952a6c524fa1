package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"polygraph/internal/bundle"
	"polygraph/internal/obs"
)

// runBundle captures and analyzes support bundles — the one-command
// diagnosis path for a live daemon or a whole fleet.
//
// Capture snapshots every target (metrics exposition, trace ring,
// redacted recent audit records, model provenance, expvar, pprof
// profiles) into one deterministic tar.gz whose manifest records what
// was captured and what failed; a dead replica becomes recorded
// collector errors, never a failed capture:
//
//	polygraphctl bundle capture -o bundle.tgz -addr http://127.0.0.1:8080
//	polygraphctl bundle capture -o bundle.tgz -addr host:8080 -debug-addr host:6060
//	polygraphctl bundle capture -o fleet.tgz -fleet r0:8080,r1:8080,r2:8080
//	polygraphctl bundle capture -o bundle.tgz -addr ... -no-redact -pprof-seconds 5 -file 'notes*.txt'
//
// Analyze replays the offline rule catalog (internal/bundle) over a
// captured bundle and prints machine-readable pass/warn/fail findings;
// warnings alone still exit 0:
//
//	polygraphctl bundle analyze bundle.tgz
//	polygraphctl bundle analyze -json -p99-budget 250ms -slo-spec scripts/slo-smoke.json bundle.tgz
func runBundle(args []string, stdout, stderr io.Writer) int {
	return dispatch("bundle", []command{
		{"capture", runBundleCapture},
		{"analyze", runBundleAnalyze},
	}, args, stdout, stderr)
}

func runBundleCapture(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl bundle capture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "bundle.tgz", "output bundle path")
	addr := fs.String("addr", "", "single target base URL (e.g. http://127.0.0.1:8080)")
	debugAddr := fs.String("debug-addr", "", "separate pprof/expvar listener URL for -addr (polygraphd -debug-addr)")
	fleetList := fs.String("fleet", "", "comma-separated replica base URLs for a fleet-wide capture")
	noRedact := fs.Bool("no-redact", false, "ship audit records verbatim (UA strings and fingerprint vectors included)")
	pprofSeconds := fs.Int("pprof-seconds", 2, "CPU profile duration per target (0 skips the CPU profile)")
	skipPprof := fs.Bool("skip-pprof", false, "skip pprof profiles entirely")
	recent := fs.Int("n", 256, "trace/decision ring depth to capture")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall capture deadline")
	var globs []string
	fs.Func("file", "extra file glob to pack under files/ (repeatable)", func(v string) error {
		globs = append(globs, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*addr == "") == (*fleetList == "") {
		return fail(stderr, "bundle capture needs exactly one of -addr or -fleet")
	}

	var targets []bundle.Target
	if *addr != "" {
		targets = append(targets, bundle.Target{Name: "server", BaseURL: baseURL(*addr), DebugURL: baseURL(*debugAddr)})
	} else {
		members, err := parseReplicas(*fleetList)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		for _, m := range members {
			targets = append(targets, m.BundleTarget())
		}
	}

	var files []string
	for _, g := range globs {
		matches, err := filepath.Glob(g)
		if err != nil {
			return fail(stderr, "bad -file glob %q: %v", g, err)
		}
		files = append(files, matches...)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	manifest, err := bundle.CaptureFile(ctx, *out, bundle.Options{
		Targets:      targets,
		Client:       &http.Client{Timeout: *timeout},
		NoRedact:     *noRedact,
		PprofSeconds: *pprofSeconds,
		SkipPprof:    *skipPprof,
		Recent:       *recent,
		Files:        files,
		Config: map[string]any{
			"addr": *addr, "debug_addr": *debugAddr, "fleet": *fleetList,
			"no_redact": *noRedact, "pprof_seconds": *pprofSeconds, "n": *recent,
		},
		Tool: obs.Version("polygraphctl").String(),
	})
	if err != nil {
		return fail(stderr, "bundle capture: %v", err)
	}

	nArtifacts, nErrors := 0, len(manifest.Errors)
	for _, t := range manifest.Targets {
		nArtifacts += len(t.Artifacts)
		nErrors += len(t.Errors)
	}
	nArtifacts += len(manifest.Files)
	fmt.Fprintf(stdout, "polygraphctl: %s: %d target(s), %d artifact(s), %d collector error(s)\n",
		*out, len(manifest.Targets), nArtifacts, nErrors)
	for _, t := range manifest.Targets {
		for _, ce := range t.Errors {
			fmt.Fprintf(stdout, "  warn %s/%s: %s\n", t.Name, ce.Artifact, ce.Err)
		}
	}
	for _, ce := range manifest.Errors {
		fmt.Fprintf(stdout, "  warn %s: %s\n", ce.Artifact, ce.Err)
	}
	return 0
}

func runBundleAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl bundle analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	p99Budget := fs.Duration("p99-budget", 100*time.Millisecond, "per-endpoint p99 latency budget")
	sloSpecPath := fs.String("slo-spec", "", "SLO spec JSON for the slo-violation rule (default: the built-in spec)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return fail(stderr, "bundle analyze needs exactly one bundle (path, URL, or - for stdin)")
	}
	sloSpec, err := loadSpec(*sloSpecPath)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	src := fs.Arg(0)
	data, err := readSource(src)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	b, err := bundle.Read(bytes.NewReader(data))
	if err != nil {
		return fail(stderr, "%s: %v", src, err)
	}

	findings := bundle.Analyze(b, bundle.AnalyzeOptions{
		P99BudgetUs: float64(p99Budget.Microseconds()),
		SLOSpec:     sloSpec,
	})
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return fail(stderr, "%v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}

	var warns, fails int
	for _, f := range findings {
		switch f.Severity {
		case bundle.SeverityWarn:
			warns++
		case bundle.SeverityFail:
			fails++
		}
	}
	fmt.Fprintf(stderr, "polygraphctl: %s: %d finding(s), %d warn, %d fail\n", src, len(findings), warns, fails)
	if fails > 0 {
		return 1
	}
	return 0
}
