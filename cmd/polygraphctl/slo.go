package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"

	"polygraph/internal/bundle"
	"polygraph/internal/obs"
)

// runSLO evaluates an SLO spec offline against captured telemetry: a
// Prometheus metrics dump (loadgen -metrics-out, a live /metrics page)
// or a support bundle. It is the CI gate for the error-budget contract —
// a run whose lifetime counters violate any objective, or whose capture
// caught a burn-rate alert gauge firing, exits 1.
//
// The evaluation treats the exposition's cumulative counters as one
// window covering the whole run: the overall SLI since process start.
// Burn-rate windows need a live engine (GET /debug/slo); offline, the
// lifetime average plus the captured alert gauges are exactly the
// evidence a dump can support. For a bundle every target's exposition
// is evaluated independently, then the fleet aggregate
// (bundle.EvaluateSLO).
//
//	polygraphctl slo metrics.txt
//	polygraphctl slo -spec scripts/slo-smoke.json bundle.tgz
//	polygraphctl slo http://127.0.0.1:8080/metrics
func runSLO(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl slo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "SLO spec JSON (default: the built-in polygraph-default spec)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return fail(stderr, "slo: exactly one source required (metrics dump or bundle: path, URL, or - for stdin)")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	src := fs.Arg(0)
	data, err := readSource(src)
	if err != nil {
		return fail(stderr, "%v", err)
	}

	var checks []bundle.SLOCheck
	if isGzip(data) {
		b, err := bundle.Read(bytes.NewReader(data))
		if err != nil {
			return fail(stderr, "%s: %v", src, err)
		}
		checks = bundle.EvaluateSLO(b, spec)
	} else {
		checks = bundle.CheckExposition("run", spec, obs.ParseExpositionString(string(data)))
	}

	evaluated, violations := 0, 0
	for _, c := range checks {
		res := c.Result
		if c.Failed() {
			violations++
		}
		switch {
		case c.AlertFamily != "":
			fmt.Fprintf(stdout, "FAIL %s: burn-rate alert firing for objective %q (%s)\n", c.Scope, res.Objective, c.AlertFamily)
		case res.Vacuous:
			fmt.Fprintf(stdout, "  ok %s: %s vacuous (no traffic)\n", c.Scope, res.Objective)
		case res.Met:
			evaluated++
			fmt.Fprintf(stdout, "  ok %s: %s sli=%.5f >= target=%.5f (%.0f/%.0f)\n",
				c.Scope, res.Objective, res.SLI, res.Target, res.Good, res.Total)
		default:
			evaluated++
			fmt.Fprintf(stdout, "FAIL %s: %s sli=%.5f < target=%.5f (%.0f/%.0f)\n",
				c.Scope, res.Objective, res.SLI, res.Target, res.Good, res.Total)
		}
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "polygraphctl: %s: %d violation(s) under spec %q\n", src, violations, spec.Name)
		return 1
	}
	fmt.Fprintf(stdout, "polygraphctl: %s: OK (%d objective(s) evaluated under spec %q)\n", src, evaluated, spec.Name)
	return 0
}

// isGzip sniffs the gzip magic so bundles work under any file name.
func isGzip(data []byte) bool {
	return len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
}
