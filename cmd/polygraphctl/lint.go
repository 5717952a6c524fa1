package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strings"

	"polygraph/internal/obs"
)

// runLint checks a Prometheus text exposition (format 0.0.4) for
// structural problems: samples without HELP/TYPE, invalid metric names
// or TYPE values, histogram series with non-cumulative buckets, a
// missing terminal le="+Inf", or a _count that disagrees with the +Inf
// bucket. It is the CI gate for the serving metrics contract — run it
// over a file dumped by `loadgen -metrics-out`, a live /metrics URL, or
// stdin:
//
// -require lists what must be present: a surface name (replica, tcp,
// fleet) stands for every family internal/obs declares on it, anything
// else names one family.
//
//	polygraphctl lint metrics.txt
//	polygraphctl lint -require replica,tcp,fleet metrics.txt
//	polygraphctl lint -require polygraph_build_info,polygraph_feature_psi metrics.txt
//	polygraphctl lint http://127.0.0.1:8080/metrics
//	curl -s http://127.0.0.1:8080/metrics | polygraphctl lint -
func runLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	require := fs.String("require", "", "comma-separated surfaces (replica, tcp, fleet) or metric families that must be present")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return fail(stderr, "lint: exactly one source required (path, URL, or - for stdin)")
	}
	src := fs.Arg(0)
	data, err := readSource(src)
	if err != nil {
		return fail(stderr, "%v", err)
	}

	problems, err := obs.Lint(bytes.NewReader(data), obs.RequiredFamilies(strings.Split(*require, ",")...)...)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if len(problems) == 0 {
		fmt.Fprintf(stdout, "polygraphctl: %s: OK\n", src)
		return 0
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "%s:%d: %s\n", src, p.Line, p.Msg)
	}
	fmt.Fprintf(stderr, "polygraphctl: %s: %d problem(s)\n", src, len(problems))
	return 1
}
