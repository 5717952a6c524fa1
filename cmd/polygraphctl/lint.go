package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
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
//	polygraphctl lint metrics.txt
//	polygraphctl lint -require polygraph_build_info,polygraph_feature_psi metrics.txt
//	polygraphctl lint -require-file scripts/required-families-http.txt -require-file scripts/required-families-fleet.txt metrics.txt
//	polygraphctl lint http://127.0.0.1:8080/metrics
//	curl -s http://127.0.0.1:8080/metrics | polygraphctl lint -
func runLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	require := fs.String("require", "", "comma-separated metric families that must be present")
	var requireFiles []string
	fs.Func("require-file", "file listing required families (one per line, # comments); repeatable, combines with -require", func(path string) error {
		requireFiles = append(requireFiles, path)
		return nil
	})
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

	var required []string
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name != "" {
			required = append(required, name)
		}
	}
	for _, path := range requireFiles {
		fromFile, err := readRequireFile(path)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		required = append(required, fromFile...)
	}
	problems, err := obs.Lint(bytes.NewReader(data), required...)
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

// readRequireFile parses a required-families list: one family per
// line, blank lines and #-comments ignored. The committed lists under
// scripts/ are the single source of truth for CI's metric contracts.
func readRequireFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			names = append(names, line)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("require-file %s lists no families", path)
	}
	return names, nil
}
