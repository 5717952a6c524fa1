// Command promlint checks a Prometheus text-exposition (format 0.0.4)
// for structural problems: samples without HELP/TYPE, invalid metric
// names or TYPE values, histogram series with non-cumulative buckets, a
// missing terminal le="+Inf", or a _count that disagrees with the +Inf
// bucket. It is the CI gate for the serving metrics contract — run it
// over a file dumped by `loadgen -metrics-out`, a live /metrics URL, or
// stdin.
//
// Usage:
//
//	promlint metrics.txt
//	promlint -require polygraph_build_info,polygraph_feature_psi metrics.txt
//	promlint -require-file scripts/required-families-http.txt -require-file scripts/required-families-fleet.txt metrics.txt
//	promlint http://127.0.0.1:8080/metrics
//	loadgen -short | promlint -
//
// Exit codes: 0 clean, 1 lint problems, 2 usage/read error.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"polygraph/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("promlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	require := fs.String("require", "", "comma-separated metric families that must be present")
	var requireFiles []string
	fs.Func("require-file", "file listing required families (one per line, # comments); repeatable, combines with -require", func(path string) error {
		requireFiles = append(requireFiles, path)
		return nil
	})
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, obs.Version("promlint"))
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "promlint: exactly one source required (path, URL, or - for stdin)")
		return 2
	}
	src := fs.Arg(0)
	r, closer, err := open(src)
	if err != nil {
		fmt.Fprintf(stderr, "promlint: %v\n", err)
		return 2
	}
	defer closer()

	var required []string
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name != "" {
			required = append(required, name)
		}
	}
	for _, path := range requireFiles {
		fromFile, err := readRequireFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "promlint: %v\n", err)
			return 2
		}
		required = append(required, fromFile...)
	}
	problems, err := obs.Lint(r, required...)
	if err != nil {
		fmt.Fprintf(stderr, "promlint: %v\n", err)
		return 2
	}
	if len(problems) == 0 {
		fmt.Fprintf(stdout, "promlint: %s: OK\n", src)
		return 0
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "%s:%d: %s\n", src, p.Line, p.Msg)
	}
	fmt.Fprintf(stderr, "promlint: %s: %d problem(s)\n", src, len(problems))
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

// open resolves the source argument to a reader: "-" is stdin, an
// http(s) URL is fetched, anything else is a file path.
func open(src string) (io.Reader, func(), error) {
	switch {
	case src == "-":
		return os.Stdin, func() {}, nil
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get(src)
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, nil, fmt.Errorf("%s returned %d", src, resp.StatusCode)
		}
		return resp.Body, func() { resp.Body.Close() }, nil
	default:
		f, err := os.Open(src)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	}
}
