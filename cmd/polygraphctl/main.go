// Command polygraphctl is the operator's tool for a polygraph
// deployment: the fleet control plane (push a model trained offline by
// polygraph train to every replica, verify the fleet serves one hash)
// and the offline checks an operator or CI runs against what the
// service wrote down.
//
// Subcommands:
//
//	polygraphctl push -model model.json -replicas url1,url2,...
//	                                    distribute the model: POST it to
//	                                    every replica's admin endpoint,
//	                                    verify each deploys the identical
//	                                    hash, report per-replica results
//	polygraphctl status -replicas url1,url2,...
//	                                    probe each replica's health and
//	                                    deployed model hash; fail unless
//	                                    all live replicas agree
//	polygraphctl lint <source>         check a /metrics exposition (lint.go)
//	polygraphctl slo <source>          evaluate an SLO spec over a metrics
//	                                    dump or a support bundle (slo.go)
//	polygraphctl bundle capture|analyze
//	                                    snapshot a daemon or fleet into a
//	                                    support bundle; replay the offline
//	                                    rule catalog over one (bundle.go)
//	polygraphctl audit verify|ls|replay
//	                                    check, list and re-derive a decision
//	                                    audit ledger (audit.go)
//	polygraphctl version               print build info
//
// The push contract is the paper's deployment story scaled out: the
// model is trained once (Section 5's offline clustering), and serving
// capacity comes from replicas that are only admitted when they prove —
// by hash — that they score with exactly that model. A replica that
// deploys anything else is refused, because two replicas with different
// models silently give different verdicts for the same fingerprint.
//
// Conventions every subcommand shares. A <source> is a file path, an
// http(s) URL, or - for stdin. A replica list (-replicas, -fleet) is
// comma-separated base URLs, http:// assumed where no scheme is given,
// named r0, r1, ... in list order. Exit codes: 0 clean, 1 a check
// failed (a lint problem, an SLO violation, a FAIL finding, a damaged
// or diverging ledger, a refused replica, a fleet that disagrees),
// 2 usage or read error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"polygraph/internal/bundle"
	"polygraph/internal/core"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return dispatch("", []command{
		{"push", runPush},
		{"status", runStatus},
		{"lint", runLint},
		{"slo", runSLO},
		{"bundle", runBundle},
		{"audit", runAudit},
		{"version", runVersion},
		{"-version", runVersion},
		{"--version", runVersion},
	}, args, stdout, stderr)
}

const usage = `usage:
  polygraphctl push -model model.json -replicas url1,url2,...
  polygraphctl status -replicas url1,url2,...
  polygraphctl lint [-require replica,tcp,fleet|family,...] <source>
  polygraphctl slo [-spec spec.json] <metrics-or-bundle-source>
  polygraphctl bundle capture -o bundle.tgz (-addr URL | -fleet URL,URL,...) [flags]
  polygraphctl bundle analyze [-json] [-p99-budget D] [-slo-spec spec.json] <bundle-source>
  polygraphctl audit verify <ledger-dir>
  polygraphctl audit ls [-n N] [-verdict flagged|benign] [-trace id] [-json] <ledger-dir>
  polygraphctl audit replay [-model model.json] [-v] <ledger-dir>
  polygraphctl version
a <source> is a file path, an http(s) URL, or - for stdin
`

// command is one name a dispatch level accepts.
type command struct {
	name string
	run  func(args []string, stdout, stderr io.Writer) int
}

// dispatch runs the command args[0] names. No name, a request for help
// or a name the level does not have — repeated in the message — is a
// usage error; group is the level's own name ("" at the top).
func dispatch(group string, cmds []command, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range cmds {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		if h := args[0]; h != "-h" && h != "-help" && h != "--help" {
			fmt.Fprintf(stderr, "%s: unknown subcommand %q\n", strings.TrimSpace("polygraphctl "+group), h)
		}
	}
	fmt.Fprint(stderr, usage)
	return 2
}

// fail reports a usage or read error: exit code 2 in every subcommand.
func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "polygraphctl: "+format+"\n", args...)
	return 2
}

func runVersion(_ []string, stdout, _ io.Writer) int {
	fmt.Fprintln(stdout, obs.Version("polygraphctl"))
	return 0
}

// readSource resolves a <source> argument: "-" is stdin, an http(s)
// URL is fetched (anything but a 200 is an error), anything else is a
// file path.
func readSource(src string) ([]byte, error) {
	switch {
	case src == "-":
		return io.ReadAll(os.Stdin)
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		return bundle.HTTPFetch(context.Background(), &http.Client{Timeout: 10 * time.Second}, src)
	default:
		return os.ReadFile(src)
	}
}

// baseURL normalizes one replica address: surrounding space and a
// trailing slash dropped, http:// assumed where no scheme is given.
// Blank stays blank.
func baseURL(raw string) string {
	u := strings.TrimRight(strings.TrimSpace(raw), "/")
	if u != "" && !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// parseReplicas parses a replica list into fleet members named r0..rN
// in list order. Blank entries are skipped without leaving a gap in the
// names; a list with no entry at all is an error.
func parseReplicas(list string) ([]fleet.Member, error) {
	var members []fleet.Member
	for _, raw := range strings.Split(list, ",") {
		if u := baseURL(raw); u != "" {
			members = append(members, fleet.Member{Name: fmt.Sprintf("r%d", len(members)), BaseURL: u})
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("no replica URLs in %q", list)
	}
	return members, nil
}

// loadModel reads a model file and computes the hash replicas and audit
// records are matched against.
func loadModel(path string) (*core.Model, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	model, err := core.Load(f)
	if err != nil {
		return nil, "", fmt.Errorf("load model: %w", err)
	}
	hash, err := model.Hash()
	if err != nil {
		return nil, "", err
	}
	return model, hash, nil
}

// loadSpec reads an SLO spec file; no path means the built-in spec.
func loadSpec(path string) (*slo.Spec, error) {
	if path == "" {
		return slo.DefaultSpec(), nil
	}
	return slo.LoadSpec(path)
}

func runPush(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl push", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "model.json", "model file to distribute")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs")
	timeout := fs.Duration("timeout", 30*time.Second, "per-replica push deadline")
	asJSON := fs.Bool("json", false, "emit per-replica results as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	model, hash, err := loadModel(*modelPath)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	members, err := parseReplicas(*replicas)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	logger := obs.NewLogger(stderr, false).With("app", "polygraphctl")
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1, ExpectHash: hash, Logger: logger}, members...)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	ctrl := &fleet.Controller{PushTimeout: *timeout, Logger: logger}
	results, derr := ctrl.Distribute(context.Background(), b, model)
	printResults(stdout, results, *asJSON)
	exit := 0
	for _, r := range results {
		if !r.Admitted {
			exit = 1
		}
	}
	if derr != nil {
		fmt.Fprintf(stderr, "polygraphctl: %v\n", derr)
		return 1
	}
	return exit
}

func runStatus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	replicas := fs.String("replicas", "", "comma-separated replica base URLs")
	timeout := fs.Duration("timeout", 5*time.Second, "per-replica probe deadline")
	asJSON := fs.Bool("json", false, "emit per-replica status as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	members, err := parseReplicas(*replicas)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1, ProbeTimeout: *timeout}, members...)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	// One probe pass over Pending members: reuse the controller's Verify
	// admission against the first live hash so agreement is checked the
	// same way a fleet harness checks it.
	ctx := context.Background()
	var firstHash string
	type row struct {
		Name    string `json:"name"`
		BaseURL string `json:"base_url"`
		Live    bool   `json:"live"`
		Hash    string `json:"hash,omitempty"`
		// UptimeS and ModelAgeS come from the replica's own exposition:
		// uptime from polygraph_uptime_seconds, model age as
		// (process start + uptime) - model trained timestamp, so both
		// are free of local clock skew.
		UptimeS   float64 `json:"uptime_s,omitempty"`
		ModelAgeS float64 `json:"model_age_s,omitempty"`
		Error     string  `json:"error,omitempty"`
	}
	rows := make([]row, 0, len(members))
	agree := true
	for _, m := range members {
		r := row{Name: m.Name, BaseURL: m.BaseURL}
		info, err := fleet.FetchModelInfo(ctx, b.Client(), m.BaseURL)
		if err != nil {
			r.Error = err.Error()
			agree = false
		} else {
			r.Live = true
			r.Hash = info.Hash
			if firstHash == "" {
				firstHash = info.Hash
			} else if info.Hash != firstHash {
				agree = false
			}
			if text, err := m.FetchMetrics(ctx, b.Client()); err == nil {
				ex := obs.ParseExpositionString(text)
				up, _ := ex.Value(obs.FamUptime.Name)
				start, _ := ex.Value(obs.FamProcessStart.Name)
				trained, _ := ex.Value(obs.FamModelTrainedAt.Name)
				r.UptimeS = up
				if trained > 0 && start > 0 {
					r.ModelAgeS = start + up - trained
				}
			}
		}
		rows = append(rows, r)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rows)
	} else {
		for _, r := range rows {
			if r.Live {
				fmt.Fprintf(stdout, "%-4s %-28s live  up=%s model-age=%s hash=%s\n",
					r.Name, r.BaseURL, roundSeconds(r.UptimeS), roundSeconds(r.ModelAgeS), r.Hash)
			} else {
				fmt.Fprintf(stdout, "%-4s %-28s DOWN  %s\n", r.Name, r.BaseURL, r.Error)
			}
		}
	}
	if !agree {
		fmt.Fprintln(stderr, "polygraphctl: fleet does not agree on one model hash")
		return 1
	}
	fmt.Fprintf(stdout, "fleet agrees on hash %s (%d replicas)\n", firstHash, len(rows))
	return 0
}

// roundSeconds renders a seconds value as a whole-second duration; a
// replica that did not report the metric shows "-".
func roundSeconds(s float64) string {
	if s <= 0 {
		return "-"
	}
	return (time.Duration(s * float64(time.Second))).Round(time.Second).String()
}

func printResults(w io.Writer, results []fleet.PushResult, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(results)
		return
	}
	for _, r := range results {
		if r.Admitted {
			fmt.Fprintf(w, "%-4s %-28s admitted hash=%s\n", r.Name, r.BaseURL, r.Hash)
		} else {
			fmt.Fprintf(w, "%-4s %-28s REFUSED  %s\n", r.Name, r.BaseURL, r.Error)
		}
	}
}
