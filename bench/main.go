// Command bench is the serving benchmark: four closed-loop workloads on
// paper-distributed traffic, six bounded end-to-end metrics and a
// traced per-layer budget from socket to verdict. BENCHMARK.json at the
// root of the repository declares it; bench/README.md explains it.
//
// It is a module of its own (bench/go.mod replaces polygraph with the
// enclosing checkout); bench/run.sh builds it and runs it from the root:
//
//	bash bench/run.sh --workload login-http --seed 1 --seconds 10 --trace 0   one run, one result line
//	bash bench/run.sh -seed 1 [-runs K]                                       the whole suite, one process per workload
//	bash bench/run.sh compare A.json B.json                                   two result files against the declared bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// wallClockCap fails a hung run instead of letting it stall the caller.
const wallClockCap = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print one result line (empty = the whole suite)")
		seed         = flag.Uint64("seed", 1, "workload seed: the live stream is drawn with seed 1000+seed")
		seconds      = flag.Float64("seconds", 10, "length of the measured closed-loop phase")
		trace        = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced replay and per-layer metrics, 2 = both (what the suite uses)")
		runs         = flag.Int("runs", 1, "suite only: repeat the whole suite and report per-run values and medians")
		quick        = flag.Bool("quick", false, "shrunken configuration (8 000 training sessions, 0.3 s phases); checks plumbing, measures nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 2 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *workloadName == "" {
		os.Exit(suiteMain(*seed, *seconds, *runs, *quick))
	}
	wl, ok := workloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	os.Exit(runMain(wl, *seed, *seconds, *trace, *quick))
}

// runMain runs one workload in this process. Everything before the last
// line of standard output is for people; the last line is the result.
func runMain(wl workload, seed uint64, seconds float64, trace int, quick bool) int {
	cfg := defaultConfig(wl, seed, seconds)
	if quick {
		cfg = cfg.quick()
	}
	cfg.replay = trace > 0
	cfg.info = os.Stdout

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	cfg.tmpDir = tmp
	watchdog := time.AfterFunc(wallClockCap, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: still running after %v, giving up\n", wl.name, wallClockCap)
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()

	env, _ := json.Marshal(environment(cfg))
	fmt.Printf("env %s\n", env)
	out, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	out.Metrics = map[string]metric{}
	if trace != 1 {
		maps.Copy(out.Metrics, out.endToEnd)
	}
	if trace != 0 {
		maps.Copy(out.Metrics, out.perLayer)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	return 0
}

// environment is the env block printed with every run.
func environment(cfg runConfig) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
		"workload":   cfg.workload.name,
		"seed":       cfg.seed,
		"clients":    cfg.clients,
		"closed_s":   cfg.closed.Seconds(),
		"network":    "loopback only; clients and program share one process, so client CPU is inside cpu_us_per_op",
	}
}

// suiteResult is what the suite writes and compare reads.
type suiteResult struct {
	Seed    uint64                        `json:"seed"`
	Seconds float64                       `json:"seconds"`
	Runs    []map[string]*outcome         `json:"runs"` // per run: workload -> outcome
	Medians map[string]map[string]float64 `json:"medians"`
}

// suiteMain runs every workload, each in a process of its own so that
// memory and set-up never leak from one workload into the next.
func suiteMain(seed uint64, seconds float64, runs int, quick bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	res := suiteResult{Seed: seed, Seconds: seconds, Medians: map[string]map[string]float64{}}
	code := 0
	for run := 0; run < runs; run++ {
		outcomes := map[string]*outcome{}
		for _, wl := range workloads {
			fmt.Printf("== run %d/%d: %s\n", run+1, runs, wl.name)
			out, err := runChild(self, wl.name, seed, seconds, quick)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
				return 1
			}
			outcomes[wl.name] = out
			if !out.Correct {
				code = 1
			}
		}
		res.Runs = append(res.Runs, outcomes)
	}
	for _, wl := range workloads {
		res.Medians[wl.name] = map[string]float64{}
		for name := range res.Runs[0][wl.name].Metrics {
			res.Medians[wl.name][name] = median(res.values(wl.name, name))
		}
	}
	printSuite(&res)
	path := filepath.Join("bench", "out", fmt.Sprintf("results-seed%d.json", seed))
	data, err := json.MarshalIndent(&res, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s; traces in %s\n", path, filepath.Join("bench", "out"))
	return code
}

// values returns one metric's value in every run.
func (r *suiteResult) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if o := run[workload]; o != nil {
			if m, ok := o.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
