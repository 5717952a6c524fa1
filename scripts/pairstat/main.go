// Command pairstat reads the result lines scripts/pair.sh collects and
// judges them. It is the paired protocol the repository's performance
// claims are made with, as a program:
//
//	go run ./scripts/pairstat DIR
//
// DIR holds base-<i>.json and head-<i>.json, the last stdout line of
// `bench/run.sh --workload W` for pair i on each side. For every metric
// both sides report, one row: both medians, the paired median change
// (head against base, per pair, as a share of base), wins n/N (pairs in
// which head is better, in the direction BENCHMARK.json declares), both
// IQRs, and the verdict. A metric is resolved when the gap between the
// medians exceeds the base side's IQR and one side wins at least nine
// pairs in ten; otherwise it is unresolved.
//
//	go run ./scripts/pairstat -trajectory OUT.json [-commit C] DIR
//
// reads <workload>-seed<S>.json files instead and writes, per workload
// and metric, the median and quartiles over the seeds, with the date, the
// go version, the CPU count and the CPU model of the machine it runs on.
//
// Run it from the repository root: it reads BENCHMARK.json there.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// specPath is the benchmark declaration, relative to the repository root.
const specPath = "BENCHMARK.json"

// result is the part of bench's result line pairstat reads.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// spec is the part of BENCHMARK.json pairstat reads: which direction is
// better for each metric.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// higherBetter maps every declared metric to whether more is better.
func (s *spec) higherBetter() map[string]bool {
	out := map[string]bool{}
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		out[m.Name] = m.Better == "higher"
	}
	return out
}

func main() {
	trajectory := flag.String("trajectory", "", "write a trajectory point to this file from DIR's <workload>-seed<S>.json files")
	commit := flag.String("commit", "", "trajectory: the commit the runs measured")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pairstat [-trajectory OUT.json [-commit C]] DIR")
		os.Exit(2)
	}
	dir := flag.Arg(0)
	if *trajectory != "" {
		if err := writeTrajectory(*trajectory, dir, hostEnvironment(*commit)); err != nil {
			fmt.Fprintf(os.Stderr, "pairstat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var s spec
	if err := readJSON(specPath, &s); err != nil {
		fmt.Fprintf(os.Stderr, "pairstat: %v\n", err)
		os.Exit(2)
	}
	base, head, err := readPairs(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pairstat: %v\n", err)
		os.Exit(1)
	}
	rows := judge(base, head, s.higherBetter())
	printTable(os.Stdout, len(base), rows)
	for i := range base {
		if !base[i].Correct || !head[i].Correct {
			fmt.Fprintf(os.Stderr, "pairstat: pair %d: a run failed its correctness check\n", i+1)
			os.Exit(1)
		}
	}
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readPairs reads base-<i>.json and head-<i>.json for i = 1, 2, … until
// the first pair that is missing.
func readPairs(dir string) (base, head []result, err error) {
	for i := 1; ; i++ {
		var b, h result
		bp, hp := filepath.Join(dir, fmt.Sprintf("base-%d.json", i)), filepath.Join(dir, fmt.Sprintf("head-%d.json", i))
		if _, err := os.Stat(bp); os.IsNotExist(err) {
			break
		}
		if err := readJSON(bp, &b); err != nil {
			return nil, nil, err
		}
		if err := readJSON(hp, &h); err != nil {
			return nil, nil, err
		}
		base, head = append(base, b), append(head, h)
	}
	if len(base) == 0 {
		return nil, nil, fmt.Errorf("%s: no base-1.json", dir)
	}
	return base, head, nil
}

// row is one metric's paired judgement.
type row struct {
	name                 string
	baseMedian, headMed  float64
	change               float64 // paired median of (head − base) / base
	wins, pairs          int     // pairs in which head is better
	baseIQR, headIQR     float64
	resolved, headBetter bool
}

// judge builds one row per metric present in every run of both sides.
func judge(base, head []result, higherBetter map[string]bool) []row {
	var names []string
	for name := range base[0].Metrics {
		if everywhere(name, base) && everywhere(name, head) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rows := make([]row, 0, len(names))
	for _, name := range names {
		b, h := values(name, base), values(name, head)
		r := row{name: name, baseMedian: median(b), headMed: median(h), pairs: len(b)}
		changes := make([]float64, len(b))
		for i := range b {
			changes[i] = relative(h[i]-b[i], b[i])
			if better(h[i], b[i], higherBetter[name]) {
				r.wins++
			}
		}
		r.change = median(changes)
		r.baseIQR, r.headIQR = iqr(b), iqr(h)
		r.headBetter = better(r.headMed, r.baseMedian, higherBetter[name])
		won := r.wins
		if !r.headBetter {
			won = r.pairs - r.wins - ties(b, h)
		}
		r.resolved = math.Abs(r.headMed-r.baseMedian) > r.baseIQR && 10*won >= 9*r.pairs
		rows = append(rows, r)
	}
	return rows
}

func everywhere(name string, runs []result) bool {
	for _, r := range runs {
		if _, ok := r.Metrics[name]; !ok {
			return false
		}
	}
	return true
}

func values(name string, runs []result) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func better(x, than float64, higher bool) bool {
	if higher {
		return x > than
	}
	return x < than
}

func ties(a, b []float64) int {
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}

func relative(d, of float64) float64 {
	if of == 0 {
		return 0
	}
	return d / math.Abs(of)
}

func printTable(w io.Writer, pairs int, rows []row) {
	fmt.Fprintf(w, "%d pairs; change = paired median of (head − base) / base; wins = pairs in which head is better\n", pairs)
	fmt.Fprintf(w, "%-34s %14s %14s %8s %6s %12s %12s  %s\n", "metric", "base median", "head median", "change", "wins", "base IQR", "head IQR", "verdict")
	for _, r := range rows {
		verdict := "unresolved"
		if r.resolved {
			verdict = "resolved, head worse"
			if r.headBetter {
				verdict = "resolved, head better"
			}
		}
		fmt.Fprintf(w, "%-34s %14s %14s %+7.1f%% %6s %12s %12s  %s\n", r.name, num(r.baseMedian), num(r.headMed),
			100*r.change, fmt.Sprintf("%d/%d", r.wins, r.pairs), num(r.baseIQR), num(r.headIQR), verdict)
	}
}

// num prints a value with four significant digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are those of Python's statistics.quantiles(values, n=4)
// (the exclusive method), as bench/ computes them.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func iqr(values []float64) float64 {
	q1, q3 := quartiles(values)
	return q3 - q1
}

// environment is what a trajectory point records about its runs.
type environment struct {
	Date   string `json:"date"`
	Commit string `json:"commit"`
	Go     string `json:"go"`
	Nproc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
}

// point is one metric's distribution over the seeds.
type point struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

type trajectoryPoint struct {
	environment
	Seeds     []int                       `json:"seeds"`
	Workloads map[string]map[string]point `json:"workloads"`
}

var seedFile = regexp.MustCompile(`^(.+)-seed(\d+)\.json$`)

// writeTrajectory summarises DIR's <workload>-seed<S>.json files.
func writeTrajectory(out, dir string, env environment) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	tp := trajectoryPoint{environment: env, Workloads: map[string]map[string]point{}}
	runs := map[string][]result{}
	seeds := map[int]bool{}
	for _, e := range entries {
		m := seedFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		var r result
		if err := readJSON(filepath.Join(dir, e.Name()), &r); err != nil {
			return err
		}
		if !r.Correct {
			return fmt.Errorf("%s: the run failed its correctness check", e.Name())
		}
		runs[m[1]] = append(runs[m[1]], r)
		seed, _ := strconv.Atoi(m[2])
		seeds[seed] = true
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s: no <workload>-seed<S>.json files", dir)
	}
	for seed := range seeds {
		tp.Seeds = append(tp.Seeds, seed)
	}
	sort.Ints(tp.Seeds)
	for wl, rs := range runs {
		metrics := map[string]point{}
		for name, m := range rs[0].Metrics {
			if !everywhere(name, rs) {
				continue
			}
			v := values(name, rs)
			q1, q3 := quartiles(v)
			metrics[name] = point{Median: median(v), Q1: q1, Q3: q3, Unit: m.Unit}
		}
		tp.Workloads[wl] = metrics
	}
	data, err := json.MarshalIndent(&tp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// hostEnvironment is the environment of this machine, today. Under `go
// run` the go version is the toolchain's that built the runs too.
func hostEnvironment(commit string) environment {
	return environment{Date: time.Now().Format(time.DateOnly), Commit: commit, Go: runtime.Version(),
		Nproc: runtime.NumCPU(), CPU: cpuModel("/proc/cpuinfo")}
}

// cpuModel is the first "model name" of a cpuinfo file, or "" if there
// is none.
func cpuModel(cpuinfo string) string {
	f, err := os.Open(cpuinfo)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}
