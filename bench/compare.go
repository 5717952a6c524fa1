package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// declaration is the part of BENCHMARK.json compare needs.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// compareMain sets result file B against result file A: per workload and
// end-to-end metric both medians and quartiles, how much worse B is, and
// the declared bound. It exits 1 when anything regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	spec := fs.String("spec", "BENCHMARK.json", "the benchmark declaration holding the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	var (
		decl declaration
		a, b suiteResult
	)
	for _, f := range []struct {
		path string
		into any
	}{{*spec, &decl}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := loadJSON(f.path, f.into); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", f.path, err)
			return 2
		}
	}
	regressed := false
	fmt.Printf("%-18s %-18s %14s %14s %8s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range decl.Workloads {
		for _, run := range b.Runs {
			if o := run[wl.Name]; o == nil || !o.Correct {
				fmt.Printf("%-18s a run of B is missing or failed its correctness check\n", wl.Name)
				regressed = true
			}
		}
		for _, m := range decl.EndToEnd {
			c := compareMetric(a.values(wl.Name, m.Name), b.values(wl.Name, m.Name), m.Better == "lower", m.Bound)
			fmt.Printf("%-18s %-18s %14.4f %14.4f %+7.1f%% %6.1f%% %5.0f%%  %s\n", wl.Name, m.Name,
				c.medianA, c.medianB, 100*c.worse, 100*c.spread, 100*m.Bound, c.verdict)
			fmt.Printf("%-37s quartiles A [%.4f, %.4f]  B [%.4f, %.4f]\n", "", c.q1A, c.q3A, c.q1B, c.q3B)
			regressed = regressed || c.verdict == "regressed"
		}
	}
	if regressed {
		return 1
	}
	return 0
}

type comparison struct {
	medianA, medianB   float64
	q1A, q3A, q1B, q3B float64
	worse              float64 // share of A's median by which B is worse (negative = better)
	spread             float64 // wider inter-quartile spread of the two, as a share of the median
	verdict            string
}

// compareMetric applies the rule of the choosing-metrics guide: a
// spread wider than the bound leaves the metric unresolved, unless
// every run of B reads better than every run of A.
func compareMetric(a, b []float64, lowerIsBetter bool, bound float64) comparison {
	c := comparison{medianA: median(a), medianB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	c.worse = ratio(c.medianB-c.medianA, c.medianA)
	if !lowerIsBetter {
		c.worse = -c.worse
	}
	c.spread = max(ratio(c.q3A-c.q1A, c.medianA), ratio(c.q3B-c.q1B, c.medianB))
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if lowerIsBetter && y >= x || !lowerIsBetter && y <= x {
				allBetter = false
			}
		}
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		c.verdict = "missing"
	case c.spread > bound && !allBetter:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "ok"
	}
	return c
}
