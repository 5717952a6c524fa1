package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh process, passes its progress
// lines through and parses its result line.
func runChild(self, workload string, seed uint64, seconds float64, quick bool) (*outcome, error) {
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", "2",
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("  " + l)
	}
	out := &outcome{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return out, nil
}

// printSuite prints every metric of every workload by name with its
// unit: the median over the runs, and the runs themselves when there is
// more than one.
func printSuite(res *suiteResult) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, wl := range workloads {
		last := res.Runs[len(res.Runs)-1][wl.name]
		var attempted, failed int64
		for _, run := range res.Runs {
			attempted += run[wl.name].Attempted
			failed += run[wl.name].Failed
		}
		fmt.Fprintf(w, "\n%s: attempted %d, failed %d, fail_ratio %g\n", wl.name, attempted, failed, ratio(float64(failed), float64(attempted)))
		names := make([]string, 0, len(last.Metrics))
		for name := range last.Metrics {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-32s %16.4f %-7s", name, res.Medians[wl.name][name], last.Metrics[name].Unit)
			if len(res.Runs) > 1 {
				fmt.Fprintf(w, " runs %v", res.values(wl.name, name))
			}
			fmt.Fprintln(w)
		}
	}
}
