package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) map[string]bool {
	t.Helper()
	var s spec
	if err := readJSON("../../BENCHMARK.json", &s); err != nil {
		t.Fatal(err)
	}
	return s.higherBetter()
}

// TestJudgeFixturePairs reads ten committed pairs: rps clearly better on
// the head side, p50_us a coin toss, setup_s clearly worse, the disk
// figure identical, and a per-layer metric one run alone reports.
func TestJudgeFixturePairs(t *testing.T) {
	base, head, err := readPairs("testdata/pairs")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 10 || len(head) != 10 {
		t.Fatalf("read %d/%d runs, want 10 pairs", len(base), len(head))
	}
	rows := map[string]row{}
	for _, r := range judge(base, head, loadSpec(t)) {
		rows[r.name] = r
	}
	if _, ok := rows["core.train_ms"]; ok || len(rows) != 4 {
		t.Fatalf("rows %v: want one per metric every run reports", rows)
	}
	for _, want := range []struct {
		name                 string
		wins                 int
		baseMedian, baseIQR  float64
		resolved, headBetter bool
	}{
		{"rps", 10, 100.5, 4.5, true, true},
		{"p50_us", 6, 50, 4, false, true},
		{"setup_s", 1, 0.30, 0.0125, true, false},
		{"disk_bytes_per_op", 0, 10.8, 0, false, false},
	} {
		r := rows[want.name]
		if r.wins != want.wins || r.pairs != 10 || !near(r.baseMedian, want.baseMedian) || !near(r.baseIQR, want.baseIQR) ||
			r.resolved != want.resolved || r.headBetter != want.headBetter {
			t.Errorf("%s: %+v, want %+v", want.name, r, want)
		}
	}
	if r := rows["rps"]; !near(r.change, 0.2052) {
		t.Errorf("rps paired median change %.4f, want +20.52 %%", r.change)
	}

	var out strings.Builder
	printTable(&out, 10, judge(base, head, loadSpec(t)))
	for _, line := range []string{"rps", "resolved, head better", "setup_s", "resolved, head worse", "10/10", "6/10"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("table lacks %q:\n%s", line, out.String())
		}
	}
}

// TestTrajectoryFixtureSeeds summarises five committed seeds of two
// workloads.
func TestTrajectoryFixtureSeeds(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := writeTrajectory(out, "testdata/seeds", hostEnvironment("abc")); err != nil {
		t.Fatal(err)
	}
	var tp trajectoryPoint
	if err := readJSON(out, &tp); err != nil {
		t.Fatal(err)
	}
	if tp.Commit != "abc" || tp.Go != runtime.Version() || tp.Nproc != runtime.NumCPU() || len(tp.Date) != len("2006-01-02") ||
		!reflect.DeepEqual(tp.Seeds, []int{1, 2, 3, 4, 5}) || len(tp.Workloads) != 2 {
		t.Fatalf("trajectory %+v", tp)
	}
	if got, want := tp.Workloads["login-http"]["rps"], (point{Median: 100, Q1: 92.5, Q3: 107.5, Unit: "1/s"}); got != want {
		t.Fatalf("login-http rps %+v, want %+v", got, want)
	}
	if got := tp.Workloads["attack-audit-http"]["disk_bytes_per_op"]; got.Median != 225 {
		t.Fatalf("attack-audit-http disk %+v", got)
	}
	data, _ := os.ReadFile(out)
	if !json.Valid(data) {
		t.Fatalf("not JSON: %s", data)
	}
}

func TestCPUModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpuinfo")
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\nprocessor\t: 1\nmodel name\t: other\n"
	if err := os.WriteFile(path, []byte(info), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := cpuModel(path); got != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("cpuModel = %q", got)
	}
	if got := cpuModel(filepath.Join(t.TempDir(), "none")); got != "" {
		t.Fatalf("cpuModel of a missing file = %q", got)
	}
}

func near(a, b float64) bool { return a-b < 1e-3 && b-a < 1e-3 }
