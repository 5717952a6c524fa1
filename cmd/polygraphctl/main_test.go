package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/bundle"
	"polygraph/internal/serving"
)

func TestTrainPushStatusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")

	var out, errOut bytes.Buffer
	if code := run([]string{"train", "-out", modelPath, "-sessions", "8000"}, &out, &errOut); code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut.String())
	}
	trainLine := out.String()
	if !strings.Contains(trainLine, "hash=") {
		t.Fatalf("train output missing hash: %q", trainLine)
	}
	wantHash := strings.TrimSpace(trainLine[strings.Index(trainLine, "hash=")+len("hash="):])

	// Two warming in-process replicas — no model until the push.
	var urls []string
	for i := 0; i < 2; i++ {
		r, err := serving.New(context.Background(), serving.Config{
			Name: fmt.Sprintf("ctl-%d", i), Addr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		urls = append(urls, r.BaseURL())
	}
	replicas := strings.Join(urls, ",")

	// Status before push: replicas are warming (404 on admin GET) → exit 1.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"status", "-replicas", replicas}, &out, &errOut); code != 1 {
		t.Fatalf("status on warming fleet exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"push", "-model", modelPath, "-replicas", replicas}, &out, &errOut); code != 0 {
		t.Fatalf("push exit %d: %s%s", code, out.String(), errOut.String())
	}
	if got := strings.Count(out.String(), "admitted hash="+wantHash); got != 2 {
		t.Fatalf("want 2 admissions with hash %s, got %d:\n%s", wantHash, got, out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"status", "-replicas", replicas}, &out, &errOut); code != 0 {
		t.Fatalf("status exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "fleet agrees on hash "+wantHash) {
		t.Fatalf("status output:\n%s", out.String())
	}
	// The status rows surface runtime self-telemetry parsed from each
	// replica's exposition: uptime and the deployed model's age.
	if !strings.Contains(out.String(), "up=") || !strings.Contains(out.String(), "model-age=") {
		t.Fatalf("status output missing uptime/model-age columns:\n%s", out.String())
	}
}

func TestPushRefusedAgainstDeadReplica(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"train", "-out", modelPath, "-sessions", "8000"}, &out, &errOut); code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	// Unroutable replica: distribution admits zero and fails.
	if code := run([]string{"push", "-model", modelPath, "-timeout", "2s",
		"-replicas", "http://127.0.0.1:1"}, &out, &errOut); code != 1 {
		t.Fatalf("push to dead replica exit %d, want 1", code)
	}
}

func TestUsageAndVersion(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"version"}, &out, &errOut); code != 0 {
		t.Fatal("version failed")
	}
	if !strings.Contains(out.String(), "polygraphctl go") {
		t.Fatalf("version output %q", out.String())
	}
}

// damagedLedger writes a two-segment audit ledger and flips a byte in
// the sealed one — damage no crash explains.
func damagedLedger(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	led, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := led.Append(audit.Record{UserAgent: "x"}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := led.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := audit.Segments(dir, "")
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSubcommandConventions drives every subcommand for what they all
// share, so the next one cannot bring a convention of its own: nothing
// to do, a request for help and an unknown name (repeated in the
// message) are usage errors, exit 2; version exists at the top level
// only; a check that ran and failed exits 1.
func TestSubcommandConventions(t *testing.T) {
	leaves := [][]string{
		{"train"}, {"push"}, {"status"}, {"lint"}, {"slo"},
		{"bundle", "capture"}, {"bundle", "analyze"},
		{"audit", "verify"}, {"audit", "ls"}, {"audit", "replay"},
	}
	usage := [][]string{{}, {"-h"}, {"bundle"}, {"bundle", "-h"}, {"audit"}, {"audit", "-h"}}
	for _, leaf := range leaves {
		for _, flag := range []string{"-h", "-version"} {
			usage = append(usage, append(append([]string{}, leaf...), flag))
		}
		if leaf[0] != "train" { // bare train trains with its defaults
			usage = append(usage, leaf)
		}
	}
	usage = append(usage, []string{"bundle", "version"}, []string{"audit", "version"})
	for _, args := range usage {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) explained nothing on stderr", args)
		}
	}

	for _, args := range [][]string{{"bogus"}, {"bundle", "bogus"}, {"audit", "bogus"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), `unknown subcommand "bogus"`) {
			t.Errorf("run(%q) does not name the unknown subcommand: %q", args, errOut.String())
		}
	}

	failing := [][]string{
		{"lint", writeFile(t, "m.txt", "orphan_sample 1\n")},
		{"slo", writeFile(t, "m.txt", breachedExpo)},
		{"bundle", "analyze", writeFaultyBundle(t)},
		{"audit", "verify", damagedLedger(t)},
		{"audit", "ls", damagedLedger(t)},
		{"status", "-timeout", "2s", "-replicas", "http://127.0.0.1:1"},
	}
	for _, args := range failing {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 1 {
			t.Errorf("run(%q) = %d, want 1\nstdout: %s\nstderr: %s", args, code, out.String(), errOut.String())
		}
	}
}

// TestReplicaListParsing pins the one parser behind status/push
// -replicas and bundle capture -fleet: a bare host:port gets http://,
// blank entries leave no gap in the r<i> names, and a list with nothing
// in it is a usage error — for both subcommands alike.
func TestReplicaListParsing(t *testing.T) {
	a, b := healthyServer(t), healthyServer(t)
	bare := func(url string) string { return strings.TrimPrefix(url, "http://") }
	for _, tc := range []struct {
		name, list string
		want       []string // member names, every one of them reachable
	}{
		{"urls", a + "," + b, []string{"r0", "r1"}},
		{"bare host:port", bare(a) + "," + bare(b), []string{"r0", "r1"}},
		{"blank entry and spaces", a + "/,, " + bare(b) + " ,", []string{"r0", "r1"}},
		{"one", bare(a), []string{"r0"}},
		{"empty", "", nil},
		{"only separators", " , ,", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantCode := 0
			if tc.want == nil {
				wantCode = 2
			}
			var out, errOut bytes.Buffer
			if code := run([]string{"status", "-replicas", tc.list}, &out, &errOut); code != wantCode {
				t.Fatalf("status = %d, want %d\n%s%s", code, wantCode, out.String(), errOut.String())
			}
			for _, name := range tc.want {
				if !strings.Contains(out.String(), fmt.Sprintf("%-4s http://127.0.0.1:", name)) || strings.Contains(out.String(), "DOWN") {
					t.Fatalf("status rows, want %v live:\n%s", tc.want, out.String())
				}
			}

			path := filepath.Join(t.TempDir(), "fleet.tgz")
			out.Reset()
			errOut.Reset()
			// -fleet "" alone is the "neither -addr nor -fleet" usage error.
			if code := run([]string{"bundle", "capture", "-o", path, "-skip-pprof", "-fleet", tc.list}, &out, &errOut); code != wantCode {
				t.Fatalf("bundle capture = %d, want %d\n%s%s", code, wantCode, out.String(), errOut.String())
			}
			if tc.want == nil {
				return
			}
			got, err := bundle.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, tm := range got.Manifest.Targets {
				names = append(names, tm.Name)
				if len(tm.Errors) != 0 {
					t.Errorf("target %s (%s) collector errors: %+v", tm.Name, tm.BaseURL, tm.Errors)
				}
			}
			if !reflect.DeepEqual(names, tc.want) {
				t.Fatalf("bundle targets %v, want %v", names, tc.want)
			}
		})
	}
}
