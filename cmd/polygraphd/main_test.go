package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polygraph/internal/browser"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/serving"
	"polygraph/internal/ua"
)

// trainModel trains a small model on the calibrated population.
func trainModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Sessions = 6000
	_, m, _, err := dataset.Train(cfg, core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTCPAddrFlag boots the replica main boots from `-warm -tcp-addr`:
// the framed listener holds the flag-bound port from Start on but
// answers nothing while the replica warms, and scores a frame once the
// fleet has pushed a model.
func TestTCPAddrFlag(t *testing.T) {
	o, err := parseFlags([]string{"-warm", "-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-audit-dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := serving.New(context.Background(), o.replica)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	if replica.TCPAddr() == "" {
		t.Fatal("-tcp-addr bound no framed listener")
	}

	model := trainModel(t)
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	ext := fingerprint.NewExtractor(browser.NewOracle(), model.Features)
	frame := []*fingerprint.Payload{{
		UserAgent: ua.UserAgent(rel, ua.Windows10),
		Values:    fingerprint.VectorToValues(ext.Extract(browser.Profile{Release: rel, OS: ua.Windows10})),
	}}

	early, err := collect.DialTCP(replica.TCPAddr(), time.Second)
	if err != nil {
		t.Fatalf("warming replica does not hold its framed port: %v", err)
	}
	early.ReadTimeout = 200 * time.Millisecond
	if got, err := early.SubmitBatch(frame); err == nil {
		t.Fatalf("warming replica answered a frame: %+v", got)
	}
	early.Close()

	b, err := fleet.NewBalancer(fleet.Config{Seed: 1}, fleet.Member{Name: "polygraphd", BaseURL: replica.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&fleet.Controller{}).Distribute(context.Background(), b, model); err != nil {
		t.Fatal(err)
	}
	tcp, err := collect.DialTCP(replica.TCPAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	got, err := tcp.SubmitBatch(frame)
	if err != nil || len(got) != 1 || got[0].Err || got[0].Flagged {
		t.Fatalf("frame over the -tcp-addr port: %+v, %v", got, err)
	}
}

// TestDebugMuxFollowsWarmReplica boots the -warm shape: the debug
// listener's mux is built while the replica has no collect server, must
// answer 503 on the trace and decision pages until the fleet pushes a
// model, and must serve them afterwards.
func TestDebugMuxFollowsWarmReplica(t *testing.T) {
	replica, err := serving.New(context.Background(), serving.Config{Name: "warm", Addr: "127.0.0.1:0", AuditDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	debug := httptest.NewServer(debugMux(replica))
	defer debug.Close()
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(debug.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/debug/traces", "/debug/decisions"} {
		if got := status(path); got != http.StatusServiceUnavailable {
			t.Fatalf("warming %s returned %d, want 503", path, got)
		}
	}
	if got := status("/debug/vars"); got != http.StatusOK {
		t.Fatalf("/debug/vars returned %d while warming", got)
	}

	model := trainModel(t)
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1}, fleet.Member{Name: "warm", BaseURL: replica.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&fleet.Controller{}).Distribute(context.Background(), b, model); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/traces", "/debug/decisions"} {
		if got := status(path); got != http.StatusOK {
			t.Fatalf("%s returned %d after the push, want 200", path, got)
		}
	}
}

// TestPrintVersionModelLine: -version prints the model file's hash only
// when the replica would load that file, which -warm never does.
func TestPrintVersionModelLine(t *testing.T) {
	model := trainModel(t)
	hash, err := model.Hash()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	modelLine := "model " + path + " " + hash + "\n"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-model", path}, modelLine},
		{[]string{"-model", path, "-warm"}, ""},
	} {
		o, err := parseFlags(append(tc.args, "-version"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		printVersion(&out, o)
		build, rest, _ := strings.Cut(out.String(), "\n")
		if !strings.HasPrefix(build, "polygraphd") || rest != tc.want {
			t.Errorf("%v: printed %q, want the build line then %q", tc.args, out.String(), tc.want)
		}
	}
}
