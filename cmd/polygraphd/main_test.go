package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"polygraph/internal/fleet"
	"polygraph/internal/obs"
	"polygraph/internal/serving"
)

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

	model, _, _, err := serving.ObtainModel(context.Background(), true, "", 6000, false, obs.NewLogger(nil, false))
	if err != nil {
		t.Fatal(err)
	}
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
