package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"polygraph/internal/bundle"
)

// TestMemberFetch pins the one way a member's pages are read: a Fetch
// override answers both FetchMetrics and every path of a bundle capture
// without touching BaseURL, and a nil Fetch GETs BaseURL over HTTP.
func TestMemberFetch(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "over http\n") })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	inProcess := func(_ context.Context, path string) ([]byte, error) { return []byte("in process " + path), nil }
	down := func(context.Context, string) ([]byte, error) { return nil, errors.New("down") }

	for _, tc := range []struct {
		name            string
		m               Member
		metrics, health string // "" = the read fails
	}{
		// The closed port would refuse a connection: an override must not make one.
		{"override", Member{Name: "a", BaseURL: "http://127.0.0.1:1", Fetch: inProcess}, "in process /metrics", "in process /healthz"},
		{"override-fails", Member{Name: "b", BaseURL: srv.URL, Fetch: down}, "", ""},
		{"http", Member{Name: "c", BaseURL: srv.URL}, "over http\n", "ok\n"},
		{"http-404", Member{Name: "d", BaseURL: srv.URL + "/missing"}, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			got, err := tc.m.FetchMetrics(ctx, srv.Client())
			if (err != nil) != (tc.metrics == "") || got != tc.metrics {
				t.Fatalf("FetchMetrics = %q, %v; want %q", got, err, tc.metrics)
			}

			var buf bytes.Buffer
			if _, err := bundle.Capture(ctx, &buf, bundle.Options{
				Targets: []bundle.Target{tc.m.BundleTarget()}, Client: srv.Client(), SkipPprof: true,
			}); err != nil {
				t.Fatal(err)
			}
			bb, err := bundle.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for artifact, want := range map[string]string{bundle.ArtifactMetrics: tc.metrics, bundle.ArtifactHealth: tc.health} {
				if got := bb.Files["targets/"+tc.m.Name+"/"+artifact]; string(got) != want {
					t.Errorf("captured %s = %q, want %q", artifact, got, want)
				}
			}
		})
	}
}
