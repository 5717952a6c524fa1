package collect

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"polygraph/internal/ua"
)

// TestIngestRoutingParity holds ServeHTTP's own match of the ingest
// routes to the mux it goes ahead of: every method × path answers with
// the same status, Allow, Location and body (the clock's elapsed_us
// aside) from Server.ServeHTTP as from the bare mux.
func TestIngestRoutingParity(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, chrome, chrome)
	binary, jsonBody := binaryBodyFor(t, p), jsonBodyFor(t, p)

	methods := []string{http.MethodPost, http.MethodGet, http.MethodHead, http.MethodPut}
	paths := []string{
		"/v1/collect", "/v1/collect-json", "/v1/collect/", "//v1/collect",
		"/v1/%63ollect", "/V1/collect", "/v1/collect?n=1&x=%2F", "/v1/collect-json?x=1",
	}
	type answer struct {
		code                  int
		allow, location, body string
	}
	serve := func(h http.Handler, method, path string) answer {
		body := binary
		if strings.Contains(path, "collect-json") {
			body = jsonBody
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return answer{
			code:     rec.Code,
			allow:    rec.Header().Get("Allow"),
			location: rec.Header().Get("Location"),
			body:     elapsedField.ReplaceAllString(rec.Body.String(), `"elapsed_us":0`),
		}
	}
	scored := 0
	for _, method := range methods {
		for _, path := range paths {
			got, want := serve(srv, method, path), serve(srv.mux, method, path)
			if got != want {
				t.Errorf("%s %s: ServeHTTP answers %+v, the mux %+v", method, path, got, want)
			}
			if got.code == http.StatusOK && method == http.MethodPost {
				scored++
			}
		}
	}
	// Both endpoints, a query string and an escaped spelling are scored.
	if scored != 5 {
		t.Fatalf("%d POSTs scored, want 5", scored)
	}
}
