package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"polygraph/internal/fingerprint"
)

// Client submits fingerprint payloads to a collection server and returns
// scoring decisions — the role the browser-side script plays in
// production, and what load generators use in the benchmarks.
//
// Every failure is returned as a *ClientError so fleet balancers can
// distinguish an unreachable replica (IsDown → eject) from a live
// replica that answered badly (Kind FailBadFrame → keep in rotation).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 2-second timeout (the
	// paper's end-to-end budget is 100 ms; the slack covers test
	// environments).
	HTTPClient *http.Client
}

// NewClient builds a client with the default timeout.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 2 * time.Second},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Submit posts the payload in the compact binary format and decodes the
// decision.
func (c *Client) Submit(ctx context.Context, payload *fingerprint.Payload) (*Decision, error) {
	body, err := payload.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("collect: encode payload: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/collect", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("collect: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, classify("submit", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &ClientError{Kind: FailStatus, Op: "submit", Status: resp.StatusCode,
			Err: fmt.Errorf("server returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
	}
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, &ClientError{Kind: FailBadFrame, Op: "submit", Err: fmt.Errorf("decode decision: %w", err)}
	}
	return &d, nil
}

// Health probes the server's /healthz endpoint — the liveness check a
// fleet balancer runs before (re)admitting a replica to rotation.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return classify("health", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64))
	if resp.StatusCode != http.StatusOK {
		return &ClientError{Kind: FailStatus, Op: "health", Status: resp.StatusCode,
			Err: fmt.Errorf("healthz returned %d", resp.StatusCode)}
	}
	return nil
}

// FetchScript downloads the collection script the server serves.
func (c *Client) FetchScript(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/script.js", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", classify("fetch script", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &ClientError{Kind: FailStatus, Op: "fetch script", Status: resp.StatusCode,
			Err: fmt.Errorf("script endpoint returned %d", resp.StatusCode)}
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", classify("fetch script", err)
	}
	return string(b), nil
}
