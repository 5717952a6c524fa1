package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"polygraph/internal/core"
	"polygraph/internal/obs"
)

// Controller is the fleet's control plane: it owns model distribution.
// The fleet trains once and distributes, rather than letting each
// replica train itself — identical inputs would in principle produce
// identical models, but "in principle" is not an audit guarantee;
// hash-verified distribution is. Every replica must read back the same
// core.Model.Hash before it serves traffic, which makes cross-replica
// verdicts comparable and the merged audit ledger coherent.
type Controller struct {
	// Client is the HTTP client for admin calls (nil builds one with
	// PushTimeout).
	Client *http.Client
	// PushTimeout bounds each per-replica push+verify (default 30s; a
	// model upload is tens of kilobytes, but CI boxes are slow).
	PushTimeout time.Duration
	// Logger receives distribution events; nil discards.
	Logger *slog.Logger
}

// PushResult records one replica's distribution outcome.
type PushResult struct {
	Name     string `json:"name"`
	BaseURL  string `json:"base_url"`
	Hash     string `json:"hash,omitempty"` // hash the replica reported back
	Admitted bool   `json:"admitted"`
	Error    string `json:"error,omitempty"`
}

func (c *Controller) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: c.pushTimeout()}
}

func (c *Controller) pushTimeout() time.Duration {
	if c.PushTimeout > 0 {
		return c.PushTimeout
	}
	return 30 * time.Second
}

func (c *Controller) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.NewLogger(nil, false)
}

// Distribute serializes m once, pushes it to every registered replica's
// admin endpoint, reads the deployment back, and admits exactly the
// replicas whose reported hash matches the local hash. Mismatching or
// unreachable replicas are refused/left out of rotation and reported in
// their PushResult. It returns an error when no replica was admitted —
// a fleet serving zero replicas is an outage, while a partial admission
// is degraded capacity the balancer can work with.
func (c *Controller) Distribute(ctx context.Context, b *Balancer, m *core.Model) ([]PushResult, error) {
	wantHash, err := m.Hash()
	if err != nil {
		return nil, fmt.Errorf("fleet: hash model: %w", err)
	}
	if expect := b.ExpectedHash(); expect != "" && expect != wantHash {
		return nil, fmt.Errorf("fleet: balancer is pinned to hash %s, refusing to distribute %s", expect, wantHash)
	}
	var blob bytes.Buffer
	if err := m.Save(&blob); err != nil {
		return nil, fmt.Errorf("fleet: serialize model: %w", err)
	}
	logger := c.logger()
	logger.Info("fleet: distributing model", "model_hash", wantHash,
		"bytes", blob.Len(), "replicas", len(b.Members()))

	results := make([]PushResult, 0, len(b.Members()))
	admitted := 0
	for _, mem := range b.Members() {
		res := c.pushOne(ctx, mem, blob.Bytes(), wantHash)
		if res.Admitted {
			if err := b.Admit(mem.Name, res.Hash); err != nil {
				res.Admitted = false
				res.Error = err.Error()
			} else {
				admitted++
			}
		} else {
			if res.Hash != "" && res.Hash != wantHash {
				b.Refuse(mem.Name, res.Hash)
			}
			logger.Warn("fleet: replica not admitted",
				"replica", mem.Name, "error", res.Error)
		}
		results = append(results, res)
	}
	if admitted == 0 {
		return results, errors.New("fleet: distribution admitted zero replicas")
	}
	logger.Info("fleet: distribution complete", "admitted", admitted, "total", len(results))
	return results, nil
}

// pushOne uploads the serialized model to one replica and verifies the
// deployment by reading the admin view back. Both the swap response and
// the follow-up GET must report wantHash: the POST response proves the
// upload deserialized to the right bytes, the GET proves the swap
// actually landed in the serving path.
func (c *Controller) pushOne(ctx context.Context, mem Member, blob []byte, wantHash string) PushResult {
	res := PushResult{Name: mem.Name, BaseURL: mem.BaseURL}
	ctx, cancel := context.WithTimeout(ctx, c.pushTimeout())
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, mem.BaseURL+AdminModelPath, bytes.NewReader(blob))
	if err != nil {
		res.Error = err.Error()
		return res
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client().Do(req)
	if err != nil {
		res.Error = fmt.Sprintf("push: %v", err)
		return res
	}
	func() {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			err = fmt.Errorf("push: replica returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
			return
		}
		var info ModelInfo
		if derr := json.NewDecoder(resp.Body).Decode(&info); derr != nil {
			err = fmt.Errorf("push: decode response: %w", derr)
			return
		}
		res.Hash = info.Hash
	}()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if res.Hash != wantHash {
		res.Error = fmt.Sprintf("push: replica deployed hash %s, want %s", res.Hash, wantHash)
		return res
	}

	// Independent read-back through the serving path.
	info, err := FetchModelInfo(ctx, c.client(), mem.BaseURL)
	if err != nil {
		res.Error = fmt.Sprintf("verify: %v", err)
		return res
	}
	if info.Hash != wantHash {
		res.Hash = info.Hash
		res.Error = fmt.Sprintf("verify: replica serves hash %s, want %s", info.Hash, wantHash)
		return res
	}
	res.Admitted = true
	return res
}
