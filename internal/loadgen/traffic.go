package loadgen

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"polygraph/internal/browser"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fraud"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// Endpoint paths the generator exercises.
const (
	EndpointBinary = "/v1/collect"
	EndpointJSON   = "/v1/collect-json"
)

// Request is one pre-encoded wire request. The pool is generated up
// front so that the body sent for global sequence index i is a pure
// function of (scenario, i) — workers never race on the generator.
type Request struct {
	// Path is the ingest endpoint ("/v1/collect" or "/v1/collect-json").
	Path string
	// ContentType matches the endpoint's encoding.
	ContentType string
	// Body is the encoded payload.
	Body []byte
	// Fraud marks sessions synthesized through a fraud tool's Spoof.
	Fraud bool
	// Invalid marks deliberately malformed payloads (expected non-2xx).
	Invalid bool
	// Payload is the decoded form of Body for binary, non-corrupted
	// entries (nil otherwise). TCP mode submits it through
	// TCPClient.SubmitBatch, which re-encodes the identical wire bytes.
	Payload *fingerprint.Payload
}

// Pool is the pre-generated session population a run cycles through.
type Pool struct {
	Requests []Request
	// Dim is the feature width the payloads carry.
	Dim int
}

// At returns the request for global sequence index i (the stream cycles
// through the pool).
func (p *Pool) At(i int64) *Request {
	return &p.Requests[int(i%int64(len(p.Requests)))]
}

// StreamDigest hashes the first n request bodies of the stream (pool
// entries in cycled index order) with FNV-1a 64. Two runs that sent the
// same number of requests from byte-identical pools share a digest, which
// is the "byte-identical request stream" check made cheap.
func (p *Pool) StreamDigest(n int64) string {
	h := fnv.New64a()
	for i := int64(0); i < n; i++ {
		h.Write(p.At(i).Body)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// jsonFrame mirrors the sendBeacon JSON frame collect.Server accepts.
type jsonFrame struct {
	SessionID string  `json:"sid"`
	UserAgent string  `json:"ua"`
	Values    []int64 `json:"v"`
}

// BuildPool synthesizes the session population for a scenario against a
// feature set (use the deployed model's Features so widths always match
// the server's expectation). The same scenario and features yield a
// byte-identical pool.
func BuildPool(sc *Scenario, features []fingerprint.Feature) (*Pool, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("loadgen: BuildPool with empty feature set")
	}
	oracle := browser.NewOracle()
	ext := fingerprint.NewExtractor(oracle, features)
	universe := ua.Universe(sc.maxVersion())
	tools := fraud.DetectableTools()
	gen := rng.New(sc.Seed)

	pool := &Pool{Requests: make([]Request, 0, sc.Pool), Dim: len(features)}
	for i := 0; i < sc.Pool; i++ {
		req, err := buildRequest(sc, gen, ext, universe, tools)
		if err != nil {
			return nil, fmt.Errorf("loadgen: pool entry %d: %w", i, err)
		}
		pool.Requests = append(pool.Requests, req)
	}
	return pool, nil
}

func buildRequest(sc *Scenario, gen *rng.PCG, ext *fingerprint.Extractor, universe []ua.Release, tools []fraud.Tool) (Request, error) {
	payload := &fingerprint.Payload{SessionID: dataset.DrawSessionID(gen)}
	isFraud := gen.Bool(sc.FraudMix)
	os := dataset.DrawOS(gen)
	if isFraud {
		tool := tools[gen.Intn(len(tools))]
		victim := universe[gen.Intn(len(universe))]
		spoof := tool.Spoof(victim, os, gen)
		payload.UserAgent = ua.UserAgent(spoof.Claimed, os)
		payload.Values = fingerprint.VectorToValues(ext.Extract(spoof.Profile))
	} else {
		rel := universe[gen.Intn(len(universe))]
		payload.UserAgent = ua.UserAgent(rel, os)
		payload.Values = fingerprint.VectorToValues(ext.Extract(browser.Profile{Release: rel, OS: os}))
	}

	req := Request{Fraud: isFraud}
	asJSON := gen.Bool(sc.JSONMix)
	invalid := gen.Bool(sc.InvalidMix)
	if asJSON {
		req.Path = EndpointJSON
		req.ContentType = "application/json"
		frame := jsonFrame{
			SessionID: hex.EncodeToString(payload.SessionID[:]),
			UserAgent: payload.UserAgent,
			Values:    payload.Values,
		}
		body, err := json.Marshal(frame)
		if err != nil {
			return Request{}, err
		}
		req.Body = body
	} else {
		req.Path = EndpointBinary
		req.ContentType = "application/octet-stream"
		body, err := payload.MarshalBinary()
		if err != nil {
			return Request{}, err
		}
		req.Body = body
		req.Payload = payload
	}
	if invalid {
		req.Invalid = true
		req.Body = corrupt(req.Body, asJSON, gen)
		req.Payload = nil
	}
	return req, nil
}

// corrupt produces a deterministically malformed variant of a valid body,
// covering the server's rejection taxonomy (bad framing, truncation,
// wrong feature width).
func corrupt(body []byte, isJSON bool, gen *rng.PCG) []byte {
	out := append([]byte(nil), body...)
	switch gen.Intn(3) {
	case 0:
		if isJSON {
			// Unbalanced JSON.
			return out[:len(out)/2]
		}
		// Bad magic.
		out[0], out[1] = 'x', 'x'
		return out
	case 1:
		// Truncated mid-payload.
		return out[:len(out)*3/4]
	default:
		if isJSON {
			// Wrong feature width, still valid JSON.
			return []byte(`{"sid":"00112233445566778899aabbccddeeff","ua":"x","v":[1,2,3]}`)
		}
		// Unsupported version byte.
		out[2] = 0xFF
		return out
	}
}
