// Package loadgen is the deterministic load/soak harness for the serving
// path. It synthesizes a realistic request mix from the repository's own
// substrates — benign browser populations via internal/ua +
// internal/browser + internal/fingerprint, fraud-browser sessions via
// internal/fraud.Tool.Spoof — encodes them with the ≤1 KB wire codec, and
// drives a collect.Server (in-process or live) through scripted scenario
// phases with per-phase concurrency and target-RPS pacing.
//
// Everything the generator does is PCG-seeded: the same Scenario always
// produces a byte-identical request stream, and (against a deterministic
// server) an identical Ledger, which is what lets CI diff two runs and
// gate on the result.
package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Duration wraps time.Duration with JSON encoding as a Go duration string
// ("250ms", "3s"), the natural notation for scenario files.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a bare number of
// nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("loadgen: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("loadgen: duration must be a string or nanoseconds: %s", data)
	}
	*d = Duration(n)
	return nil
}

// Phase is one scripted traffic stage (ramp / steady / burst / ...).
// Exactly one of Requests (deterministic fixed-count mode) or Duration
// (wall-clock soak mode) must be set. Fixed-count phases are what the CI
// reproducibility gate uses: the ledger of a count-bounded run does not
// depend on scheduling or machine speed.
type Phase struct {
	Name string `json:"name"`
	// Requests is the exact number of requests the phase sends (0 when
	// Duration-bounded).
	Requests int `json:"requests,omitempty"`
	// Duration bounds the phase by wall clock instead of request count.
	// Duration-bounded phases trade reproducible ledgers for open-ended
	// soak pressure.
	Duration Duration `json:"duration,omitempty"`
	// Concurrency is the number of in-flight workers (default 1).
	Concurrency int `json:"concurrency,omitempty"`
	// RPS paces the phase at a target request rate across all workers;
	// 0 sends as fast as the workers can.
	RPS float64 `json:"rps,omitempty"`
}

// Scenario is a full scripted run: the traffic mix and the phase script.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives every randomized choice; same seed, same stream.
	Seed uint64 `json:"seed"`
	// Pool is the number of distinct pre-generated sessions; the request
	// stream cycles through the pool in index order.
	Pool int `json:"pool"`
	// MaxVersion caps the modeled release universe (default 114, the
	// paper's training window).
	MaxVersion int `json:"max_version,omitempty"`
	// FraudMix is the fraction of sessions driven by fraud browsers
	// (fraud.Tool.Spoof); the rest are honest populations.
	FraudMix float64 `json:"fraud_mix"`
	// JSONMix is the fraction of requests posted to /v1/collect-json in
	// the sendBeacon JSON frame; the rest use the compact binary codec
	// on /v1/collect.
	JSONMix float64 `json:"json_mix"`
	// InvalidMix is the fraction of deliberately malformed payloads, for
	// exercising the rejection taxonomy (0 in the CI gate, which asserts
	// zero non-2xx).
	InvalidMix float64 `json:"invalid_mix"`
	// Budget bounds the whole run's wall clock (0 = none; a negative
	// budget is refused). A run that exhausts its budget aborts remaining
	// phases and says so in the report.
	Budget Duration `json:"budget,omitempty"`

	Phases []Phase `json:"phases"`
}

// Validate rejects impossible scenarios before any traffic is built.
func (sc *Scenario) Validate() error {
	if sc.Pool <= 0 {
		return fmt.Errorf("loadgen: scenario pool must be positive, got %d", sc.Pool)
	}
	if sc.FraudMix < 0 || sc.FraudMix > 1 {
		return fmt.Errorf("loadgen: fraud_mix %v outside [0,1]", sc.FraudMix)
	}
	if sc.JSONMix < 0 || sc.JSONMix > 1 {
		return fmt.Errorf("loadgen: json_mix %v outside [0,1]", sc.JSONMix)
	}
	if sc.InvalidMix < 0 || sc.InvalidMix > 1 {
		return fmt.Errorf("loadgen: invalid_mix %v outside [0,1]", sc.InvalidMix)
	}
	if sc.Budget < 0 {
		return fmt.Errorf("loadgen: scenario %q has negative budget %v", sc.Name, time.Duration(sc.Budget))
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("loadgen: scenario %q has no phases", sc.Name)
	}
	for i, p := range sc.Phases {
		if p.Name == "" {
			return fmt.Errorf("loadgen: phase %d has no name", i)
		}
		if (p.Requests > 0) == (p.Duration > 0) {
			return fmt.Errorf("loadgen: phase %q must set exactly one of requests or duration", p.Name)
		}
		if p.Requests < 0 || p.Duration < 0 {
			return fmt.Errorf("loadgen: phase %q has negative requests or duration", p.Name)
		}
		if p.Concurrency < 0 {
			return fmt.Errorf("loadgen: phase %q has negative concurrency", p.Name)
		}
		if p.RPS < 0 {
			return fmt.Errorf("loadgen: phase %q has negative rps", p.Name)
		}
	}
	return nil
}

// maxVersion applies the default release-universe cap.
func (sc *Scenario) maxVersion() int {
	if sc.MaxVersion == 0 {
		return 114
	}
	return sc.MaxVersion
}

// LoadScenario reads and validates a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: read scenario: %w", err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("loadgen: parse scenario %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// ShortScenario is the deterministic smoke scenario the CI gate runs: a
// few seconds of fixed-count ramp → steady → burst with a 2% fraud mix
// and no invalid traffic (the gate asserts zero non-2xx).
func ShortScenario(seed uint64) *Scenario {
	return &Scenario{
		Name:     "short",
		Seed:     seed,
		Pool:     512,
		FraudMix: 0.02,
		JSONMix:  0.25,
		Budget:   Duration(2 * time.Minute),
		Phases: []Phase{
			{Name: "ramp", Requests: 400, Concurrency: 2, RPS: 400},
			{Name: "steady", Requests: 1600, Concurrency: 4},
			{Name: "burst", Requests: 800, Concurrency: 16},
		},
	}
}

// DefaultScenario is a heavier mixed soak: paced steady state framed by a
// ramp and a burst, sized for a laptop-scale box.
func DefaultScenario(seed uint64) *Scenario {
	return &Scenario{
		Name:     "default",
		Seed:     seed,
		Pool:     4096,
		FraudMix: 0.02,
		JSONMix:  0.25,
		Budget:   Duration(10 * time.Minute),
		Phases: []Phase{
			{Name: "ramp", Requests: 2000, Concurrency: 4, RPS: 1000},
			{Name: "steady", Duration: Duration(30 * time.Second), Concurrency: 8, RPS: 2000},
			{Name: "burst", Requests: 20000, Concurrency: 32},
		},
	}
}
