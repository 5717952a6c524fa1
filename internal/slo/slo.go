// Package slo is the service-level-objective engine: a declarative spec
// of per-endpoint availability and latency-threshold objectives (e.g.
// "99% of /v1/collect under 262ms over 1h"), service-level indicators
// derived purely from the metric families the servers already export,
// and multi-window multi-burn-rate evaluation in the SRE-workbook style
// (fast 5m/1h and slow 30m/6h window pairs).
//
// SLIs are good/total event counts computed as deltas over the
// polygraph_score_duration_microseconds histogram buckets (latency
// objectives) and the polygraph_rejected_total / polygraph_tcp_*
// counters (availability objectives), snapshotted on a deterministic
// tick into fixed-size ring windows. Nothing in the evaluation reads a
// wall clock: the same sequence of snapshots always yields the same
// burn rates, the same alert transitions, and byte-identical
// /debug/slo JSON — the repo-wide determinism contract, extended to
// alerting.
//
// The package sits directly above internal/obs (the exposition parser
// and writers) and below collect/serving/fleet, so a replica can
// evaluate its own scrape, the balancer can aggregate per-replica
// deltas into a fleet-level rollup, and `polygraphctl slo` can replay a spec
// offline against a metrics dump or a support bundle.
package slo

import (
	"encoding/json"
	"fmt"
	"os"

	"polygraph/internal/obs"
)

// Objective kinds.
const (
	// KindLatency counts an event good when it lands at or under the
	// objective's latency threshold (rounded down to the exported
	// histogram's nearest bucket bound).
	KindLatency = "latency"
	// KindAvailability counts an event good when the server produced a
	// verdict for it; the bad set is the configured server-fault subset
	// of the reject taxonomy (client-caused rejects never burn budget).
	KindAvailability = "availability"
)

// EndpointTCP selects the framed-TCP listener's counters for an
// availability objective (and its histogram label for latency).
const EndpointTCP = "tcp"

// DefaultBadReasons is the server-fault subset of the reject taxonomy
// an HTTP availability objective counts against the error budget when
// the spec lists none: internal scoring failures and load shedding.
// Client-caused rejects (malformed payloads, bad versions) are the
// service working as intended.
var DefaultBadReasons = []string{"score", "rate_limit"}

// Windows configures the burn-rate window pairs. Zero values take the
// SRE-workbook defaults (fast 5m/1h at 14.4x, slow 30m/6h at 6x);
// tests and short-lived harness runs shrink them to fit their horizon.
type Windows struct {
	FastShortS int     `json:"fast_short_s,omitempty"`
	FastLongS  int     `json:"fast_long_s,omitempty"`
	FastBurn   float64 `json:"fast_burn,omitempty"`
	SlowShortS int     `json:"slow_short_s,omitempty"`
	SlowLongS  int     `json:"slow_long_s,omitempty"`
	SlowBurn   float64 `json:"slow_burn,omitempty"`
}

// withDefaults fills zero fields with the SRE-workbook values.
func (w Windows) withDefaults() Windows {
	if w.FastShortS == 0 {
		w.FastShortS = 300
	}
	if w.FastLongS == 0 {
		w.FastLongS = 3600
	}
	if w.FastBurn == 0 {
		w.FastBurn = 14.4
	}
	if w.SlowShortS == 0 {
		w.SlowShortS = 1800
	}
	if w.SlowLongS == 0 {
		w.SlowLongS = 21600
	}
	if w.SlowBurn == 0 {
		w.SlowBurn = 6
	}
	return w
}

// Objective is one declarative objective over a rolling compliance
// window.
type Objective struct {
	Name string `json:"name"`
	// Kind is KindLatency or KindAvailability.
	Kind string `json:"kind"`
	// Endpoint selects the histogram series for latency objectives
	// ("/v1/collect", "/v1/collect-json", "tcp") and the
	// counter set for availability ones ("" = HTTP ingest, "tcp" = the
	// framed listener).
	Endpoint string `json:"endpoint,omitempty"`
	// Target is the objective ratio, e.g. 0.999 for three nines.
	Target float64 `json:"target"`
	// ThresholdUs is the latency threshold in microseconds (latency
	// objectives only). Counting rounds it down to the histogram's
	// nearest power-of-two bucket bound, so thresholds on a bound
	// (4096, 262144, ...) are exact.
	ThresholdUs float64 `json:"threshold_us,omitempty"`
	// WindowS is the rolling compliance window in seconds.
	WindowS int `json:"window_s"`
	// BadReasons overrides the reject reasons an HTTP availability
	// objective counts as budget burn (default DefaultBadReasons).
	BadReasons []string `json:"bad_reasons,omitempty"`
}

// Spec is a full declarative SLO specification.
type Spec struct {
	Name       string      `json:"name"`
	Windows    Windows     `json:"windows,omitempty"`
	Objectives []Objective `json:"objectives"`
}

// validate rejects impossible specs before any evaluation.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("slo: spec has no name")
	}
	if len(s.Objectives) == 0 {
		return fmt.Errorf("slo: spec %q has no objectives", s.Name)
	}
	w := s.Windows.withDefaults()
	if w.FastShortS > w.FastLongS || w.SlowShortS > w.SlowLongS {
		return fmt.Errorf("slo: spec %q: burn windows must pair short<=long", s.Name)
	}
	if w.FastBurn <= 0 || w.SlowBurn <= 0 {
		return fmt.Errorf("slo: spec %q: burn thresholds must be positive", s.Name)
	}
	names := map[string]bool{}
	for i, o := range s.Objectives {
		if o.Name == "" {
			return fmt.Errorf("slo: objective %d has no name", i)
		}
		if names[o.Name] {
			return fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		names[o.Name] = true
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("slo: objective %q: target %v outside (0,1)", o.Name, o.Target)
		}
		if o.WindowS <= 0 {
			return fmt.Errorf("slo: objective %q: window_s must be positive", o.Name)
		}
		switch o.Kind {
		case KindLatency:
			if o.Endpoint == "" {
				return fmt.Errorf("slo: latency objective %q needs an endpoint", o.Name)
			}
			if o.ThresholdUs <= 0 {
				return fmt.Errorf("slo: latency objective %q needs threshold_us > 0", o.Name)
			}
		case KindAvailability:
			if o.ThresholdUs != 0 {
				return fmt.Errorf("slo: availability objective %q cannot set threshold_us", o.Name)
			}
		default:
			return fmt.Errorf("slo: objective %q: unknown kind %q", o.Name, o.Kind)
		}
	}
	return nil
}

// parseSpec parses and validates a JSON spec.
func parseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("slo: parse spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo: read spec: %w", err)
	}
	s, err := parseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("slo: %s: %w", path, err)
	}
	return s, nil
}

// DefaultSpec is the built-in production spec polygraphd and the CI
// smoke harness evaluate when no spec file is given. Thresholds sit on
// histogram bucket bounds (2^18 µs ≈ 262 ms, one bucket above the CI
// 250 ms p99 ceiling) so a healthy smoke run passes with margin and a
// genuine breach fails crisply. scripts/slo-smoke.json is this spec's
// committed twin; a test pins the two together.
func DefaultSpec() *Spec {
	return &Spec{
		Name: "polygraph-default",
		Objectives: []Objective{
			{Name: "ingest-availability", Kind: KindAvailability, Target: 0.999, WindowS: 3600},
			{Name: "collect-latency", Kind: KindLatency, Endpoint: "/v1/collect", Target: 0.99, ThresholdUs: 262144, WindowS: 3600},
			{Name: "collect-json-latency", Kind: KindLatency, Endpoint: "/v1/collect-json", Target: 0.99, ThresholdUs: 262144, WindowS: 3600},
			{Name: "tcp-latency", Kind: KindLatency, Endpoint: EndpointTCP, Target: 0.99, ThresholdUs: 262144, WindowS: 3600},
			{Name: "tcp-availability", Kind: KindAvailability, Endpoint: EndpointTCP, Target: 0.999, WindowS: 3600},
		},
	}
}

// Counters is one objective's cumulative good/total event counts at a
// snapshot instant. Counts are cumulative since process start (the
// shape of every exported counter), so deltas between snapshots are
// exact event counts.
type Counters struct {
	Good  float64 `json:"good"`
	Total float64 `json:"total"`
}

// Extract derives every objective's cumulative counters from one parsed
// exposition. Absent families yield zero counters (a replica that has
// not served the endpoint yet), never an error — vacuous objectives
// evaluate as meeting their target.
func (s *Spec) Extract(ex *obs.Exposition) []Counters {
	out := make([]Counters, len(s.Objectives))
	for i := range s.Objectives {
		out[i] = s.Objectives[i].extract(ex)
	}
	return out
}

func (o *Objective) extract(ex *obs.Exposition) Counters {
	switch o.Kind {
	case KindLatency:
		series := ex.Histogram(obs.FamScoreDuration.Name, "endpoint")[o.Endpoint]
		if len(series) == 0 {
			return Counters{}
		}
		var c Counters
		c.Total = series[len(series)-1].Cum
		for _, b := range series {
			if b.Le <= o.ThresholdUs {
				c.Good = b.Cum
			}
		}
		return c
	case KindAvailability:
		if o.Endpoint == EndpointTCP {
			good := valueOrZero(ex, obs.FamTCPScored.Name)
			bad := valueOrZero(ex, obs.FamTCPBadFrames.Name)
			return Counters{Good: good, Total: good + bad}
		}
		good := valueOrZero(ex, obs.FamCollections.Name)
		reasons := o.BadReasons
		if len(reasons) == 0 {
			reasons = DefaultBadReasons
		}
		var bad float64
		for _, s := range ex.Samples(obs.FamRejected.Name) {
			for _, r := range reasons {
				if s.Label("reason") == r {
					bad += s.Value
				}
			}
		}
		return Counters{Good: good, Total: good + bad}
	}
	return Counters{}
}

// valueOrZero reads an unlabeled counter, 0 when absent.
func valueOrZero(ex *obs.Exposition, name string) float64 {
	v, err := ex.Value(name)
	if err != nil {
		return 0
	}
	return v
}

// SumCounters adds b into a element-wise (fleet rollup: the sum of
// per-replica cumulative counters is the fleet's cumulative counters).
// The slices must be the same spec's shape.
func SumCounters(a, b []Counters) []Counters {
	out := make([]Counters, len(a))
	for i := range a {
		out[i] = Counters{Good: a[i].Good + b[i].Good, Total: a[i].Total + b[i].Total}
	}
	return out
}

// Result is one objective's offline evaluation over a whole lifetime
// window (cumulative counters treated as a single delta from zero).
type Result struct {
	Objective string  `json:"objective"`
	Kind      string  `json:"kind"`
	Endpoint  string  `json:"endpoint,omitempty"`
	Target    float64 `json:"target"`
	Good      float64 `json:"good"`
	Total     float64 `json:"total"`
	SLI       float64 `json:"sli"`
	// Vacuous marks an objective with no observed events (absent
	// family or idle endpoint); vacuous objectives are met.
	Vacuous bool `json:"vacuous,omitempty"`
	Met     bool `json:"met"`
}

// EvaluateCounters applies the spec's targets to one cumulative counter
// snapshot — the offline (`polygraphctl slo` / bundle-analyzer) evaluation, where
// a metrics dump's lifetime counters are the only window there is.
func EvaluateCounters(spec *Spec, c []Counters) []Result {
	out := make([]Result, len(spec.Objectives))
	for i, o := range spec.Objectives {
		r := Result{Objective: o.Name, Kind: o.Kind, Endpoint: o.Endpoint, Target: o.Target}
		if i < len(c) {
			r.Good, r.Total = c[i].Good, c[i].Total
		}
		r.SLI, r.Vacuous = sli(r.Good, r.Total)
		r.Met = r.Vacuous || r.SLI >= o.Target
		out[i] = r
	}
	return out
}

// Evaluate is the one-shot offline form: extract counters from an
// exposition and apply the targets.
func Evaluate(spec *Spec, ex *obs.Exposition) []Result {
	return EvaluateCounters(spec, spec.Extract(ex))
}

// sli computes good/total, reporting a vacuous (no events) window as a
// perfect 1.
func sli(good, total float64) (v float64, vacuous bool) {
	if total <= 0 {
		return 1, true
	}
	return good / total, false
}
