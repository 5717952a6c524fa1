package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"polygraph/internal/jsonappend"
	"polygraph/internal/ua"
)

// ExplanationSchema versions the Explanation JSON shape. Bump it when a
// field changes meaning; the audit ledger records it with every verdict
// so old ledgers stay interpretable.
const ExplanationSchema = 1

// DefaultExplainTopK bounds the per-feature and per-component
// contribution lists when callers pass topK ≤ 0.
const DefaultExplainTopK = 5

// Verdict is the decision part of an explanation: Result plus the
// derived Flagged bit, in a stable JSON shape. It is what the audit
// ledger records and what `polygraphctl audit replay` re-derives; two verdicts from
// the same model and input are comparable field-for-field.
type Verdict struct {
	Cluster      int     `json:"cluster"`
	Matched      bool    `json:"matched"`
	RiskFactor   int     `json:"risk_factor"`
	Novel        bool    `json:"novel,omitempty"`
	NoveltyScore float64 `json:"novelty_score,omitempty"`
	Flagged      bool    `json:"flagged"`
}

// VerdictOf converts a scoring Result into its ledger form.
func VerdictOf(r Result) Verdict {
	return Verdict{
		Cluster:      r.Cluster,
		Matched:      r.Matched,
		RiskFactor:   r.RiskFactor,
		Novel:        r.Novel,
		NoveltyScore: r.NoveltyScore,
		Flagged:      r.Flagged(),
	}
}

// Result converts back to the scoring Result (Flagged is derived, so
// nothing is lost).
func (v Verdict) Result() Result {
	return Result{
		Cluster:      v.Cluster,
		Matched:      v.Matched,
		RiskFactor:   v.RiskFactor,
		Novel:        v.Novel,
		NoveltyScore: v.NoveltyScore,
	}
}

// AppendJSON appends v byte for byte as json.Marshal(v) writes it. The
// audit ledger encodes every record through it instead of reflection; a
// json-tagged field added to Verdict needs its line here
// (audit.TestRecordEncodeParity fails until it has one). A non-finite
// float is the one error, the same one json.Marshal reports.
func (v Verdict) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"cluster":`...)
	dst = strconv.AppendInt(dst, int64(v.Cluster), 10)
	dst = append(dst, `,"matched":`...)
	dst = strconv.AppendBool(dst, v.Matched)
	dst = append(dst, `,"risk_factor":`...)
	dst = strconv.AppendInt(dst, int64(v.RiskFactor), 10)
	if v.Novel {
		dst = append(dst, `,"novel":true`...)
	}
	if v.NoveltyScore != 0 {
		var err error
		dst = append(dst, `,"novelty_score":`...)
		if dst, err = jsonappend.Float(dst, v.NoveltyScore); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"flagged":`...)
	dst = strconv.AppendBool(dst, v.Flagged)
	return append(dst, '}'), nil
}

// FeatureZ is one feature's standardized contribution: the raw reported
// value and its z-score after the model's standard scaler (pass-through
// binary columns keep Z == Raw).
type FeatureZ struct {
	Name string  `json:"name"`
	Raw  float64 `json:"raw"`
	Z    float64 `json:"z"`
}

// ComponentShare is one cluster-space coordinate's contribution to the
// nearest-centroid distance: the projected value, the offset from the
// winning centroid along that axis, and the share of the squared
// distance it accounts for. With PCA disabled the "components" are the
// scaled features themselves.
type ComponentShare struct {
	Component int     `json:"component"`
	Value     float64 `json:"value"`
	Delta     float64 `json:"delta"`
	Share     float64 `json:"share"`
}

// CentroidDist is the distance to one cluster centroid in cluster
// space; the full sorted list shows the assignment margin.
type CentroidDist struct {
	Cluster  int     `json:"cluster"`
	Distance float64 `json:"distance"`
}

// ClaimDistance names the predicted cluster's member closest to the
// claimed user-agent under Algorithm 1's distance — the term that set
// the risk factor for a mismatch.
type ClaimDistance struct {
	UserAgent string `json:"ua"`
	Distance  int    `json:"distance"`
}

// NoveltyExplanation unpacks the novelty-guard decision.
type NoveltyExplanation struct {
	Armed     bool    `json:"armed"`
	Threshold float64 `json:"threshold,omitempty"`
	Score     float64 `json:"score,omitempty"`
	Tripped   bool    `json:"tripped"`
}

// Explanation decomposes one verdict into the evidence behind it: which
// features pushed the session where it landed, how the cluster
// assignment was won, what the cluster-table lookup concluded, and why
// the novelty guard did or did not fire. It is a pure function of
// (model, vector, claim) — no timestamps, no randomness — so replaying
// the same inputs through the same model reproduces it byte for byte.
type Explanation struct {
	Schema  int     `json:"schema"`
	Verdict Verdict `json:"verdict"`

	// Claim is the user-agent the session asserted; ClaimParsed is
	// false when the raw string did not parse (maximum risk by
	// definition).
	Claim       string `json:"claim"`
	ClaimParsed bool   `json:"claim_parsed"`

	// TopFeatures are the topK features by |z|, most anomalous first.
	TopFeatures []FeatureZ `json:"top_features"`
	// Components are the topK cluster-space coordinates by distance
	// share, largest first.
	Components []ComponentShare `json:"components"`
	// Centroids lists every cluster by ascending distance; the gap
	// between the first two entries is the assignment margin.
	Centroids []CentroidDist `json:"centroids"`

	// ClusterUAs renders the predicted cluster's user-agent members in
	// Table 3 notation; Frequent is false for clusters holding no
	// user-agent majority (the paper's unlisted "infrequent" clusters).
	ClusterUAs string `json:"cluster_uas,omitempty"`
	Frequent   bool   `json:"frequent_cluster"`

	// NearestClaim is set for parsed, mismatched claims: the cluster
	// member whose Algorithm 1 distance produced the risk factor.
	NearestClaim *ClaimDistance `json:"nearest_claim,omitempty"`

	Novelty NoveltyExplanation `json:"novelty"`
}

// Explain scores one session and decomposes the verdict. topK ≤ 0 uses
// DefaultExplainTopK. The embedded Verdict is computed by the exact
// Score code path, so Explain(v, c).Verdict always equals
// VerdictOf(Score(v, c)) — the property the audit replay check rests
// on.
func (m *Model) Explain(vector []float64, claimed ua.Release, topK int) (*Explanation, error) {
	res, err := m.Score(vector, claimed)
	if err != nil {
		return nil, err
	}
	return m.explain(vector, claimed.String(), claimed, true, res, topK)
}

// ExplainResult decomposes an already-computed verdict without paying
// for a second scoring pass — the serving tier's audit path, where res
// just came out of ScoreString for the same (vector, userAgent) pair.
// Passing a res that did not come from scoring these inputs produces an
// explanation that contradicts itself; the audit replay check exists to
// catch exactly that.
func (m *Model) ExplainResult(vector []float64, userAgent string, res Result, topK int) (*Explanation, error) {
	if err := m.checkTrained(); err != nil {
		return nil, err
	}
	claimed, ok := ua.ParseRelease(userAgent)
	if !ok {
		return m.explain(vector, userAgent, ua.Release{}, false, res, topK)
	}
	return m.explain(vector, claimed.String(), claimed, true, res, topK)
}

// explained is the one heap block behind an Explanation: the struct, the
// ClaimDistance it may point at, and the two topK-bounded lists at their
// default bound. A caller asking for more than DefaultExplainTopK gets
// those two from make; the centroid list is as long as the model has
// clusters and is always its own slice.
type explained struct {
	ex       Explanation
	nearest  ClaimDistance
	features [DefaultExplainTopK]FeatureZ
	comps    [DefaultExplainTopK]ComponentShare
}

// explain builds the decomposition around an already-computed Result,
// from the flattened plan: the scaled and projected vectors land in
// pooled scratch with the arithmetic scoring uses, and the feature
// names, cluster labels and member names are the plan's. Every ordering
// below is a stable insertion, so ties keep ascending index and the
// output is a pure function of the input.
func (m *Model) explain(vector []float64, claim string, claimed ua.Release, parsed bool, res Result, topK int) (*Explanation, error) {
	if topK <= 0 {
		topK = DefaultExplainTopK
	}
	p := m.scorePlanNow()
	if !p.valid {
		return nil, fmt.Errorf("core: %w: cannot explain on a model whose components disagree on their dimensions", ErrBadInput)
	}
	if len(vector) != p.dim {
		return nil, fmt.Errorf("core: vector has %d features, model expects %d", len(vector), p.dim)
	}
	if res.Cluster < 0 || res.Cluster >= p.k {
		return nil, fmt.Errorf("core: %w: verdict names cluster %d of %d", ErrBadInput, res.Cluster, p.k)
	}
	s := p.getScratch()
	defer p.putScratch(s)
	x := p.transform(s, vector)
	scaled := s.scaled[:p.dim]

	out := &explained{ex: Explanation{
		Schema:      ExplanationSchema,
		Verdict:     VerdictOf(res),
		Claim:       claim,
		ClaimParsed: parsed,
		Novelty: NoveltyExplanation{
			Armed:     m.NoveltyThreshold > 0,
			Threshold: m.NoveltyThreshold,
			Score:     res.NoveltyScore,
			Tripped:   res.Novel,
		},
	}}
	ex := &out.ex

	// Per-feature z-scores, topK by |z|, most anomalous first.
	top := boundedList(out.features[:], min(topK, p.dim))
	for j, z := range scaled {
		i := len(top)
		for i > 0 && abs(top[i-1].Z) < abs(z) {
			i--
		}
		top = insertAt(top, i, FeatureZ{Name: p.featNames[j], Raw: vector[j], Z: z})
	}
	ex.TopFeatures = top

	// Distance to every centroid, ascending; the winner is res.Cluster
	// by construction (same nearest-centroid arithmetic).
	cents := make([]CentroidDist, p.k)
	for c := 0; c < p.k; c++ {
		d := math.Sqrt(p.sqDist(x, c))
		i := c
		for i > 0 && cents[i-1].Distance > d {
			cents[i] = cents[i-1]
			i--
		}
		cents[i] = CentroidDist{Cluster: c, Distance: d}
	}
	ex.Centroids = cents

	// Per-coordinate share of the squared distance to the winning
	// centroid, topK by share.
	cent := p.cents[res.Cluster*p.cdim : (res.Cluster+1)*p.cdim]
	sq := p.sqDist(x, res.Cluster)
	comps := boundedList(out.comps[:], min(topK, p.cdim))
	for c, xv := range x {
		d := xv - cent[c]
		share := 0.0
		if sq > 0 {
			share = d * d / sq
		}
		i := len(comps)
		for i > 0 && comps[i-1].Share < share {
			i--
		}
		comps = insertAt(comps, i, ComponentShare{Component: c, Value: xv, Delta: d, Share: share})
	}
	ex.Components = comps

	// Cluster-table outcome: the predicted cluster's members (Table 3
	// view) and, for parsed mismatches, the member that set the risk
	// factor.
	lo, hi := p.uaOff[res.Cluster], p.uaOff[res.Cluster+1]
	ex.Frequent = hi > lo
	ex.ClusterUAs = p.clusterLabels[res.Cluster]
	if parsed && !res.Matched {
		best, bestD := -1, ua.MaxDistance+1
		for i := lo; i < hi; i++ {
			if d := ua.Distance(claimed, p.uaList[i], m.VersionDivisor); d < bestD {
				best, bestD = int(i), d
			}
		}
		if bestD <= ua.MaxDistance {
			out.nearest = ClaimDistance{UserAgent: p.uaNames[best], Distance: bestD}
			ex.NearestClaim = &out.nearest
		}
	}
	return ex, nil
}

// boundedList returns an empty list of capacity n: backing's front when
// it is long enough, a new slice otherwise.
func boundedList[T any](backing []T, n int) []T {
	if n <= len(backing) {
		return backing[:0:n]
	}
	return make([]T, 0, n)
}

// insertAt is one step of a top-k selection into a list whose capacity
// is k: v goes in at position i and the tail moves right, off the end
// once the list is full; i == cap(s) means v ranks below a full list.
func insertAt[T any](s []T, i int, v T) []T {
	if i == cap(s) {
		return s
	}
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	}
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Hash returns a stable hex digest of the model's serialized form
// (SHA-256 over Save's output, which is deterministic: struct fields in
// declaration order, map keys sorted by encoding/json). Two models with
// the same digest produce identical verdicts for every input, which is
// what lets the audit ledger stamp each record with the model that
// decided it and `polygraphctl audit replay` refuse a mismatched model file.
func (m *Model) Hash() (string, error) {
	h := sha256.New()
	if err := m.Save(h); err != nil {
		return "", fmt.Errorf("core: hash model: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}
