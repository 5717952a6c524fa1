package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"polygraph/internal/browser"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// explainReference is the decomposition written out the long way — the
// component transforms, three stable sorts, names and labels formatted
// on the spot — as the oracle Model.explain is compared against. It
// reads nothing from the score plan.
func explainReference(m *Model, vector []float64, claim string, claimed ua.Release, parsed bool, res Result, topK int) (*Explanation, error) {
	if topK <= 0 {
		topK = DefaultExplainTopK
	}
	scaled, err := m.Scaler.TransformVec(vector)
	if err != nil {
		return nil, err
	}
	x := scaled
	if m.PCA != nil {
		if x, err = m.PCA.TransformVec(scaled); err != nil {
			return nil, err
		}
	}
	ex := &Explanation{Schema: ExplanationSchema, Verdict: VerdictOf(res), Claim: claim, ClaimParsed: parsed}

	idx := make([]int, len(scaled))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		za, zb := abs(scaled[idx[a]]), abs(scaled[idx[b]])
		if za != zb {
			return za > zb
		}
		return idx[a] < idx[b]
	})
	ex.TopFeatures = []FeatureZ{}
	for _, j := range idx[:min(topK, len(idx))] {
		ex.TopFeatures = append(ex.TopFeatures, FeatureZ{Name: m.Features[j].Name(), Raw: vector[j], Z: scaled[j]})
	}

	ex.Centroids = make([]CentroidDist, m.KMeans.K)
	for c := range ex.Centroids {
		ex.Centroids[c] = CentroidDist{Cluster: c, Distance: m.KMeans.Distance(x, c)}
	}
	sort.SliceStable(ex.Centroids, func(a, b int) bool {
		if ex.Centroids[a].Distance != ex.Centroids[b].Distance {
			return ex.Centroids[a].Distance < ex.Centroids[b].Distance
		}
		return ex.Centroids[a].Cluster < ex.Centroids[b].Cluster
	})

	cent := m.KMeans.Centroids.RawRow(res.Cluster)
	var sq float64
	deltas := make([]float64, len(x))
	for c := range x {
		deltas[c] = x[c] - cent[c]
		sq += deltas[c] * deltas[c]
	}
	comp := make([]ComponentShare, len(x))
	for c := range x {
		share := 0.0
		if sq > 0 {
			share = deltas[c] * deltas[c] / sq
		}
		comp[c] = ComponentShare{Component: c, Value: x[c], Delta: deltas[c], Share: share}
	}
	sort.SliceStable(comp, func(a, b int) bool {
		if comp[a].Share != comp[b].Share {
			return comp[a].Share > comp[b].Share
		}
		return comp[a].Component < comp[b].Component
	})
	ex.Components = comp[:min(topK, len(comp))]

	members := m.ClusterUAs[res.Cluster]
	ex.Frequent = len(members) > 0
	if len(members) > 0 {
		ex.ClusterUAs = CompressReleases(members)
	}
	if parsed && !res.Matched && len(members) > 0 {
		best := ClaimDistance{Distance: ua.MaxDistance + 1}
		for _, r := range members {
			if d := ua.Distance(claimed, r, m.VersionDivisor); d < best.Distance {
				best = ClaimDistance{UserAgent: r.String(), Distance: d}
			}
		}
		if best.Distance <= ua.MaxDistance {
			ex.NearestClaim = &best
		}
	}
	ex.Novelty = NoveltyExplanation{
		Armed:     m.NoveltyThreshold > 0,
		Threshold: m.NoveltyThreshold,
		Score:     res.NoveltyScore,
		Tripped:   res.Novel,
	}
	return ex, nil
}

// TestExplainMatchesReference: the plan-backed explain equals the
// long-hand decomposition field for field — with and
// without PCA, novelty guard armed and not, two clusters on one
// centroid, honest, lying and unparseable claims, real and perturbed
// vectors (equal columns make ties), and every topK from below the
// default to past the feature count.
func TestExplainMatchesReference(t *testing.T) {
	withPCA, _, ext := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 40)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0
	cfg.DisablePCA = true
	cfg.NoveltyGuard = true
	cfg.Reference = ExtractorReference{Extractor: ext, OS: ua.Windows10}
	noPCA, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noPCA.NoveltyThreshold <= 0 {
		t.Fatal("fixture model has no armed novelty guard")
	}

	// Two clusters at one point tie on distance for every session.
	var saved bytes.Buffer
	if err := withPCA.Save(&saved); err != nil {
		t.Fatal(err)
	}
	twins, err := Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	copy(twins.KMeans.Centroids.RawRow(5), twins.KMeans.Centroids.RawRow(2))
	twins.plan.Store(buildScorePlan(twins))

	r := rng.New(14)
	universe := ua.Universe(114)
	claims := []string{"", "not a browser", "Mozilla/5.0 Chrome/300.0.0.0"}
	for _, rel := range universe {
		claims = append(claims, ua.UserAgent(rel, ua.Windows10))
	}
	for _, m := range []*Model{withPCA, noPCA, twins} {
		for i := 0; i < 400; i++ {
			rel := universe[r.Intn(len(universe))]
			vec := ext.Extract(browser.Profile{Release: rel, OS: ua.Windows10})
			switch i % 4 {
			case 1: // an alien surface: the novelty guard's case
				for j := range vec {
					vec[j] += float64(r.Intn(400))
				}
			case 2: // equal columns: equal z-scores and shares are likely
				for j := range vec {
					vec[j] = float64(r.Intn(2))
				}
			case 3: // the training mean of a no-PCA model puts every share at sq == 0
				copy(vec, m.Scaler.Means)
			}
			claim := claims[r.Intn(len(claims))]
			res, err := m.ScoreString(vec, claim)
			if err != nil {
				t.Fatal(err)
			}
			for _, topK := range []int{0, 1, 3, DefaultExplainTopK, DefaultExplainTopK + 1, 1000} {
				got, err := m.ExplainResult(vec, claim, res, topK)
				if err != nil {
					t.Fatal(err)
				}
				claimed, perr := ua.Parse(claim)
				name := claim
				if perr == nil {
					name = claimed.String()
				}
				want, err := explainReference(m, vec, name, claimed, perr == nil, res, topK)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("model pca=%v op %d topK %d claim %q:\n got %+v\nwant %+v", m.PCA != nil, i, topK, claim, got, want)
				}
			}
		}
	}
}

// TestExplainResultRejectsForeignVerdict: a verdict naming a cluster the
// model does not have, or a vector of the wrong width, is an error and
// not an index out of range.
func TestExplainResultRejectsForeignVerdict(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 20)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	claim := ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10)
	for _, c := range []int{-1, m.KMeans.K} {
		if _, err := m.ExplainResult(vec, claim, Result{Cluster: c}, 0); err == nil {
			t.Fatalf("cluster %d explained without error", c)
		}
	}
	if _, err := m.ExplainResult(vec[:len(vec)-1], claim, Result{}, 0); err == nil {
		t.Fatal("short vector explained without error")
	}
}
