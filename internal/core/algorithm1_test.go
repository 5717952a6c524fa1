package core

import (
	"fmt"
	"math"
	"testing"

	"polygraph/internal/browser"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// algorithm1 is the paper's Algorithm 1 written out literally, as the
// oracle every score path is compared against. It reads the model's
// components field by field and shares no code with the score paths but
// ua.ParseRelease and ua.Distance, the paper's claim parser and distance:
//
//  1. scale: z_j = (x_j − μ_j)/σ_j; a pass-through column keeps x_j and a
//     column with σ_j = 0 is only centred;
//  2. project: p_c = Σ_j (z_j − m_j)·w_cj, or p = z without PCA;
//  3. cluster: the centroid nearest p, the lowest on a tie;
//  4. membership: the claim is one of the cluster's user-agents;
//  5. risk: otherwise the least ua.Distance from the claim to a member,
//     ua.MaxDistance for a cluster without members or a claim that does
//     not parse.
//
// With a novelty threshold armed, the distance to the nearest centroid is
// the novelty score, and a surface beyond the threshold is novel and, when
// its claim matches, maximally risky.
func algorithm1(m *Model, vector []float64, userAgent string) Result {
	skip := m.Scaler.Skip()
	z := make([]float64, len(vector))
	for j, x := range vector {
		switch {
		case skip != nil && skip[j]:
			z[j] = x
		case m.Scaler.Stds[j] > 0:
			z[j] = (x - m.Scaler.Means[j]) / m.Scaler.Stds[j]
		default:
			z[j] = x - m.Scaler.Means[j]
		}
	}

	p := z
	if m.PCA != nil {
		p = make([]float64, m.PCA.K)
		for c := range p {
			for j, w := range m.PCA.Components.RawRow(c) {
				p[c] += (z[j] - m.PCA.Mean[j]) * w
			}
		}
	}

	cluster, nearest := 0, math.Inf(1)
	for c := 0; c < m.KMeans.K; c++ {
		d := 0.0
		for j, v := range m.KMeans.Centroids.RawRow(c) {
			d += (p[j] - v) * (p[j] - v)
		}
		if d < nearest {
			cluster, nearest = c, d
		}
	}

	claimed, ok := ua.ParseRelease(userAgent)
	if !ok {
		return Result{Cluster: cluster, RiskFactor: ua.MaxDistance}
	}
	res := Result{Cluster: cluster}
	if m.NoveltyThreshold > 0 {
		res.NoveltyScore = math.Sqrt(nearest)
		res.Novel = res.NoveltyScore > m.NoveltyThreshold
	}
	res.RiskFactor = ua.MaxDistance
	for _, member := range m.ClusterUAs[cluster] {
		if member == claimed {
			res.Matched = true
			if !res.Novel {
				res.RiskFactor = 0
			}
			return res
		}
	}
	for _, member := range m.ClusterUAs[cluster] {
		res.RiskFactor = min(res.RiskFactor, ua.Distance(claimed, member, m.VersionDivisor))
	}
	return res
}

// slowString is ScoreString on the component path: the scaler, PCA and
// k-means called one after the other (scoreSlow), with an unparseable
// claim taking the component cluster and the maximum risk.
func slowString(t *testing.T, m *Model, vector []float64, userAgent string) Result {
	t.Helper()
	claimed, ok := ua.ParseRelease(userAgent)
	if ok {
		res, err := m.scoreSlow(vector, claimed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scaled, err := m.Scaler.TransformVec(vector)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := m.clusterOfScaled(scaled)
	if err != nil {
		t.Fatal(err)
	}
	return Result{Cluster: cluster, RiskFactor: ua.MaxDistance}
}

// sameResult compares every field, the novelty score by its bits.
func sameResult(a, b Result) bool {
	return a.Cluster == b.Cluster && a.Matched == b.Matched && a.RiskFactor == b.RiskFactor &&
		a.Novel == b.Novel && math.Float64bits(a.NoveltyScore) == math.Float64bits(b.NoveltyScore)
}

// TestScorePathsMatchAlgorithm1 is the randomised differential test of the
// served verdict: generated small models — PCA on and off, clusters with
// and without user-agents, the novelty guard armed and not, divisors 1 to
// 6 — and the package's trained fixture models, scored on random finite
// vectors with claims drawn from the models' clusters, from the whole
// release universe and from strings that do not parse. The score plan
// (ScoreStringWith) — scored cold, then hot, then from its verdict memo —
// the component path (scoreSlow) and the oracle must agree on every
// Result field.
func TestScorePathsMatchAlgorithm1(t *testing.T) {
	gen := rng.New(33)
	universe := ua.Universe(119)
	unparseable := []string{"", "not a browser", "Mozilla/5.0 Chrome/300.0.0.0", "Mozilla/5.0 (Windows NT 10.0; Win64; x64)"}

	type named struct {
		name string
		m    *Model
	}
	var models []named
	for i := 0; i < 200; i++ {
		dim := 3 + gen.Intn(7)
		pcaK := 0
		if gen.Bool(0.6) {
			pcaK = 1 + gen.Intn(dim)
		}
		k := 1 + gen.Intn(9)
		m := kernelModel(t, gen, dim, pcaK, k)
		m.VersionDivisor = 1 + gen.Intn(6)
		m.ClusterUAs = map[int][]ua.Release{}
		m.UACluster = map[ua.Release]int{}
		for _, rel := range universe {
			// About a third of the releases land in a cluster, so some
			// clusters stay empty.
			if gen.Bool(0.35) {
				c := gen.Intn(k)
				m.ClusterUAs[c] = append(m.ClusterUAs[c], rel)
				m.UACluster[rel] = c
			}
		}
		if gen.Bool(0.5) {
			// Around the typical distance, so both novelty outcomes occur.
			m.NoveltyThreshold = 1 + 3*gen.Float64()
		}
		m.plan.Store(buildScorePlan(m))
		models = append(models, named{fmt.Sprintf("generated %d (dim %d, pcaK %d, k %d)", i, dim, pcaK, k), m})
	}
	fixture, _, ext := trainFixtureModel(t, 20)
	samples, _ := trainFixture(t, 20)
	cfg := DefaultTrainConfig()
	cfg.K = 8
	cfg.Contamination = 0
	cfg.NoveltyGuard = true
	cfg.DisablePCA = true
	guarded, _, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, named{"fixture", fixture}, named{"fixture, no PCA, novelty guard", guarded})

	checked := map[string]int{}
	for _, nm := range models {
		m := nm.m
		s := m.NewScratch()
		for i := 0; i < 60; i++ {
			vec := make([]float64, m.Dim())
			if m.Dim() == len(fixture.Features) && i%2 == 0 {
				vec = ext.Extract(browser.Profile{Release: universe[gen.Intn(len(universe))], OS: ua.Windows10})
			} else {
				for j := range vec {
					vec[j] = 3 * gen.NormFloat64()
				}
			}
			// A quarter of the claims name a user-agent of the vector's
			// cluster, so that matches, novel or not, are common.
			var claim string
			switch members, r := m.ClusterUAs[algorithm1(m, vec, "").Cluster], gen.Intn(4); {
			case r == 0 && len(members) > 0:
				claim = ua.UserAgent(members[gen.Intn(len(members))], ua.Windows10)
			case r <= 1:
				claim = unparseable[gen.Intn(len(unparseable))]
			default:
				claim = ua.UserAgent(universe[gen.Intn(len(universe))], ua.Windows10)
			}

			want := algorithm1(m, vec, claim)
			slow := slowString(t, m, vec, claim)
			if !sameResult(slow, want) {
				t.Fatalf("%s, vector %d, claim %q:\n scoreSlow %+v\n oracle    %+v", nm.name, i, claim, slow, want)
			}
			// Cold (first sighting), hot (the second, which enters the
			// verdict memo) and hot again (answered from it), all on one
			// scorer's scratch, whose doorkeeper admits the pair.
			for _, pass := range []string{"cold", "hot", "hot again"} {
				if pass == "hot again" && !MemoHolds(m, vec, claim) {
					t.Fatalf("%s, vector %d, claim %q: not memoised after two sightings", nm.name, i, claim)
				}
				plan, err := m.ScoreStringWith(s, vec, claim)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(plan, want) {
					t.Fatalf("%s, vector %d, claim %q, %s:\n plan   %+v\n oracle %+v", nm.name, i, claim, pass, plan, want)
				}
			}
			switch {
			case want.Matched:
				checked["matched"]++
			case want.RiskFactor < ua.MaxDistance:
				checked["near miss"]++
			default:
				checked["max risk"]++
			}
			if want.Novel {
				checked["novel"]++
				if want.Matched {
					checked["novel match"]++
				}
			}
		}
	}
	// The sweep must reach every branch of the algorithm.
	for _, branch := range []string{"matched", "near miss", "max risk", "novel", "novel match"} {
		if checked[branch] == 0 {
			t.Fatalf("no verdict took the %q branch: %v", branch, checked)
		}
	}
}
