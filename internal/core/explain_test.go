package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"polygraph/internal/browser"
	"polygraph/internal/ua"
)

// explainString is the serving tier's audited-verdict path: ScoreString,
// then ExplainResult over the same inputs.
func explainString(t testing.TB, m *Model, vec []float64, userAgent string, topK int) (*Explanation, Result) {
	t.Helper()
	res, err := m.ScoreString(vec, userAgent)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExplainResult(vec, userAgent, res, topK)
	if err != nil {
		t.Fatal(err)
	}
	return ex, res
}

// TestExplainVerdictMatchesScore pins the replay invariant: the verdict
// embedded in an explanation is exactly VerdictOf of Algorithm 1's
// verdict for the same inputs, for honest and lying sessions alike.
func TestExplainVerdictMatchesScore(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	cases := []struct {
		name    string
		profile ua.Release
		claim   ua.Release
	}{
		{"honest", ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112}},
		{"cross-vendor-lie", ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110}},
		{"version-lie", ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 60}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vec := ext.Extract(browser.Profile{Release: tc.profile, OS: ua.Windows10})
			res, err := m.scoreRelease(nil, vec, tc.claim)
			if err != nil {
				t.Fatal(err)
			}
			ex, _ := explainString(t, m, vec, ua.UserAgent(tc.claim, ua.Windows10), 0)
			if ex.Verdict != VerdictOf(res) {
				t.Fatalf("explain verdict %+v != score verdict %+v", ex.Verdict, VerdictOf(res))
			}
			if got := ex.Verdict.Result(); got != res {
				t.Fatalf("Verdict.Result() = %+v, want %+v", got, res)
			}
			if !ex.ClaimParsed || ex.Claim != tc.claim.String() {
				t.Fatalf("claim fields: %+v", ex)
			}
		})
	}
}

func TestExplainDecomposition(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	ex, _ := explainString(t, m, vec, ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10), 3)
	if ex.Schema != ExplanationSchema {
		t.Fatalf("schema %d", ex.Schema)
	}
	if len(ex.TopFeatures) != 3 {
		t.Fatalf("topK=3 gave %d features", len(ex.TopFeatures))
	}
	for i := 1; i < len(ex.TopFeatures); i++ {
		if abs(ex.TopFeatures[i].Z) > abs(ex.TopFeatures[i-1].Z) {
			t.Fatalf("top features not sorted by |z|: %+v", ex.TopFeatures)
		}
	}
	if len(ex.Centroids) != m.KMeans.K {
		t.Fatalf("centroid list %d, want K=%d", len(ex.Centroids), m.KMeans.K)
	}
	if ex.Centroids[0].Cluster != ex.Verdict.Cluster {
		t.Fatalf("nearest centroid %d != verdict cluster %d", ex.Centroids[0].Cluster, ex.Verdict.Cluster)
	}
	for i := 1; i < len(ex.Centroids); i++ {
		if ex.Centroids[i].Distance < ex.Centroids[i-1].Distance {
			t.Fatal("centroids not sorted ascending")
		}
	}
	if len(ex.Components) == 0 || len(ex.Components) > 3 {
		t.Fatalf("components %d", len(ex.Components))
	}
	var shareSum float64
	for i, c := range ex.Components {
		if c.Share < 0 || c.Share > 1 {
			t.Fatalf("component share out of range: %+v", c)
		}
		if i > 0 && c.Share > ex.Components[i-1].Share {
			t.Fatal("components not sorted by share")
		}
		shareSum += c.Share
	}
	if shareSum > 1+1e-9 {
		t.Fatalf("component shares sum to %v > 1", shareSum)
	}
	if !ex.Frequent || ex.ClusterUAs == "" {
		t.Fatalf("honest fixture session should land in a frequent cluster: %+v", ex)
	}
	if ex.NearestClaim != nil {
		t.Fatalf("matched session should have no NearestClaim: %+v", ex.NearestClaim)
	}
}

// TestExplainNearestClaim pins that a same-vendor version lie names the
// cluster member whose Algorithm 1 distance set the risk factor.
func TestExplainNearestClaim(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	claim := ua.Release{Vendor: ua.Chrome, Version: 60}
	ex, _ := explainString(t, m, vec, ua.UserAgent(claim, ua.Windows10), 0)
	if ex.Verdict.Matched {
		t.Skip("fixture clustered Chrome 60 with Chrome 112; lie not observable")
	}
	if ex.NearestClaim == nil {
		t.Fatal("mismatched parsed claim should carry NearestClaim")
	}
	if ex.NearestClaim.Distance != ex.Verdict.RiskFactor {
		t.Fatalf("nearest-claim distance %d != risk factor %d",
			ex.NearestClaim.Distance, ex.Verdict.RiskFactor)
	}
}

// TestExplainDeterministicJSON pins the stability the audit ledger
// depends on: two explanations of the same input marshal to identical
// bytes.
func TestExplainDeterministicJSON(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	claim := ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Windows10)
	a, _ := explainString(t, m, vec, claim, 0)
	b, _ := explainString(t, m, vec, claim, 0)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("explanations differ:\n%s\n%s", aj, bj)
	}
}

// TestExplainBatchMatchesSingle pins the offline shape of an audited
// batch: ScoreStringBatchContext then ExplainResult per row gives, for
// every worker count, exactly what ScoreString then ExplainResult give
// for the row alone.
func TestExplainBatchMatchesSingle(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	releases := []ua.Release{
		{Vendor: ua.Chrome, Version: 112},
		{Vendor: ua.Firefox, Version: 110},
		{Vendor: ua.Edge, Version: 112},
		{Vendor: ua.Chrome, Version: 60},
	}
	var vectors [][]float64
	var userAgents []string
	for i, r := range releases {
		vectors = append(vectors, ext.Extract(browser.Profile{Release: r, OS: ua.Windows10}))
		// Make one of them a lie.
		userAgents = append(userAgents, ua.UserAgent(releases[(i+1)%len(releases)], ua.Windows10))
	}
	for _, workers := range []int{1, 4} {
		batch, err := m.ScoreStringBatchContext(context.Background(), vectors, userAgents, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vectors {
			fromBatch, err := m.ExplainResult(vectors[i], userAgents[i], batch[i], 4)
			if err != nil {
				t.Fatal(err)
			}
			single, _ := explainString(t, m, vectors[i], userAgents[i], 4)
			bj, _ := json.Marshal(fromBatch)
			sj, _ := json.Marshal(single)
			if !bytes.Equal(bj, sj) {
				t.Fatalf("workers=%d row %d batch != single:\n%s\n%s", workers, i, bj, sj)
			}
		}
	}
	if _, err := m.ScoreStringBatchContext(context.Background(), vectors, userAgents[:1], 4); err == nil {
		t.Fatal("mismatched lengths should error")
	}
}

func TestExplainStringUnparseable(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 60)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	const junk = "curl/7.81.0"
	ex, res := explainString(t, m, vec, junk, 0)
	if ex.ClaimParsed {
		t.Fatal("junk UA marked parsed")
	}
	if ex.Claim != junk {
		t.Fatalf("claim %q", ex.Claim)
	}
	if ex.Verdict != VerdictOf(res) {
		t.Fatalf("verdict %+v != %+v", ex.Verdict, VerdictOf(res))
	}
	if ex.NearestClaim != nil {
		t.Fatal("unparseable claim cannot have a nearest member")
	}

	// A parsed header through the string path must explain exactly what
	// the typed claim's verdict explains.
	good := ua.Release{Vendor: ua.Chrome, Version: 112}
	header := "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36"
	fromString, _ := explainString(t, m, vec, header, 0)
	typed, err := m.scoreRelease(nil, vec, good)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.ExplainResult(vec, ua.UserAgent(good, ua.Windows10), typed, 0)
	if err != nil {
		t.Fatal(err)
	}
	fj, _ := json.Marshal(fromString)
	dj, _ := json.Marshal(direct)
	if !bytes.Equal(fj, dj) {
		t.Fatal("ScoreString+ExplainResult(parsed header) != the typed claim's explanation")
	}
}

func TestModelHashStable(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	h1, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 32 {
		t.Fatalf("hash unstable or wrong width: %q vs %q", h1, h2)
	}
	// Save → Load must preserve the hash (the property polygraphctl audit replay
	// uses to pair a ledger with its model file).
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := loaded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 {
		t.Fatalf("hash changed across save/load: %q vs %q", h3, h1)
	}
	// A different model must hash differently.
	other, _, _ := trainFixtureModel(t, 41)
	h4, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h1 {
		t.Fatal("distinct models share a hash")
	}
}

// BenchmarkExplainResult is the audit path's explain cost for a flagged
// session (parsed claim, mismatched, nearest-claim search included).
// scripts/benchgate.sh gates its allocs/op.
func BenchmarkExplainResult(b *testing.B) {
	m, _, ext := trainFixtureModel(b, 40)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	claim := ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Windows10)
	res, err := m.ScoreString(vec, claim)
	if err != nil {
		b.Fatal(err)
	}
	if res.Matched {
		b.Fatal("fixture session is not a mismatch")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ExplainResult(vec, claim, res, 0); err != nil {
			b.Fatal(err)
		}
	}
}
