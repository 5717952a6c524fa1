package core

import (
	"testing"
	"testing/quick"

	"polygraph/internal/browser"
	"polygraph/internal/ua"
)

// Property tests over Algorithm 1's risk factor, using the package
// fixture model.

func TestRiskFactorBounds(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 40)
	oracle := browser.NewOracle()
	_ = oracle
	releases := ua.Universe(114)
	f := func(fpIdx, claimIdx uint16) bool {
		fpRel := releases[int(fpIdx)%len(releases)]
		claimRel := releases[int(claimIdx)%len(releases)]
		vec := ext.Extract(browser.Profile{Release: fpRel, OS: ua.Windows10})
		res, err := m.scoreRelease(nil, vec, claimRel)
		if err != nil {
			return false
		}
		if res.RiskFactor < 0 || res.RiskFactor > ua.MaxDistance {
			return false
		}
		// Matched implies zero risk (guard disabled on this fixture).
		if res.Matched && res.RiskFactor != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRiskFactorDeterministic(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 40)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	claim := ua.Release{Vendor: ua.Firefox, Version: 101}
	a, err := m.scoreRelease(nil, vec, claim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b, err := m.scoreRelease(nil, vec, claim)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatal("scoring not deterministic")
		}
	}
}

// TestRiskFactorApproachMonotone: for claims of the same vendor as the
// predicted cluster's members, walking the claimed version toward the
// cluster's range never increases the risk factor.
func TestRiskFactorApproachMonotone(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 40)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	base, err := m.scoreRelease(nil, vec, ua.Release{Vendor: ua.Chrome, Version: 112})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Matched {
		t.Fatal("fixture assumption broken: honest Chrome 112 mismatched")
	}
	prev := ua.MaxDistance + 1
	for v := 59; v <= 112; v++ {
		res, err := m.scoreRelease(nil, vec, ua.Release{Vendor: ua.Chrome, Version: v})
		if err != nil {
			t.Fatal(err)
		}
		if res.RiskFactor > prev {
			t.Fatalf("risk rose from %d to %d approaching the cluster at Chrome %d",
				prev, res.RiskFactor, v)
		}
		prev = res.RiskFactor
	}
	if prev != 0 {
		t.Fatalf("risk at the cluster itself = %d", prev)
	}
}

// TestRiskFactorAgreesWithAlgorithm1 recomputes the risk factor from the
// cluster table directly and compares.
func TestRiskFactorAgreesWithAlgorithm1(t *testing.T) {
	m, _, ext := trainFixtureModel(t, 40)
	releases := ua.Universe(114)
	f := func(fpIdx, claimIdx uint16) bool {
		fpRel := releases[int(fpIdx)%len(releases)]
		claim := releases[int(claimIdx)%len(releases)]
		vec := ext.Extract(browser.Profile{Release: fpRel, OS: ua.Windows10})
		res, err := m.scoreRelease(nil, vec, claim)
		if err != nil {
			return false
		}
		members := m.ClusterUAs[res.Cluster]
		inCluster := false
		want := ua.MaxDistance
		for _, r := range members {
			if r == claim {
				inCluster = true
			}
			if d := ua.Distance(claim, r, m.VersionDivisor); d < want {
				want = d
			}
		}
		if inCluster {
			return res.Matched && res.RiskFactor == 0
		}
		return !res.Matched && res.RiskFactor == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
