package riskauth

import (
	"strings"
	"testing"
	"testing/quick"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/ua"
)

func TestDefaultPolicyValid(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadPolicies(t *testing.T) {
	bad := []Policy{
		{StepUpAt: 0, DenyAt: 10},
		{StepUpAt: 10, DenyAt: 10},
		{StepUpAt: 10, DenyAt: 5},
		{StepUpAt: 10, DenyAt: 20, RiskFactorWeight: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("policy %d accepted", i)
		}
	}
}

func TestDecisionBands(t *testing.T) {
	p := DefaultPolicy()
	cases := []struct {
		name string
		sig  Signals
		want Action
	}{
		{"clean", Signals{Polygraph: core.Result{Matched: true}}, Allow},
		{"tags only", Signals{Polygraph: core.Result{Matched: true}, UntrustedIP: true, UntrustedCookie: true}, Allow},
		{"low-risk mismatch alone", Signals{Polygraph: core.Result{Matched: false, RiskFactor: 1}}, Allow},
		{"moderate mismatch", Signals{Polygraph: core.Result{Matched: false, RiskFactor: 8}}, StepUp},
		{"moderate mismatch + tags", Signals{
			Polygraph:   core.Result{Matched: false, RiskFactor: 13},
			UntrustedIP: true, UntrustedCookie: true}, Deny},
		{"cross-vendor lie", Signals{Polygraph: core.Result{Matched: false, RiskFactor: 20}}, Deny},
		{"novel surface", Signals{Polygraph: core.Result{Matched: true, Novel: true, RiskFactor: 20}}, Deny},
	}
	for _, c := range cases {
		got := p.Evaluate(c.sig)
		if got.Action != c.want {
			t.Fatalf("%s: got %s (score %.0f), want %s", c.name, got.Action, got.Score, c.want)
		}
	}
}

func TestExplainMentionsReasons(t *testing.T) {
	p := DefaultPolicy()
	d := p.Evaluate(Signals{
		Polygraph:   core.Result{Matched: false, RiskFactor: 20},
		UntrustedIP: true,
	})
	text := d.Explain()
	for _, needle := range []string{"deny", "risk factor 20", "unfamiliar IP"} {
		if !strings.Contains(text, needle) {
			t.Fatalf("explanation missing %q: %s", needle, text)
		}
	}
	clean := p.Evaluate(Signals{Polygraph: core.Result{Matched: true}})
	if !strings.Contains(clean.Explain(), "allow") {
		t.Fatalf("clean explanation: %s", clean.Explain())
	}
}

// TestMonotonicity: adding a signal never decreases the action severity.
func TestMonotonicity(t *testing.T) {
	p := DefaultPolicy()
	f := func(rf uint8, novel, ip, cookie bool) bool {
		base := Signals{
			Polygraph: core.Result{Matched: false, RiskFactor: int(rf % 21)},
		}
		baseAction := p.Evaluate(base).Action
		more := base
		more.Polygraph.Novel = novel
		more.UntrustedIP = ip
		more.UntrustedCookie = cookie
		return p.Evaluate(more).Action >= baseAction
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOnTraffic runs the full decision stack on generated traffic: fraud
// sessions get stepped-up/denied at far higher rates than honest ones,
// and honest friction stays low.
func TestOnTraffic(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = 30000
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: d.Extractor, OS: ua.Windows10}
	model, _, err := core.Train(d.Samples(), tc)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultPolicy()

	var honest, honestBlocked, fraud, fraudBlocked int
	for _, s := range d.Sessions {
		res, err := model.ScoreString(s.Vector, s.UAString)
		if err != nil {
			t.Fatal(err)
		}
		dec := policy.Evaluate(Signals{
			Polygraph:       res,
			UntrustedIP:     s.Tags.UntrustedIP,
			UntrustedCookie: s.Tags.UntrustedCookie,
		})
		blocked := dec.Action != Allow
		if s.Fraud {
			fraud++
			if blocked {
				fraudBlocked++
			}
		} else {
			honest++
			if blocked {
				honestBlocked++
			}
		}
	}
	if fraud == 0 {
		t.Fatal("no fraud in traffic")
	}
	fraudRate := float64(fraudBlocked) / float64(fraud)
	honestRate := float64(honestBlocked) / float64(honest)
	if fraudRate < 0.6 {
		t.Fatalf("only %.0f%% of fraud challenged", 100*fraudRate)
	}
	if honestRate > 0.01 {
		t.Fatalf("%.2f%% of honest sessions challenged — too much friction", 100*honestRate)
	}
	if fraudRate < 50*honestRate {
		t.Fatalf("separation too weak: fraud %.3f vs honest %.5f", fraudRate, honestRate)
	}
}
