package bundle

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

// The analyzer tests seed bundles through the Builder directly: each
// fault the rule catalog promises to catch is reproduced synthetically
// and its named rule must fail, while the healthy bundle passes every
// rule — the contract CI's `polygraphctl bundle analyze` step leans on.

// metricsOpts tweaks the synthetic per-target exposition.
type metricsOpts struct {
	collections float64
	records     float64
	dropped     float64
	rejected    float64 // decode-reason rejects
	driftAlert  float64
	p99Bucket   int // bucket index carrying the whole latency mass
}

func healthyOpts() metricsOpts {
	return metricsOpts{
		collections: 100, records: 90, dropped: 10,
		p99Bucket: 10, // 1024us << 100ms
	}
}

func metricsText(o metricsOpts) []byte {
	var b bytes.Buffer
	obs.FamCollections.Write(&b, o.collections)
	obs.FamAuditRecords.Write(&b, o.records)
	obs.FamAuditDropped.Write(&b, o.dropped)
	if o.rejected > 0 {
		obs.FamRejected.WriteSeries(&b, []obs.LabeledValue{{Label: "decode", Value: o.rejected}})
	}
	obs.FamDriftAlert.Write(&b, o.driftAlert)
	s := obs.HistogramSeries{Label: "/v1/collect", SumUs: 1000}
	s.Buckets[o.p99Bucket] = uint64(o.collections)
	obs.FamScoreDuration.WriteHistogram(&b, []obs.HistogramSeries{s})
	return b.Bytes()
}

// seedTarget adds one replica with the standard artifact set.
func seedTarget(b *Builder, name, hash string, o metricsOpts) {
	tw := b.target(name, "http://"+name)
	tw.add(ArtifactMetrics, KindMetrics, metricsText(o))
	tw.add(ArtifactModelInfo, KindModelInfo, []byte(`{"hash":"`+hash+`","features":4,"clusters":8}`))
	tw.add(ArtifactTraces, KindTraces, []byte("[]"))
}

func analyzeBundle(t *testing.T, fn func(b *Builder)) []Finding {
	t.Helper()
	bb, _ := build(t, fn)
	return Analyze(bb, AnalyzeOptions{})
}

func ruleFindings(findings []Finding, rule string) []Finding {
	var out []Finding
	for _, f := range findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func wantSeverity(t *testing.T, findings []Finding, rule, severity string) Finding {
	t.Helper()
	for _, f := range ruleFindings(findings, rule) {
		if f.Severity == severity {
			return f
		}
	}
	t.Fatalf("no %s finding for rule %s; got %v", severity, rule, findings)
	return Finding{}
}

const hashA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
const hashB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"

func TestAnalyzeHealthyBundlePassesEveryRule(t *testing.T) {
	findings := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
		seedTarget(b, "r1", hashA, healthyOpts())
	})
	if hasFailure(findings) {
		t.Fatalf("healthy bundle failed: %v", findings)
	}
	// Every rule reports — the output enumerates what was checked.
	for _, rule := range []string{
		RuleChecksum, RuleCollectErrors, RulePromlint, RuleP99Budget,
		RuleDriftStaleModel, RuleFleetHash, RuleAuditAccounting,
		RuleRejectSpike, RuleFleetHealth, RuleSLO,
	} {
		fs := ruleFindings(findings, rule)
		if len(fs) == 0 {
			t.Errorf("rule %s reported nothing", rule)
			continue
		}
		for _, f := range fs {
			if f.Severity != SeverityPass {
				t.Errorf("healthy bundle: %v", f)
			}
		}
	}
}

// Seeded fault 1: a drift alert is active. Drift is measured against
// the deployed model's own training baseline, so the alert is a
// warning that a retrain may be due, not a failure.
func TestAnalyzeDriftStaleModelFault(t *testing.T) {
	o := healthyOpts()
	o.driftAlert = 1
	findings := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, o)
		seedTarget(b, "r1", hashA, healthyOpts())
	})
	if got := ruleFindings(findings, RuleDriftStaleModel); len(got) != 1 || got[0].Severity != SeverityWarn || got[0].Target != "r0" {
		t.Fatalf("drift findings %v, want one warning for r0", got)
	}
	if hasFailure(findings) {
		t.Fatalf("drift warn escalated to failure: %v", findings)
	}
}

// Seeded fault 2: replicas disagree on the deployed model hash.
func TestAnalyzeFleetHashDisagreementFault(t *testing.T) {
	findings := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
		seedTarget(b, "r1", hashB, healthyOpts())
		seedTarget(b, "r2", hashA, healthyOpts())
	})
	f := wantSeverity(t, findings, RuleFleetHash, SeverityFail)
	// The detail names both hashes (shortened) and who serves them.
	for _, want := range []string{hashA[:12], hashB[:12], "r1"} {
		if !bytes.Contains([]byte(f.Detail), []byte(want)) {
			t.Errorf("fleet-hash detail %q missing %q", f.Detail, want)
		}
	}
}

// Seeded fault 3: an endpoint's p99 bucket bound exceeds the budget.
func TestAnalyzeP99OverBudgetFault(t *testing.T) {
	o := healthyOpts()
	o.p99Bucket = 20 // upper bound 2^20us ≈ 1.05s >> 100ms budget
	findings := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, o)
	})
	f := wantSeverity(t, findings, RuleP99Budget, SeverityFail)
	if f.Target != "r0" || !bytes.Contains([]byte(f.Detail), []byte("/v1/collect")) {
		t.Fatalf("p99 finding %+v", f)
	}
	// A custom budget above the bucket bound clears it.
	bb, _ := build(t, func(b *Builder) { seedTarget(b, "r0", hashA, o) })
	relaxed := Analyze(bb, AnalyzeOptions{P99BudgetUs: 2_000_000})
	if len(ruleFindings(relaxed, RuleP99Budget)) != 1 ||
		ruleFindings(relaxed, RuleP99Budget)[0].Severity != SeverityPass {
		t.Fatalf("relaxed budget still fails: %v", ruleFindings(relaxed, RuleP99Budget))
	}
}

func TestAnalyzeAuditAccountingFault(t *testing.T) {
	o := healthyOpts()
	o.records = 80 // 80+10 != 100: ten decisions unaccounted
	findings := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, o)
	})
	wantSeverity(t, findings, RuleAuditAccounting, SeverityFail)

	// No ledger counters at all: nothing to account, rule passes.
	quiet := healthyOpts()
	quiet.records, quiet.dropped = 0, 0
	clean := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, quiet)
	})
	if hasFailure(clean) {
		t.Fatalf("ledger-less target failed accounting: %v", clean)
	}
}

func TestAnalyzeRejectSpike(t *testing.T) {
	o := healthyOpts()
	o.rejected = 40 // 40/(40+100) ≈ 29% > 20% fail threshold
	findings := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, o)
	})
	f := wantSeverity(t, findings, RuleRejectSpike, SeverityFail)
	if !bytes.Contains([]byte(f.Detail), []byte("decode")) {
		t.Fatalf("reject-spike detail %q does not name the top reason", f.Detail)
	}

	o.rejected = 5 // 5/105 ≈ 4.8%: above warn, below fail
	warn := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, o)
	})
	wantSeverity(t, warn, RuleRejectSpike, SeverityWarn)
	if hasFailure(warn) {
		t.Fatalf("reject warn escalated: %v", warn)
	}
}

func TestAnalyzeFleetHealth(t *testing.T) {
	fleetMetrics := func(healthy, ejected float64) []byte {
		var b bytes.Buffer
		obs.FamFleetReplicas.WriteSeries(&b, []obs.LabeledValue{{Label: "healthy", Value: healthy}, {Label: "ejected", Value: ejected}})
		return b.Bytes()
	}
	// One ejected replica with others healthy: warn.
	warn := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
		b.addFile(FleetMetricsFile, KindMetrics, fleetMetrics(2, 1))
	})
	wantSeverity(t, warn, RuleFleetHealth, SeverityWarn)
	if hasFailure(warn) {
		t.Fatalf("single ejection escalated: %v", warn)
	}
	// Nothing healthy left: fail.
	fail := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
		b.addFile(FleetMetricsFile, KindMetrics, fleetMetrics(0, 3))
	})
	wantSeverity(t, fail, RuleFleetHealth, SeverityFail)
}

func TestAnalyzeChecksumAndCollectErrors(t *testing.T) {
	bb, _ := build(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
		b.target("r1", "http://r1").addError(ArtifactMetrics, errTest)
	})
	// Tamper with an artifact after capture.
	bb.Files["targets/r0/"+ArtifactMetrics] = append(bb.Files["targets/r0/"+ArtifactMetrics], "tampered\n"...)
	findings := Analyze(bb, AnalyzeOptions{})
	wantSeverity(t, findings, RuleChecksum, SeverityFail)
	// The dead replica's recorded error surfaces as a warning, and the
	// analysis still runs end to end.
	f := wantSeverity(t, findings, RuleCollectErrors, SeverityWarn)
	if f.Target != "r1" {
		t.Fatalf("collect-error target %q, want r1", f.Target)
	}
}

func TestAnalyzePromlintRule(t *testing.T) {
	findings := analyzeBundle(t, func(b *Builder) {
		// A sample without HELP/TYPE headers trips the linter.
		b.target("r0", "").add(ArtifactMetrics, KindMetrics,
			[]byte("polygraph_headerless_total 1\n"))
	})
	wantSeverity(t, findings, RulePromlint, SeverityFail)
}

// Seeded SLO fault A: a run whose lifetime latency distribution sits
// above the default spec's 262144us threshold violates collect-latency.
func TestAnalyzeSLOViolationFault(t *testing.T) {
	o := healthyOpts()
	o.p99Bucket = 20 // 2^20us ≈ 1.05s, far over the threshold
	findings := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, o)
	})
	f := wantSeverity(t, findings, RuleSLO, SeverityFail)
	if f.Target != "r0" || !strings.Contains(f.Detail, "collect-latency") {
		t.Fatalf("slo finding = %+v, want collect-latency violation on r0", f)
	}
	if !hasFailure(findings) {
		t.Fatal("no failing finding despite an SLO violation")
	}

	// Beside a healthy replica the slow one also drags the fleet's
	// summed counters under the target (EvaluateSLO's aggregate view).
	findings = analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
		seedTarget(b, "r1", hashA, o)
	})
	var scopes []string
	for _, f := range ruleFindings(findings, RuleSLO) {
		scopes = append(scopes, f.Severity+" "+f.Target)
	}
	if want := []string{"fail r1", "fail fleet"}; !reflect.DeepEqual(scopes, want) {
		t.Fatalf("slo findings %v, want %v", scopes, want)
	}
}

// Seeded SLO fault B: a captured burn-rate alert gauge fails the rule
// even when the lifetime counters average out clean.
func TestAnalyzeSLOAlertGaugeFault(t *testing.T) {
	withAlert := append(metricsText(healthyOpts()), []byte(`# HELP polygraph_slo_alert a
# TYPE polygraph_slo_alert gauge
polygraph_slo_alert{objective="collect-latency"} 1
`)...)
	findings := analyzeBundle(t, func(b *Builder) {
		tw := b.target("r0", "http://r0")
		tw.add(ArtifactMetrics, KindMetrics, withAlert)
	})
	f := wantSeverity(t, findings, RuleSLO, SeverityFail)
	if !strings.Contains(f.Detail, "alert firing") {
		t.Fatalf("slo finding = %+v, want live-alert failure", f)
	}

	// Same for the fleet-level gauge in the balancer exposition.
	fleet := analyzeBundle(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
		b.addFile(FleetMetricsFile, KindMetrics, []byte(`# HELP polygraph_fleet_slo_alert a
# TYPE polygraph_fleet_slo_alert gauge
polygraph_fleet_slo_alert{objective="ingest-availability"} 1
`))
	})
	f = wantSeverity(t, fleet, RuleSLO, SeverityFail)
	if f.Target != "fleet" {
		t.Fatalf("fleet slo finding target = %q, want fleet", f.Target)
	}
}

// A custom spec passed through AnalyzeOptions overrides the default.
func TestAnalyzeSLOCustomSpec(t *testing.T) {
	spec := &slo.Spec{
		Name: "strict",
		Objectives: []slo.Objective{
			// healthyOpts puts all mass at 1024us; a 512us threshold
			// therefore counts zero good requests.
			{Name: "tight-lat", Kind: slo.KindLatency, Endpoint: "/v1/collect",
				Target: 0.5, ThresholdUs: 512, WindowS: 60},
		},
	}
	bb, _ := build(t, func(b *Builder) {
		seedTarget(b, "r0", hashA, healthyOpts())
	})
	findings := Analyze(bb, AnalyzeOptions{SLOSpec: spec})
	f := wantSeverity(t, findings, RuleSLO, SeverityFail)
	if !strings.Contains(f.Detail, "tight-lat") {
		t.Fatalf("slo finding = %+v, want tight-lat violation", f)
	}
}

// hasFailure reports whether any finding failed (the CLI's exit-1
// condition).
func hasFailure(findings []Finding) bool {
	return slices.ContainsFunc(findings, func(f Finding) bool { return f.Severity == SeverityFail })
}
