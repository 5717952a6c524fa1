package bundle

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

// The offline analyzer: a fixed catalog of rules replayed over a
// captured bundle, each emitting machine-readable pass/warn/fail
// findings. The rules encode the invariants the live system promises —
// the p99 budget, the audit accounting identity, fleet hash agreement,
// the drift/staleness relation from the paper's §7.3 methodology — so
// an operator (or CI) gets a verdict without hand-reading expositions.

// Severities, ordered.
const (
	SeverityPass = "pass"
	SeverityWarn = "warn"
	SeverityFail = "fail"
)

// Rule names (stable identifiers for CI greps and tests).
const (
	RuleChecksum        = "artifact-checksum"
	RuleCollectErrors   = "collector-errors"
	RulePromlint        = "promlint"
	RuleP99Budget       = "p99-over-budget"
	RuleDriftStaleModel = "drift-stale-model"
	RuleFleetHash       = "fleet-hash-disagreement"
	RuleAuditAccounting = "audit-accounting"
	RuleRejectSpike     = "rejected-reason-spike"
	RuleFleetHealth     = "fleet-health"
	RuleSLO             = "slo-violation"
)

// Finding is one analyzer verdict.
type Finding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	// Target names the replica the finding is about ("" for bundle- or
	// fleet-level findings).
	Target string `json:"target,omitempty"`
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	t := f.Target
	if t != "" {
		t = " " + t
	}
	return fmt.Sprintf("%s %s%s: %s", strings.ToUpper(f.Severity), f.Rule, t, f.Detail)
}

// AnalyzeOptions tune rule thresholds; zero values take the defaults.
type AnalyzeOptions struct {
	// P99BudgetUs is the per-endpoint p99 ceiling in microseconds
	// (default 100ms — the paper's interactive-login budget).
	P99BudgetUs float64
	// RejectWarnRatio / RejectFailRatio bound rejected/(scored+rejected)
	// (defaults 0.02 / 0.20).
	RejectWarnRatio float64
	RejectFailRatio float64
	// RetryWarnRatio bounds fleet retries per scored request (default
	// 0.01).
	RetryWarnRatio float64
	// SLOSpec is the objective set the slo-violation rule evaluates over
	// each captured exposition's lifetime counters (nil =
	// slo.DefaultSpec()).
	SLOSpec *slo.Spec
}

func (o *AnalyzeOptions) defaults() {
	if o.P99BudgetUs <= 0 {
		o.P99BudgetUs = 100_000
	}
	if o.RejectWarnRatio <= 0 {
		o.RejectWarnRatio = 0.02
	}
	if o.RejectFailRatio <= 0 {
		o.RejectFailRatio = 0.20
	}
	if o.RetryWarnRatio <= 0 {
		o.RetryWarnRatio = 0.01
	}
}

// HasFailure reports whether any finding failed (the CLI's exit-1
// condition).
func HasFailure(findings []Finding) bool {
	for _, f := range findings {
		if f.Severity == SeverityFail {
			return true
		}
	}
	return false
}

// Analyze replays the full rule catalog over a bundle. Every rule
// contributes at least one finding — a pass with a summary detail when
// nothing is wrong — so the output enumerates what was checked, not
// just what failed.
func Analyze(b *Bundle, opts AnalyzeOptions) []Finding {
	opts.defaults()
	a := &analyzer{b: b, opts: opts, expositions: targetExpositions(b)}
	a.checkChecksums()
	a.checkCollectErrors()
	a.checkPromlint()
	a.checkP99()
	a.checkDriftStaleModel()
	a.checkFleetHash()
	a.checkAuditAccounting()
	a.checkRejectSpike()
	a.checkFleetHealth()
	a.checkSLO()
	return a.findings
}

type analyzer struct {
	b           *Bundle
	opts        AnalyzeOptions
	expositions map[string]*obs.Exposition
	findings    []Finding
}

func (a *analyzer) addf(rule, severity, target, format string, args ...any) {
	a.findings = append(a.findings, Finding{
		Rule: rule, Severity: severity, Target: target, Detail: fmt.Sprintf(format, args...),
	})
}

// pass emits the rule's all-clear finding unless the rule already
// reported something worse.
func (a *analyzer) pass(rule, format string, args ...any) {
	for _, f := range a.findings {
		if f.Rule == rule {
			return
		}
	}
	a.addf(rule, SeverityPass, "", format, args...)
}

// targetNames returns manifest order.
func (a *analyzer) targetNames() []string {
	out := make([]string, len(a.b.Manifest.Targets))
	for i, t := range a.b.Manifest.Targets {
		out[i] = t.Name
	}
	return out
}

// checkChecksums re-hashes every artifact against the manifest.
func (a *analyzer) checkChecksums() {
	n := 0
	check := func(tarPath, target string, art Artifact) {
		n++
		data, ok := a.b.Files[tarPath]
		if !ok {
			a.addf(RuleChecksum, SeverityFail, target, "%s listed in manifest but missing from archive", art.Name)
			return
		}
		sum := sha256.Sum256(data)
		if got := fmt.Sprintf("%x", sum); got != art.SHA256 || int64(len(data)) != art.Bytes {
			a.addf(RuleChecksum, SeverityFail, target, "%s content does not match manifest checksum", art.Name)
		}
	}
	for _, t := range a.b.Manifest.Targets {
		for _, art := range t.Artifacts {
			check("targets/"+t.Name+"/"+art.Name, t.Name, art)
		}
	}
	for _, art := range a.b.Manifest.Files {
		check("files/"+art.Name, "", art)
	}
	a.pass(RuleChecksum, "%d artifacts verified against manifest checksums", n)
}

// checkCollectErrors surfaces capture-time failures (dead replicas,
// missing debug listeners) as warnings — degraded visibility, not
// proven breakage.
func (a *analyzer) checkCollectErrors() {
	n := 0
	for _, t := range a.b.Manifest.Targets {
		for _, ce := range t.Errors {
			n++
			a.addf(RuleCollectErrors, SeverityWarn, t.Name, "%s not captured: %s", ce.Artifact, ce.Err)
		}
	}
	for _, ce := range a.b.Manifest.Errors {
		n++
		a.addf(RuleCollectErrors, SeverityWarn, "", "%s not captured: %s", ce.Artifact, ce.Err)
	}
	a.pass(RuleCollectErrors, "every artifact captured cleanly")
}

// checkPromlint runs the exposition linter over every captured
// /metrics, including the fleet-level one.
func (a *analyzer) checkPromlint() {
	n := 0
	lint := func(target string, data []byte) {
		n++
		problems, err := obs.Lint(strings.NewReader(string(data)))
		if err != nil {
			a.addf(RulePromlint, SeverityFail, target, "lint: %v", err)
			return
		}
		for i, p := range problems {
			if i == 8 {
				a.addf(RulePromlint, SeverityFail, target, "... and %d more problems", len(problems)-i)
				break
			}
			a.addf(RulePromlint, SeverityFail, target, "%s", p.String())
		}
	}
	for _, t := range a.b.Manifest.Targets {
		if data := a.b.TargetFile(t.Name, ArtifactMetrics); data != nil {
			lint(t.Name, data)
		}
	}
	if data := a.b.Files["files/"+FleetMetricsFile]; data != nil {
		lint("fleet", data)
	}
	a.pass(RulePromlint, "%d expositions lint clean", n)
}

// checkP99 derives each endpoint's p99 from the captured histogram
// buckets and compares it against the budget. The bucket layout is the
// obs.Hist power-of-two-microsecond ladder, so the bound of the bucket
// holding the 99th-percentile rank is the tightest claim the exposition
// supports.
func (a *analyzer) checkP99() {
	evaluated := 0
	for _, name := range a.targetNames() {
		ex := a.expositions[name]
		if ex == nil {
			continue
		}
		hist := ex.HistogramBuckets("polygraph_score_duration_microseconds", "endpoint")
		endpoints := make([]string, 0, len(hist))
		for ep := range hist {
			endpoints = append(endpoints, ep)
		}
		sort.Strings(endpoints)
		for _, ep := range endpoints {
			idx, total := obs.QuantileBucket(hist[ep], 0.99)
			if total == 0 {
				continue
			}
			evaluated++
			upper := obs.BucketUpperMicros(idx)
			if upper > a.opts.P99BudgetUs {
				a.addf(RuleP99Budget, SeverityFail, name,
					"endpoint %s p99 bucket bound %.0fus exceeds budget %.0fus (%d samples)",
					ep, upper, a.opts.P99BudgetUs, total)
			}
		}
	}
	a.pass(RuleP99Budget, "%d endpoint histograms within the %.0fus p99 budget", evaluated, a.opts.P99BudgetUs)
}

// checkDriftStaleModel encodes the §7.3 lesson: fingerprint
// distributions rot. An active drift alert alone is a warning; an
// active alert while the deployed model predates the drift baseline
// means the model has not been retrained since the distribution moved —
// that is the failure.
func (a *analyzer) checkDriftStaleModel() {
	for _, name := range a.targetNames() {
		ex := a.expositions[name]
		if ex == nil {
			continue
		}
		alert, err := ex.Value("polygraph_drift_alert")
		if err != nil || alert < 1 {
			continue
		}
		trained, terr := ex.Value("polygraph_model_trained_timestamp_seconds")
		baseline, berr := ex.Value("polygraph_drift_baseline_timestamp_seconds")
		if terr == nil && berr == nil && trained > 0 && baseline > 0 && trained < baseline {
			a.addf(RuleDriftStaleModel, SeverityFail, name,
				"drift alert active and deployed model (trained %.0f) predates the drift baseline (%.0f) — retrain overdue",
				trained, baseline)
			continue
		}
		a.addf(RuleDriftStaleModel, SeverityWarn, name, "drift alert active (PSI above threshold)")
	}
	a.pass(RuleDriftStaleModel, "no active drift alerts")
}

// checkFleetHash demands every replica serve the same model. Hashes
// come from model-info.json, falling back to the build of
// polygraph_model_hash-bearing fleet replica_info series when present.
func (a *analyzer) checkFleetHash() {
	hashes := map[string][]string{} // hash -> targets
	order := []string{}
	record := func(hash, target string) {
		if hash == "" {
			return
		}
		if _, ok := hashes[hash]; !ok {
			order = append(order, hash)
		}
		hashes[hash] = append(hashes[hash], target)
	}
	for _, name := range a.targetNames() {
		if data := a.b.TargetFile(name, ArtifactModelInfo); data != nil {
			var info struct {
				Hash string `json:"hash"`
			}
			if json.Unmarshal(data, &info) == nil {
				record(info.Hash, name)
			}
		}
	}
	if data := a.b.Files["files/"+FleetMetricsFile]; data != nil {
		ex := obs.ParseExpositionString(string(data))
		for _, s := range ex.Samples("polygraph_fleet_replica_info") {
			record(s.Label("model_hash"), "fleet:"+s.Label("replica"))
		}
	}
	if len(order) > 1 {
		parts := make([]string, len(order))
		for i, h := range order {
			short := h
			if len(short) > 12 {
				short = short[:12]
			}
			parts[i] = fmt.Sprintf("%s on %s", short, strings.Join(hashes[h], ","))
		}
		a.addf(RuleFleetHash, SeverityFail, "", "replicas disagree on the deployed model: %s", strings.Join(parts, "; "))
	}
	if len(order) == 0 {
		a.pass(RuleFleetHash, "no model hashes captured")
		return
	}
	a.pass(RuleFleetHash, "all replicas agree on one model hash")
}

// checkAuditAccounting verifies the ledger identity per target: every
// scored request (HTTP collections + TCP frames) is either durably
// recorded or counted as dropped.
func (a *analyzer) checkAuditAccounting() {
	evaluated := 0
	for _, name := range a.targetNames() {
		ex := a.expositions[name]
		if ex == nil {
			continue
		}
		records, rerr := ex.Value("polygraph_audit_records_total")
		dropped, derr := ex.Value("polygraph_audit_dropped_total")
		if rerr != nil || derr != nil || records+dropped == 0 {
			continue // no ledger configured (or empty): nothing to account
		}
		scored, serr := ex.Value("polygraph_collections_total")
		if serr != nil {
			continue
		}
		tcp, terr := ex.Value("polygraph_tcp_scored_total")
		if terr == nil {
			scored += tcp
		}
		evaluated++
		if records+dropped != scored {
			a.addf(RuleAuditAccounting, SeverityFail, name,
				"records(%.0f)+dropped(%.0f) != scored(%.0f): ledger lost or double-counted decisions",
				records, dropped, scored)
		}
	}
	a.pass(RuleAuditAccounting, "%d ledgers satisfy records+dropped==scored", evaluated)
}

// checkRejectSpike flags targets whose reject taxonomy dominates their
// traffic — a client-contract break or an attack, either way a page.
func (a *analyzer) checkRejectSpike() {
	for _, name := range a.targetNames() {
		ex := a.expositions[name]
		if ex == nil {
			continue
		}
		rejected := ex.Sum("polygraph_rejected_total")
		scored, err := ex.Value("polygraph_collections_total")
		if err != nil || rejected == 0 {
			continue
		}
		total := rejected + scored
		if total == 0 {
			continue
		}
		ratio := rejected / total
		if ratio < a.opts.RejectWarnRatio {
			continue
		}
		topReason, topCount := "", 0.0
		for _, s := range ex.Samples("polygraph_rejected_total") {
			if s.Value > topCount {
				topReason, topCount = s.Label("reason"), s.Value
			}
		}
		sev := SeverityWarn
		if ratio >= a.opts.RejectFailRatio {
			sev = SeverityFail
		}
		a.addf(RuleRejectSpike, sev, name,
			"%.1f%% of requests rejected (top reason %q, %.0f)", ratio*100, topReason, topCount)
	}
	a.pass(RuleRejectSpike, "reject ratios below %.0f%% everywhere", a.opts.RejectWarnRatio*100)
}

// checkFleetHealth reads the balancer's own exposition: ejected
// replicas still out of rotation and the transparent-retry rate.
func (a *analyzer) checkFleetHealth() {
	data := a.b.Files["files/"+FleetMetricsFile]
	if data == nil {
		a.pass(RuleFleetHealth, "no fleet exposition captured (single-target bundle)")
		return
	}
	ex := obs.ParseExpositionString(string(data))
	var ejected, healthy float64
	for _, s := range ex.Samples("polygraph_fleet_replicas") {
		switch s.Label("state") {
		case "ejected":
			ejected = s.Value
		case "healthy":
			healthy = s.Value
		}
	}
	if healthy == 0 && ejected > 0 {
		a.addf(RuleFleetHealth, SeverityFail, "", "no healthy replicas; %.0f ejected", ejected)
	} else if ejected > 0 {
		a.addf(RuleFleetHealth, SeverityWarn, "", "%.0f replica(s) ejected from rotation", ejected)
	}
	retries := ex.Sum("polygraph_fleet_retries_total")
	if retries > 0 {
		var scored float64
		for _, name := range a.targetNames() {
			if tex := a.expositions[name]; tex != nil {
				if v, err := tex.Value("polygraph_collections_total"); err == nil {
					scored += v
				}
			}
		}
		if scored > 0 && retries/scored >= a.opts.RetryWarnRatio {
			a.addf(RuleFleetHealth, SeverityWarn, "",
				"retry rate %.2f%% (%.0f retries / %.0f scored) above %.2f%%",
				retries/scored*100, retries, scored, a.opts.RetryWarnRatio*100)
		}
	}
	a.pass(RuleFleetHealth, "fleet healthy: no ejections, retry rate nominal")
}

// checkSLO fails on every failed check EvaluateSLO finds in the bundle:
// an objective violated over a target's (or the fleet's summed)
// lifetime counters, or a burn-rate alert gauge caught firing.
func (a *analyzer) checkSLO() {
	spec := a.opts.SLOSpec
	if spec == nil {
		spec = slo.DefaultSpec()
	}
	evaluated := 0
	for _, c := range evaluateSLO(a.b, spec, a.expositions) {
		res := c.Result
		switch {
		case c.AlertFamily != "" && c.Scope == SLOScopeFleet:
			a.addf(RuleSLO, SeverityFail, c.Scope,
				"fleet-level burn-rate alert firing at capture time for objective %q", res.Objective)
		case c.AlertFamily != "":
			a.addf(RuleSLO, SeverityFail, c.Scope,
				"burn-rate alert firing at capture time for objective %q", res.Objective)
		case res.Vacuous:
		default:
			evaluated++
			if !res.Met {
				a.addf(RuleSLO, SeverityFail, c.Scope,
					"objective %q violated over the run: SLI %.5f < target %.5f (%.0f good / %.0f total)",
					res.Objective, res.SLI, res.Target, res.Good, res.Total)
			}
		}
	}
	a.pass(RuleSLO, "%d non-vacuous objectives met under spec %q, no burn-rate alerts at capture", evaluated, spec.Name)
}
