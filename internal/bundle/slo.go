package bundle

import (
	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

// Offline SLO evidence: what a captured exposition can say about an
// objective set. The lifetime counters are evaluated as one window
// covering the whole run — the overall SLI since process start —
// which catches a run that breached an objective on aggregate; the
// burn-rate alert gauges the capture caught firing catch a transient
// burn the lifetime average would wash out. `polygraphctl slo` prints
// every check, the analyzer's slo-violation rule reports the failing
// ones; both walk a bundle through EvaluateSLO so they cannot disagree
// about what a bundle holds.

// SLOScopeFleet is the scope of the checks that span targets: the
// summed counters and the balancer's own alert gauges.
const SLOScopeFleet = "fleet"

// SLOCheck is one piece of SLO evidence: an objective evaluated over a
// scope's counters, or — AlertFamily set — an alert gauge caught at 1.
type SLOCheck struct {
	// Scope is the target name, SLOScopeFleet, or whatever the caller of
	// CheckExposition named its lone exposition.
	Scope string
	// Result is the objective's outcome (Result.Objective names it);
	// for an alert only Objective is set.
	Result slo.Result
	// AlertFamily is the gauge family a firing alert was read from.
	AlertFamily string
}

// Failed reports whether the check counts against the run: a firing
// alert or an objective that was not met.
func (c SLOCheck) Failed() bool { return c.AlertFamily != "" || !c.Result.Met }

// CheckExposition evaluates spec over one exposition's lifetime
// counters, then reports each obs.ReplicaSLO alert gauge at 1.
func CheckExposition(scope string, spec *slo.Spec, ex *obs.Exposition) []SLOCheck {
	var out []SLOCheck
	for _, res := range slo.Evaluate(spec, ex) {
		out = append(out, SLOCheck{Scope: scope, Result: res})
	}
	return appendAlerts(out, scope, ex, obs.ReplicaSLO.Alert.Name)
}

func appendAlerts(out []SLOCheck, scope string, ex *obs.Exposition, family string) []SLOCheck {
	for _, s := range ex.Samples(family) {
		if s.Value >= 1 {
			out = append(out, SLOCheck{
				Scope: scope, Result: slo.Result{Objective: s.Label("objective")}, AlertFamily: family,
			})
		}
	}
	return out
}

// EvaluateSLO checks every target exposition in manifest order, then —
// when the bundle holds more than one — the fleet aggregate (counters
// summed across targets; a single bad replica can hide inside a healthy
// fleet average, so both views are reported), then the fleet-level
// alert gauges from the balancer's exposition.
func EvaluateSLO(b *Bundle, spec *slo.Spec) []SLOCheck {
	return evaluateSLO(b, spec, targetExpositions(b))
}

// targetExpositions parses each target's metrics artifact, keyed by
// target name; a target captured without one has no entry.
func targetExpositions(b *Bundle) map[string]*obs.Exposition {
	out := map[string]*obs.Exposition{}
	for _, t := range b.Manifest.Targets {
		if data := b.targetFile(t.Name, ArtifactMetrics); data != nil {
			out[t.Name] = obs.ParseExpositionString(string(data))
		}
	}
	return out
}

func evaluateSLO(b *Bundle, spec *slo.Spec, expositions map[string]*obs.Exposition) []SLOCheck {
	var out []SLOCheck
	sum := make([]slo.Counters, len(spec.Objectives))
	targets := 0
	for _, t := range b.Manifest.Targets {
		ex := expositions[t.Name]
		if ex == nil {
			continue
		}
		out = append(out, CheckExposition(t.Name, spec, ex)...)
		sum = slo.SumCounters(sum, spec.Extract(ex))
		targets++
	}
	if targets > 1 {
		for _, res := range slo.EvaluateCounters(spec, sum) {
			out = append(out, SLOCheck{Scope: SLOScopeFleet, Result: res})
		}
	}
	if data := b.Files["files/"+FleetMetricsFile]; data != nil {
		out = appendAlerts(out, SLOScopeFleet, obs.ParseExpositionString(string(data)), obs.FleetSLO.Alert.Name)
	}
	return out
}
