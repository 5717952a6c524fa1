package obs

import (
	"slices"
	"strings"
)

// The metric family registry. Every polygraph_* family the service
// exports is declared here, once: name, HELP, TYPE, label names and the
// surface that must carry it. Writers emit through these values and
// readers look families up by their Name, so renaming a family renames
// it everywhere, and dropping one is a compile error rather than a
// lookup that silently comes back empty. `polygraphctl lint -require`
// expands a surface from this table, and README's family table is
// rendered from it by a test. Declaration order is exposition order.

// Surface names an exposition that must carry a family.
type Surface string

const (
	// SurfaceReplica families are on every replica's /metrics page.
	SurfaceReplica Surface = "replica"
	// SurfaceTCP families are what a replica's framed TCP listener adds.
	SurfaceTCP Surface = "tcp"
	// SurfaceFleet families are what the balancer's WriteMetrics appends.
	SurfaceFleet Surface = "fleet"
)

// Surfaces lists every surface in the order lint and docs present them.
var Surfaces = []Surface{SurfaceReplica, SurfaceTCP, SurfaceFleet}

// Family is one declared metric family.
type Family struct {
	Name string
	Help string
	// Type is the exposition TYPE: counter, gauge or histogram.
	Type string
	// Labels are the series' label names in exposition order (le aside).
	Labels []string
	// Surface is the exposition that must carry the family; empty when
	// no deployment shape guarantees it.
	Surface Surface
}

var families []*Family

func declare(surface Surface, typ, name, help string, labels ...string) *Family {
	f := &Family{Name: name, Help: help, Type: typ, Labels: labels, Surface: surface}
	families = append(families, f)
	return f
}

// Families returns every declared family in exposition order.
func Families() []*Family { return slices.Clone(families) }

// RequiredFamilies expands a lint require list: a surface name stands
// for every family declared on that surface, anything else names one
// family. Items are trimmed and empty ones skipped.
func RequiredFamilies(items ...string) []string {
	var out []string
	for _, item := range items {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		if !slices.Contains(Surfaces, Surface(item)) {
			out = append(out, item)
			continue
		}
		for _, f := range families {
			if f.Surface == Surface(item) {
				out = append(out, f.Name)
			}
		}
	}
	return out
}

// Process and Go runtime self-telemetry (prom.go, runtime.go).
var (
	FamBuildInfo    = declare(SurfaceReplica, "gauge", "polygraph_build_info", "Build metadata; value is always 1.", "go_version", "revision")
	FamProcessStart = declare(SurfaceReplica, "gauge", "polygraph_process_start_timestamp_seconds", "Unix time the process started.")
	FamUptime       = declare(SurfaceReplica, "gauge", "polygraph_uptime_seconds", "Seconds since the process started.")
	FamGoroutines   = declare(SurfaceReplica, "gauge", "polygraph_go_goroutines", "Live goroutine count.")
	FamHeapLive     = declare(SurfaceReplica, "gauge", "polygraph_go_heap_live_bytes", "Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects).")
	FamHeapGoal     = declare(SurfaceReplica, "gauge", "polygraph_go_heap_goal_bytes", "Heap size the GC is pacing toward (runtime/metrics /gc/heap/goal).")
	FamGCCycles     = declare(SurfaceReplica, "counter", "polygraph_go_gc_cycles_total", "Completed GC cycles since process start.")
	FamGCPause      = declare(SurfaceReplica, "histogram", "polygraph_go_gc_pause_seconds", "Distribution of stop-the-world GC pause latencies; sum approximated from bucket midpoints.")
	FamSchedLatency = declare(SurfaceReplica, "histogram", "polygraph_go_sched_latency_seconds", "Distribution of goroutine scheduling latencies; sum approximated from bucket midpoints.")
)

// Ingest, scoring and the deployed model (collect/metrics.go).
var (
	FamCollections    = declare(SurfaceReplica, "counter", "polygraph_collections_total", "Fingerprint payloads scored.")
	FamFlagged        = declare(SurfaceReplica, "counter", "polygraph_flagged_total", "Sessions flagged as suspicious.")
	FamRejected       = declare(SurfaceReplica, "counter", "polygraph_rejected_total", "Rejected requests by cause.", "reason")
	FamScoreDuration  = declare(SurfaceReplica, "histogram", "polygraph_score_duration_microseconds", "Request-handling latency of scored requests per endpoint, in microseconds.", "endpoint")
	FamModelClusters  = declare(SurfaceReplica, "gauge", "polygraph_model_clusters", "Clusters in the deployed model.")
	FamModelAccuracy  = declare(SurfaceReplica, "gauge", "polygraph_model_accuracy", "Training accuracy of the deployed model.")
	FamModelTrainedAt = declare(SurfaceReplica, "gauge", "polygraph_model_trained_timestamp_seconds", "When the deployed model was trained (unix seconds; 0 = unknown).")
)

// The framed TCP listener (collect/metrics.go).
var (
	FamTCPScored        = declare(SurfaceTCP, "counter", "polygraph_tcp_scored_total", "Payload frames scored over the TCP batch listener.")
	FamTCPFlagged       = declare(SurfaceTCP, "counter", "polygraph_tcp_flagged_total", "TCP-scored frames whose verdict was flagged.")
	FamTCPBadHandshakes = declare(SurfaceTCP, "counter", "polygraph_tcp_bad_handshakes_total", "TCP connections dropped before or at the hello handshake.")
	FamTCPBadFrames     = declare(SurfaceTCP, "counter", "polygraph_tcp_bad_frames_total", "TCP frames rejected after the handshake and answered with the error flag.")
	FamTCPBatchSize     = declare(SurfaceTCP, "histogram", "polygraph_tcp_batch_size", "Coalesced TCP batch sizes in frames (recorded on the microsecond scale).", "endpoint")
)

// The audit ledger and the segment flusher under it (collect/metrics.go);
// log="audit" is the one log. Present, as zeros, without a ledger.
var (
	FamAuditRecords  = declare(SurfaceReplica, "counter", "polygraph_audit_records_total", "Decisions durably recorded in the audit ledger.")
	FamAuditDropped  = declare(SurfaceReplica, "counter", "polygraph_audit_dropped_total", "Decisions not recorded: benign sampling plus append failures.")
	FamAuditBytes    = declare(SurfaceReplica, "counter", "polygraph_audit_bytes_total", "Framed bytes appended to the audit ledger.")
	FamFlushDuration = declare(SurfaceReplica, "histogram", "polygraph_segment_flush_duration_microseconds", "Duration of each write(2) the segment flusher performed.", "log")
	FamFlushWaits    = declare(SurfaceReplica, "counter", "polygraph_segment_flush_waits_total", "Appends that found both segment buffers full and waited for the flusher.", "log")
)

// Live drift (drift.go); polygraph_feature_psi appears after the first
// evaluation against a baseline.
var (
	FamDriftEvaluations = declare(SurfaceReplica, "counter", "polygraph_drift_evaluations_total", "Completed PSI evaluations of live traffic vs the training baseline.")
	FamDriftReservoir   = declare(SurfaceReplica, "gauge", "polygraph_drift_reservoir_size", "Feature vectors currently held in the drift reservoir.")
	FamDriftObserved    = declare(SurfaceReplica, "counter", "polygraph_drift_observed_total", "Accepted feature vectors offered to the drift reservoir.")
	FamDriftAlert       = declare(SurfaceReplica, "gauge", "polygraph_drift_alert", "1 when the last evaluation found a feature above the PSI alert threshold.")
	FamDriftBaselineAt  = declare(SurfaceReplica, "gauge", "polygraph_drift_baseline_timestamp_seconds", "Unix time the current drift baseline was installed (0 while unset).")
	FamFeaturePSI       = declare(SurfaceReplica, "gauge", "polygraph_feature_psi", "Population Stability Index of each feature, live traffic vs training baseline.", "feature")
)

// SLOFamilies are the five families one burn-rate engine exports
// (slo/engine.go). A replica's engine and the fleet rollup export the
// same shapes under two names, so a dump holding both has no duplicate.
type SLOFamilies struct {
	Target, SLI, BudgetRemaining, BurnRate, Alert *Family
}

const (
	helpSLOTarget   = "Declared objective target ratio."
	helpSLOSLI      = "Measured service-level indicator over the rolling compliance window."
	helpSLOBudget   = "Fraction of the compliance window's error budget left (negative = overspent)."
	helpSLOBurnRate = "Error-budget burn rate per evaluation window (1 = sustainable pace)."
	helpSLOAlert    = "1 while a multi-window burn-rate alert is firing for the objective."
)

// ReplicaSLO is a replica's own engine.
var ReplicaSLO = SLOFamilies{
	Target:          declare(SurfaceReplica, "gauge", "polygraph_slo_target", helpSLOTarget, "objective"),
	SLI:             declare(SurfaceReplica, "gauge", "polygraph_slo_sli", helpSLOSLI, "objective"),
	BudgetRemaining: declare(SurfaceReplica, "gauge", "polygraph_slo_error_budget_remaining", helpSLOBudget, "objective"),
	BurnRate:        declare(SurfaceReplica, "gauge", "polygraph_slo_burn_rate", helpSLOBurnRate, "objective", "window"),
	Alert:           declare(SurfaceReplica, "gauge", "polygraph_slo_alert", helpSLOAlert, "objective"),
}

// The balancer's health table (fleet/metrics.go).
var (
	FamFleetReplicas     = declare(SurfaceFleet, "gauge", "polygraph_fleet_replicas", "Registered replicas by admission state.", "state")
	FamFleetEjections    = declare(SurfaceFleet, "counter", "polygraph_fleet_ejections_total", "Replicas ejected from rotation (transport failures, probe failures, hash drift).")
	FamFleetReadmissions = declare(SurfaceFleet, "counter", "polygraph_fleet_readmissions_total", "Ejected replicas re-admitted after consecutive healthy probes with hash agreement.")
	FamFleetRetries      = declare(SurfaceFleet, "counter", "polygraph_fleet_retries_total", "Requests transparently re-routed to another replica after a transport failure.")
	FamFleetReplicaInfo  = declare(SurfaceFleet, "gauge", "polygraph_fleet_replica_info", "Per-replica deployed model hash and admission state; value is always 1.", "replica", "model_hash", "state")
)

// FleetSLO is the balancer's rollup over every replica's counters.
var FleetSLO = SLOFamilies{
	Target:          declare(SurfaceFleet, "gauge", "polygraph_fleet_slo_target", helpSLOTarget, "objective"),
	SLI:             declare(SurfaceFleet, "gauge", "polygraph_fleet_slo_sli", helpSLOSLI, "objective"),
	BudgetRemaining: declare(SurfaceFleet, "gauge", "polygraph_fleet_slo_error_budget_remaining", helpSLOBudget, "objective"),
	BurnRate:        declare(SurfaceFleet, "gauge", "polygraph_fleet_slo_burn_rate", helpSLOBurnRate, "objective", "window"),
	Alert:           declare(SurfaceFleet, "gauge", "polygraph_fleet_slo_alert", helpSLOAlert, "objective"),
}
