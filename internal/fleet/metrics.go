package fleet

import (
	"io"

	"polygraph/internal/obs"
)

// WriteMetrics emits the fleet's Prometheus families from the balancer's
// health table. Emitted from the fleet operator's side (loadgen, ctl) —
// replicas do not know about each other, so fleet-level state can only
// be observed here.
//
// Families (all gated by polygraphctl lint -require in CI):
//
//	polygraph_fleet_replicas{state}            gauge, all four states always present
//	polygraph_fleet_ejections_total            counter
//	polygraph_fleet_readmissions_total         counter
//	polygraph_fleet_retries_total              counter
//	polygraph_fleet_replica_info{replica,model_hash,state}  info gauge, value 1
func (b *Balancer) WriteMetrics(w io.Writer) {
	counts := make(map[State]int, len(States))
	snap := b.Snapshot()
	for _, ms := range b.members {
		counts[ms.getState()]++
	}
	series := make([]obs.LabeledValue, 0, len(States))
	for _, s := range States {
		series = append(series, obs.LabeledValue{Label: s.String(), Value: float64(counts[s])})
	}
	obs.WriteLabeledFamily(w, "polygraph_fleet_replicas",
		"Registered replicas by admission state.", "gauge", "state", series)
	obs.WriteMetric(w, "polygraph_fleet_ejections_total",
		"Replicas ejected from rotation (transport failures, probe failures, hash drift).",
		"counter", float64(b.ejections.Load()))
	obs.WriteMetric(w, "polygraph_fleet_readmissions_total",
		"Ejected replicas re-admitted after consecutive healthy probes with hash agreement.",
		"counter", float64(b.readmissions.Load()))
	obs.WriteMetric(w, "polygraph_fleet_retries_total",
		"Requests transparently re-routed to another replica after a transport failure.",
		"counter", float64(b.retries.Load()))

	info := make([]obs.MultiSeries, 0, len(snap))
	for _, st := range snap {
		hash := st.ModelHash
		if hash == "" {
			hash = "unknown"
		}
		info = append(info, obs.MultiSeries{
			Labels: []obs.Label{
				{Name: "replica", Value: st.Name},
				{Name: "model_hash", Value: hash},
				{Name: "state", Value: st.State},
			},
			Value: 1,
		})
	}
	obs.WriteMultiFamily(w, "polygraph_fleet_replica_info",
		"Per-replica deployed model hash and admission state; value is always 1.",
		"gauge", info)

	// Fleet-level SLO families when a rollup is attached, under the
	// polygraph_fleet_slo_* prefix so a dump that concatenates a replica
	// exposition with this one has no duplicate families.
	b.writeSLOMetrics(w)
}
