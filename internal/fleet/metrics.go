package fleet

import (
	"io"

	"polygraph/internal/obs"
)

// WriteMetrics emits the fleet's Prometheus families (obs.SurfaceFleet)
// from the balancer's health table. Emitted from the fleet operator's
// side (loadgen, ctl) — replicas do not know about each other, so
// fleet-level state can only be observed here.
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
	obs.FamFleetReplicas.WriteSeries(w, series)
	obs.FamFleetEjections.Write(w, float64(b.ejections.Load()))
	obs.FamFleetReadmissions.Write(w, float64(b.readmissions.Load()))
	obs.FamFleetRetries.Write(w, float64(b.retries.Load()))

	info := make([]obs.MultiSeries, 0, len(snap))
	for _, st := range snap {
		hash := st.ModelHash
		if hash == "" {
			hash = "unknown"
		}
		info = append(info, obs.MultiSeries{Values: []string{st.Name, hash, st.State}, Value: 1})
	}
	obs.FamFleetReplicaInfo.WriteMulti(w, info)

	if r := b.sloRollup.Load(); r != nil {
		r.eng.WriteMetricsAs(w, obs.FleetSLO)
	}
}
