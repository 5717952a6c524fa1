package fleet

import (
	"context"
	"fmt"
	"log/slog"

	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

// SLORollup aggregates per-replica SLIs into one fleet-level burn-rate
// engine: each Collect scrapes every registered member's /metrics
// exposition (through the Member override or HTTP), extracts the
// spec's good/total counters per replica, sums them, and feeds the sum
// to the engine as one tick. The fleet therefore burns budget on the
// union of replica traffic — a single bad replica moves the fleet SLI
// in proportion to its share of requests, which is the view a pager
// should alert on (per-replica engines still fire their own alerts).
//
// Unreachable members are skipped for that tick (their last-seen
// counters simply stop contributing; the engine clamps the resulting
// negative deltas to zero), so a killed replica degrades the rollup
// gracefully instead of wedging it.
type SLORollup struct {
	b      *Balancer
	eng    *slo.Engine
	logger *slog.Logger
}

// NewSLORollup builds the rollup engine over the balancer's members.
// intervalS is the tick cadence in seconds the burn windows assume
// (0 = 10); the caller owns the tick loop (Run or explicit Collect).
func NewSLORollup(b *Balancer, spec *slo.Spec, intervalS int, logger *slog.Logger) (*SLORollup, error) {
	if b == nil {
		return nil, fmt.Errorf("fleet: SLORollup needs a balancer")
	}
	eng, err := slo.NewEngine(slo.Config{
		Spec:      spec,
		IntervalS: intervalS,
		Scope:     "fleet",
		Logger:    logger,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: slo rollup: %w", err)
	}
	return &SLORollup{b: b, eng: eng, logger: logger}, nil
}

// Engine exposes the fleet-level burn-rate engine (status page, JSON).
func (r *SLORollup) Engine() *slo.Engine { return r.eng }

// Collect performs one rollup tick: scrape every member, sum the
// extracted counters, tick the engine. Returns the number of members
// scraped successfully; an error only when no member was reachable
// (the engine is still ticked so windows keep rolling).
func (r *SLORollup) Collect(ctx context.Context) (int, error) {
	spec := r.eng.Spec()
	sum := make([]slo.Counters, len(spec.Objectives))
	ok := 0
	for _, m := range r.b.Members() {
		text, err := m.FetchMetrics(ctx, r.b.Client())
		if err != nil {
			if r.logger != nil {
				r.logger.Debug("slo rollup: member scrape failed", "replica", m.Name, "err", err.Error())
			}
			continue
		}
		sum = slo.SumCounters(sum, spec.Extract(obs.ParseExpositionString(text)))
		ok++
	}
	r.eng.TickCounters(sum)
	if ok == 0 {
		return 0, fmt.Errorf("fleet: slo rollup: no member reachable")
	}
	return ok, nil
}

// AttachSLO includes a rollup's fleet-level families (obs.FleetSLO) in
// the balancer's WriteMetrics exposition — distinct from a replica's
// own (obs.ReplicaSLO) so a fleet dump that concatenates a replica
// exposition with the balancer's stays free of duplicate families.
func (b *Balancer) AttachSLO(r *SLORollup) { b.sloRollup.Store(r) }

// SLO returns the attached rollup (nil when none).
func (b *Balancer) SLO() *SLORollup { return b.sloRollup.Load() }
