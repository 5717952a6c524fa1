package collect

import (
	"io"
	"net/http"
	"strings"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/obs"
	"polygraph/internal/seglog"
)

// Prometheus text-exposition metrics for the scoring service, composed
// from the families internal/obs declares. Stdlib only: the format is plain text,
// and every value already lives on an atomic counter or histogram.
// Mounted at GET /metrics; obs.Lint checks the output in CI
// (polygraphctl lint) and in this package's tests.

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetricsTo(w)
}

// MetricsText renders the full exposition in-process — the SLO engine's
// scrape source and the serving replica's bundle capture both read the
// page without a loopback round trip.
func (s *Server) MetricsText() string {
	var b strings.Builder
	s.writeMetricsTo(&b)
	return b.String()
}

func (s *Server) writeMetricsTo(w io.Writer) {
	received, flagged := s.snapshot()
	obs.WriteBuildInfo(w)
	obs.WriteRuntimeMetrics(w)
	obs.FamCollections.Write(w, float64(received))
	obs.FamFlagged.Write(w, float64(flagged))

	// Rejects broken out by cause. Every reason is always present
	// (zeros included) so rate() works from the first scrape; the sum
	// across reasons is the legacy total.
	reasons := make([]obs.LabeledValue, numReasons)
	for i := range reasons {
		reasons[i] = obs.LabeledValue{Label: reasonNames[i], Value: float64(s.rejects[i].Load())}
	}
	obs.FamRejected.WriteSeries(w, reasons)

	// Per-endpoint request-handling latency of scored requests, as a
	// real histogram family, each series summed over the shards.
	var series []obs.HistogramSeries
	shardHists := make([]*obs.Hist, len(s.shards))
	for route, rt := range ingestRoutes {
		for i := range s.shards {
			shardHists[i] = &s.shards[i].hists[route]
		}
		series = append(series, obs.HistogramSnapshot(rt.path, shardHists...))
	}
	if tcp := s.tcp.Load(); tcp != nil {
		series = append(series, obs.HistogramSnapshot(EndpointTCP, &tcp.hist))
	}
	obs.FamScoreDuration.WriteHistogram(w, series)

	model := s.model.load()
	obs.FamModelClusters.Write(w, float64(model.KMeans.K))
	obs.FamModelAccuracy.Write(w, model.Accuracy)
	trainedAt := 0.0
	if t := s.ModelTrainedAt(); !t.IsZero() {
		trainedAt = float64(t.UnixNano()) / float64(time.Second)
	}
	obs.FamModelTrainedAt.Write(w, trainedAt)

	if tcp := s.tcp.Load(); tcp != nil {
		obs.FamTCPScored.Write(w, float64(tcp.scored.Load()))
		obs.FamTCPFlagged.Write(w, float64(tcp.flagged.Load()))
		obs.FamTCPBadHandshakes.Write(w, float64(tcp.badConn.Load()))
		obs.FamTCPBadFrames.Write(w, float64(tcp.badFrames.Load()))
		// Batch sizes ride the microsecond histogram scale: le=N reads
		// as a batch of N frames and _sum is total coalesced frames.
		obs.FamTCPBatchSize.WriteHistogram(w, []obs.HistogramSeries{obs.HistogramSnapshot(EndpointTCP, &tcp.batchHist)})
	}

	// Audit-ledger families are always present (zeros when no ledger is
	// configured) so the replica surface holds for every deployment
	// shape. The TCP listener shares the HTTP server's ledger, so its
	// records are already in these counters.
	var ac audit.Counters
	if s.ledger != nil {
		ac = s.ledger.Counters()
	}
	obs.FamAuditRecords.Write(w, float64(ac.Records))
	obs.FamAuditDropped.Write(w, float64(ac.Dropped))
	obs.FamAuditBytes.Write(w, float64(ac.Bytes))

	// The ledger appends without waiting for the disk, so a slow disk
	// does not show in request latency; it shows here. The series is
	// always present, like the audit families above.
	flush := seglog.FlushMetrics{Durations: new(obs.Hist)}
	if s.ledger != nil {
		flush = s.ledger.FlushMetrics()
	}
	obs.FamFlushDuration.WriteHistogram(w, []obs.HistogramSeries{obs.HistogramSnapshot("audit", flush.Durations)})
	obs.FamFlushWaits.WriteSeries(w, []obs.LabeledValue{{Label: "audit", Value: float64(flush.Waits)}})

	if s.drift != nil {
		s.drift.WriteMetrics(w)
	}

	// The SLO engine's families ride the same scrape when one is
	// attached. The engine snapshots this exposition on its own tick;
	// these gauges reflect the last completed evaluation, so including
	// them here cannot recurse.
	if e := s.slo.Load(); e != nil {
		e.WriteMetrics(w)
	}
}
