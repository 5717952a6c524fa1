package collect

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"

	"polygraph/internal/audit"
)

// handleDecisions serves the ledger's recent-record ring as JSON:
// GET /debug/decisions?n=50&verdict=flagged|benign&trace=<id>. Each
// record's explanation is derived here, from the model archive; one that
// cannot be is served without and logged.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if !s.ledgerConfigured(w) {
		return
	}
	q := r.URL.Query()
	n := 50
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			s.reject(w, nil, http.StatusBadRequest, reasonBadRequest, "bad n %q", v)
			return
		}
		n = parsed
	}
	verdict := q.Get("verdict")
	switch verdict {
	case "", "flagged", "benign":
	default:
		s.reject(w, nil, http.StatusBadRequest, reasonBadRequest, "bad verdict %q (want flagged or benign)", verdict)
		return
	}
	recent := s.ledger.Recent(n, verdict, q.Get("trace"))
	for i := range recent {
		if err := s.ledger.Explain(&recent[i]); err != nil {
			s.logWarn(nil, "collect: explain audit record failed", "err", err.Error())
		}
	}
	s.serveRecords(w, recent, "decisions")
}

// handleFlagged serves the fraud team's live queue: the flagged records
// in the ledger's recent ring, as Append wrote them, filtered by
// ?min_risk=N, riskiest first and newest first within a risk factor.
// Every flagged verdict is admitted to the ledger, so the durable queue
// is the ledger itself (polygraphctl audit ls -verdict flagged).
func (s *Server) handleFlagged(w http.ResponseWriter, r *http.Request) {
	if !s.ledgerConfigured(w) {
		return
	}
	minRisk := 0
	if v := r.URL.Query().Get("min_risk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.reject(w, nil, http.StatusBadRequest, reasonBadRequest, "bad min_risk %q", v)
			return
		}
		minRisk = n
	}
	recent := s.ledger.Recent(math.MaxInt, "flagged", "")
	queue := recent[:0]
	for _, rec := range recent {
		if rec.Verdict.RiskFactor >= minRisk {
			queue = append(queue, rec)
		}
	}
	slices.SortStableFunc(queue, func(a, b audit.Record) int { return b.Verdict.RiskFactor - a.Verdict.RiskFactor })
	s.serveRecords(w, queue, "flagged")
}

// ledgerConfigured reports whether the server has an audit ledger, and
// answers 404 when it has not: the record endpoints read its ring.
func (s *Server) ledgerConfigured(w http.ResponseWriter) bool {
	if s.ledger == nil {
		http.Error(w, "audit ledger not configured", http.StatusNotFound)
	}
	return s.ledger != nil
}

// serveRecords answers records read off the ledger's ring as a JSON
// array.
func (s *Server) serveRecords(w http.ResponseWriter, recs []audit.Record, what string) {
	if recs == nil {
		recs = []audit.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(recs); err != nil {
		s.logWarn(nil, "collect: encode "+what+" failed", "err", err.Error())
	}
}

// handleDebugIndex is a plain-HTML map of the operator endpoints, so
// nothing needs the README to be discoverable. pprof and expvar live on
// polygraphd's separate -debug-addr listener; they are listed with that
// caveat.
func (s *Server) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/" && r.URL.Path != "/debug" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(`<!DOCTYPE html>
<html><head><title>polygraph debug</title></head><body>
<h1>polygraph debug index</h1>
<ul>
<li><a href="/debug/traces">/debug/traces</a> — recent request traces (?n=, ?slowest=)</li>
<li><a href="/debug/decisions">/debug/decisions</a> — recent audited verdicts (?n=, ?verdict=flagged|benign, ?trace=&lt;id&gt;)</li>
<li><a href="/debug/bundle">/debug/bundle</a> — download a support bundle (?pprof_seconds=, ?no-redact=1; serving-replica runtime)</li>
<li><a href="/debug/slo">/debug/slo</a> — SLO burn-rate status (404 until an engine is attached)</li>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/v1/flagged">/v1/flagged</a> — recent flagged verdicts from the audit ledger (?min_risk=)</li>
<li><a href="/admin/model/info">/admin/model/info</a> — deployed model provenance (serving-replica runtime)</li>
<li><a href="/healthz">/healthz</a> — liveness</li>
<li><a href="/debug/pprof/">/debug/pprof/</a>, <a href="/debug/vars">/debug/vars</a> — profiles and expvar (here with serving debug mode; otherwise on the polygraphd <code>-debug-addr</code> listener)</li>
</ul>
</body></html>
`))
}
