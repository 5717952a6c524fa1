// Package obs is the stdlib-only observability layer for the serving
// and training stack: request-scoped traces with deterministic IDs, in
// storage the caller owns, and a ring of trace copies split per core
// (trace.go, ring.go, shard.go),
// power-of-two-bucket latency histograms shared with the loadgen
// harness (hist.go), Prometheus text-exposition writers and a format
// linter (prom.go, lint.go), live feature-drift telemetry over
// internal/drift's PSI (drift.go), and a structured-logging constructor
// (below).
//
// The paper's deployment argument (§7) is that coarse-grained
// fingerprints are cheap enough to score inline on every login — which
// makes the per-request latency distribution, rejection causes, and
// model staleness the operational signals that decide whether the
// system is deployable at all. This package turns the daemon from a
// black box into something you can operate: the collect server threads
// a Tracer and per-endpoint Hists through its handlers, polygraphd
// runs a DriftMonitor against accepted traffic, and everything exports
// through /metrics in a form the linter can gate in CI.
//
// Determinism contract: nothing here perturbs scores or ledgers. Trace
// IDs are PCG-seeded and sequence-derived (fixed seed → fixed IDs),
// histograms observe latencies without touching the request path's
// data, and the drift reservoir samples with its own PCG stream.
package obs

import (
	"context"
	"io"
	"log/slog"
)

// TraceIDKey is the attribute key under which every slog record emitted
// by this package carries the request's trace ID.
const TraceIDKey = "trace_id"

// NewLogger builds the daemon's structured logger: text handler by
// default (human-readable operator output), JSON when jsonFormat is set
// (log shippers). A nil writer discards.
func NewLogger(w io.Writer, jsonFormat bool) *slog.Logger {
	if w == nil {
		return slog.New(discardHandler{})
	}
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// discardHandler drops every record (slog.DiscardHandler arrives only
// in Go 1.24; the module supports 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
