// Package polygraph is a from-scratch Go implementation of Browser
// Polygraph (Kalantari et al., IMC 2024): web-scale detection of "fraud
// browsers" — anti-detect browsers replaying stolen victim profiles —
// using coarse-grained, privacy-preserving browser fingerprints.
//
// The package re-exports the supported public surface of the internal
// packages so downstream users import one path:
//
//	model, report, err := polygraph.Train(samples, polygraph.DefaultTrainConfig())
//	result, err := model.Score(featureVector, claimedRelease)
//	if result.Flagged() { /* feed result.RiskFactor to risk-based auth */ }
//
// Architecture (paper §5):
//
//	Candidate Fingerprint Generation  → fingerprint.Candidates513 over the browser oracle
//	Real-World Data Collection        → dataset.Generate / collect.Server
//	Data Pre-Processing               → scaling + Isolation Forest inside Train
//	Training                          → PCA(7) + k-means(11) inside Train
//	Fraud Detection                   → Model.Score (Algorithm 1 risk factor)
//	Drift Detection                   → drift.Detector
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package polygraph

import (
	"context"

	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/drift"
	"polygraph/internal/fingerprint"
	"polygraph/internal/pipeline"
	"polygraph/internal/riskauth"
	"polygraph/internal/ua"
)

// Core model types.
type (
	// Model is a trained Browser Polygraph detector.
	Model = core.Model
	// Sample is one training observation (feature vector + claimed UA).
	Sample = core.Sample
	// Result is a scoring outcome with the Algorithm 1 risk factor.
	Result = core.Result
	// TrainConfig tunes the §6.4 training pipeline.
	TrainConfig = core.TrainConfig
	// TrainReport carries training diagnostics (Figure 2 spectrum,
	// outlier counts, per-UA majorities, per-stage timings).
	TrainReport = core.TrainReport
	// StageTiming is one executed training stage: name, wall time, rows
	// in/out (TrainReport.Stages).
	StageTiming = pipeline.Timing
	// StageError attributes a training failure to the pipeline stage
	// that produced it (extract with errors.As).
	StageError = pipeline.StageError
	// Verdict is the replayable subset of a Result, as stamped into
	// audit-ledger records (Model.Explain, polygraphctl audit).
	Verdict = core.Verdict
	// Explanation decomposes one verdict: per-feature z-scores, top-k
	// PCA component shares, centroid distances, cluster-table outcome,
	// and the novelty-guard state.
	Explanation = core.Explanation
)

// The error taxonomy. Classify failures from Train/TrainContext and the
// scoring paths with errors.Is.
var (
	// ErrCanceled reports that a context was cancelled or timed out
	// before the operation finished.
	ErrCanceled = core.ErrCanceled
	// ErrBadInput reports invalid caller-supplied samples or config.
	ErrBadInput = core.ErrBadInput
	// ErrNotTrained reports scoring on a model that was never trained.
	ErrNotTrained = core.ErrNotTrained
)

// Identity types.
type (
	// Release is a browser vendor + major version ("Chrome 112").
	Release = ua.Release
	// Vendor is a browser family.
	Vendor = ua.Vendor
)

// Vendor constants.
const (
	Chrome  = ua.Chrome
	Firefox = ua.Firefox
	Edge    = ua.Edge
)

// Feature schema.
type Feature = fingerprint.Feature

// Payload is the ≤1 KB wire format clients post.
type Payload = fingerprint.Payload

// Deployment types.
type (
	// Server is the collection + real-time scoring HTTP service.
	Server = collect.Server
	// ServerConfig configures it.
	ServerConfig = collect.Config
	// Client submits payloads to a Server.
	Client = collect.Client
	// Decision is the service's scoring response.
	Decision = collect.Decision
)

// Drift detection.
type (
	// DriftDetector evaluates new releases against a deployed model.
	DriftDetector = drift.Detector
	// DriftEvaluation is one Table 6 row.
	DriftEvaluation = drift.Evaluation
)

// Risk-based authentication integration (§4: the defense this detector
// feeds).
type (
	// RiskPolicy maps polygraph results + session signals to access
	// decisions.
	RiskPolicy = riskauth.Policy
	// RiskSignals are the per-session decision inputs.
	RiskSignals = riskauth.Signals
	// RiskDecision is the access outcome with its audit trail.
	RiskDecision = riskauth.Decision
)

// Access actions.
const (
	Allow  = riskauth.Allow
	StepUp = riskauth.StepUp
	Deny   = riskauth.Deny
)

// DefaultRiskPolicy returns the reference policy: polygraph findings
// drive the decision; tags tip borderline cases.
func DefaultRiskPolicy() RiskPolicy { return riskauth.DefaultPolicy() }

// Traffic simulation (the FinOrg substitute).
type (
	// TrafficConfig parameterizes the synthetic FinOrg traffic.
	TrafficConfig = dataset.Config
	// Traffic is a generated session collection.
	Traffic = dataset.Dataset
)

// Train fits a Browser Polygraph model (§6.4: scale → outlier filter →
// PCA → k-means → cluster/user-agent table).
func Train(samples []Sample, cfg TrainConfig) (*Model, *TrainReport, error) {
	return core.Train(samples, cfg)
}

// TrainContext is Train under a context: cancellation aborts the
// pipeline within one pass over the rows with an error matching
// errors.Is(err, ErrCanceled), and TrainReport.Stages records per-stage
// wall times and row counts.
func TrainContext(ctx context.Context, samples []Sample, cfg TrainConfig) (*Model, *TrainReport, error) {
	return core.TrainContext(ctx, samples, cfg)
}

// DefaultTrainConfig returns the paper's production configuration
// (28 features, 7 PCA components, k = 11).
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// LoadModel reads a model saved with Model.Save.
var LoadModel = core.Load

// Table8Features returns the canonical 28-feature set the production
// model uses (paper Table 8).
func Table8Features() []Feature { return fingerprint.Table8() }

// ParseUserAgent extracts the claimed release from a user-agent string.
var ParseUserAgent = ua.Parse

// GenerateTraffic builds synthetic FinOrg-like traffic (see DESIGN.md for
// the substitution rationale).
var GenerateTraffic = dataset.Generate

// DefaultTrafficConfig reproduces the paper's 205k-session training
// collection.
func DefaultTrafficConfig() TrafficConfig { return dataset.DefaultConfig() }

// NewServer builds the collection/scoring HTTP service.
var NewServer = collect.NewServer

// NewClient builds a client for a collection server.
var NewClient = collect.NewClient

// VerdictOf converts a scoring Result into its replayable ledger form.
var VerdictOf = core.VerdictOf
