package experiments

import (
	"fmt"

	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/drift"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// This file implements the paper's §8 discussion items as runnable
// experiments: the retraining loop the drift detector feeds, the
// stratified-sampling scaling strategy, and the user-agent-randomization
// false-positive analysis.

// RetrainResult records a full drift→retrain cycle.
type RetrainResult struct {
	// RetrainDate is when the calendar signaled drift.
	RetrainDate string
	// OldAccuracy is the deployed model's Formula 1 accuracy on the
	// drift-window traffic (including the new releases).
	OldAccuracy float64
	// NewAccuracy is the retrained model's training accuracy on the
	// combined corpus.
	NewAccuracy float64
	// Firefox119Recovered reports whether the retrained model assigns
	// Firefox 119 a stable cluster of its own table (i.e. its sessions
	// agree with its table entry again).
	Firefox119Recovered bool
}

// RetrainAfterDrift closes the loop §6.6 describes: when the calendar
// signals drift, retrain on the recent window and verify the new model
// accommodates the shifted release.
func (e *Env) RetrainAfterDrift() (*RetrainResult, error) {
	driftData, err := DriftTraffic(0)
	if err != nil {
		return nil, err
	}
	det := &drift.Detector{Model: e.Model}
	rep, err := det.RunCalendar(drift.Calendar2023(), driftSource{data: driftData})
	if err != nil {
		return nil, err
	}
	res := &RetrainResult{RetrainDate: rep.RetrainDate}
	if rep.RetrainDate == "" {
		return res, nil
	}

	// Old model's health on the drift window.
	res.OldAccuracy, err = e.Model.EvaluateAccuracy(driftData.Samples())
	if err != nil {
		return nil, err
	}

	// Retrain on the recent window (production would mix windows; the
	// drift window alone is the minimal demonstration).
	cfg := core.DefaultTrainConfig()
	cfg.Reference = core.ExtractorReference{Extractor: driftData.Extractor, OS: ua.Windows10}
	newModel, _, err := core.Train(driftData.Samples(), cfg)
	if err != nil {
		return nil, err
	}
	res.NewAccuracy = newModel.Accuracy

	// Firefox 119 must be consistent under the new model: its sessions
	// land in the cluster its table entry names.
	ff119 := ua.Release{Vendor: ua.Firefox, Version: 119}
	want, ok := newModel.UACluster[ff119]
	if ok {
		good, total := 0, 0
		for _, s := range driftData.SessionsForRelease(ff119) {
			c, err := newModel.PredictCluster(s.Vector)
			if err != nil {
				return nil, err
			}
			total++
			if c == want {
				good++
			}
		}
		res.Firefox119Recovered = total > 0 && float64(good)/float64(total) >= 0.98
	}
	return res, nil
}

// StratifiedResult compares full-corpus training with stratified-sample
// training (§8, "Scale of the database").
type StratifiedResult struct {
	FullRows, SampledRows         int
	FullAccuracy, SampledAccuracy float64
	// TableAgreement is the fraction of user-agents whose cluster
	// assignment matches between the two models, up to cluster
	// relabeling (measured by co-assignment agreement over UA pairs).
	TableAgreement float64
}

// StratifiedSampling trains on a per-UA-capped sample and checks the
// cluster structure survives.
func (e *Env) StratifiedSampling(perUACap int) (*StratifiedResult, error) {
	full := e.Traffic.Samples()
	sampled := dataset.StratifiedSample(full, perUACap, 99)
	cfg := core.DefaultTrainConfig()
	cfg.Reference = core.ExtractorReference{Extractor: e.Traffic.Extractor, OS: ua.Windows10}
	// The Isolation Forest contamination is a fraction; it transfers.
	m, _, err := core.Train(sampled, cfg)
	if err != nil {
		return nil, err
	}
	res := &StratifiedResult{
		FullRows:        len(full),
		SampledRows:     len(sampled),
		FullAccuracy:    e.Model.Accuracy,
		SampledAccuracy: m.Accuracy,
	}

	// Co-assignment agreement: for user-agent pairs known to both
	// models, do they agree on same-cluster vs different-cluster?
	shared := make([]ua.Release, 0, len(e.Model.UACluster))
	for rel := range e.Model.UACluster {
		if _, ok := m.UACluster[rel]; ok {
			shared = append(shared, rel)
		}
	}
	agree, total := 0, 0
	for i := 0; i < len(shared); i++ {
		for j := i + 1; j < len(shared); j++ {
			a, b := shared[i], shared[j]
			sameFull := e.Model.UACluster[a] == e.Model.UACluster[b]
			sameSampled := m.UACluster[a] == m.UACluster[b]
			total++
			if sameFull == sameSampled {
				agree++
			}
		}
	}
	if total > 0 {
		res.TableAgreement = float64(agree) / float64(total)
	}
	return res, nil
}

// UARandomizationResult measures §8's warning about user-agent
// randomization: honest browsers that randomize their user-agent light
// up as false positives.
type UARandomizationResult struct {
	Sessions     int
	FlaggedPlain int // flagged among unmodified honest sessions
	FlaggedRand  int // flagged after randomizing their claimed UA
}

// UARandomization rescoring experiment: take honest sessions, replace
// the claimed user-agent with a random release, and count flags.
func (e *Env) UARandomization(n int) (*UARandomizationResult, error) {
	if n <= 0 || n > len(e.Traffic.Sessions) {
		n = len(e.Traffic.Sessions)
	}
	gen := rng.New(4242)
	universe := ua.Universe(114)
	res := &UARandomizationResult{}
	for _, s := range e.Traffic.Sessions[:n] {
		if s.Fraud {
			continue
		}
		res.Sessions++
		plain, err := e.Model.ScoreString(s.Vector, s.UAString)
		if err != nil {
			return nil, err
		}
		if plain.Flagged() {
			res.FlaggedPlain++
		}
		randomUA := universe[gen.Intn(len(universe))]
		randomized, err := e.Model.ScoreString(s.Vector, ua.UserAgent(randomUA, ua.Windows10))
		if err != nil {
			return nil, err
		}
		if randomized.Flagged() {
			res.FlaggedRand++
		}
	}
	return res, nil
}

// RenderExtensions prints the §8 experiment results.
func RenderExtensions(wr interface{ Write(p []byte) (int, error) }, rr *RetrainResult, sr *StratifiedResult, ur *UARandomizationResult) {
	fmt.Fprintf(wr, "\nExtensions (paper §8)\n---------------------\n")
	if rr != nil {
		fmt.Fprintf(wr, "retrain-after-drift: signal %s, old acc %.2f%%, retrained acc %.2f%%, Firefox 119 recovered: %v\n",
			rr.RetrainDate, 100*rr.OldAccuracy, 100*rr.NewAccuracy, rr.Firefox119Recovered)
	}
	if sr != nil {
		fmt.Fprintf(wr, "stratified sampling: %d → %d rows, acc %.2f%% → %.2f%%, table agreement %.2f%%\n",
			sr.FullRows, sr.SampledRows, 100*sr.FullAccuracy, 100*sr.SampledAccuracy, 100*sr.TableAgreement)
	}
	if ur != nil {
		fmt.Fprintf(wr, "UA randomization: %d honest sessions, %d flagged plain vs %d flagged randomized\n",
			ur.Sessions, ur.FlaggedPlain, ur.FlaggedRand)
	}
}

// RenderNoveltyGuard prints the guard analysis.
func RenderNoveltyGuard(wr interface{ Write(p []byte) (int, error) }, ng *NoveltyGuardResult) {
	if ng == nil {
		return
	}
	fmt.Fprintf(wr, "novelty guard (cluster-consistent alien surfaces, by perturbation severity):\n")
	for _, row := range ng.Severities {
		fmt.Fprintf(wr, "  severity %-3d attempts %-3d caught without guard %-3d with guard %-3d\n",
			row.Severity, row.Attempts, row.CaughtWithoutGuard, row.CaughtWithGuard)
	}
	fmt.Fprintf(wr, "  honest flags added by guard: %d\n", ng.HonestFlagsAdded)
}

// NoveltyGuardResult measures this reproduction's novelty-guard
// extension against graded alien surfaces: spoofing engines whose
// fingerprints deviate from a genuine release by increasing amounts, each
// probe claiming a user-agent from its own landing cluster — the pure
// cluster check's blind spot. Severity 0 is an honest control.
type NoveltyGuardResult struct {
	Severities []NoveltySeverityRow
	// HonestFlagsAdded counts additional honest-session flags the guard
	// introduces over the whole traffic (should be ~0).
	HonestFlagsAdded int
}

// NoveltySeverityRow reports one perturbation grade.
type NoveltySeverityRow struct {
	// Severity is the per-prototype perturbation magnitude (raw counts).
	Severity int
	Attempts int
	// CaughtWithoutGuard / CaughtWithGuard count flags under each model.
	CaughtWithoutGuard int
	CaughtWithGuard    int
}

// gradedQuirk perturbs every deviation-feature prototype by ±severity,
// deterministically per probe index — a synthetic spoofing engine whose
// distance from any genuine surface is controlled.
type gradedQuirk struct {
	severity int
	seed     string
}

func (q *gradedQuirk) Name() string { return "graded-quirk" }

func (q *gradedQuirk) AdjustCount(proto string, count int) int {
	if q.severity == 0 {
		return count
	}
	g := rng.NewString(q.seed + ":" + proto)
	delta := g.IntRange(-q.severity, q.severity)
	count += delta
	if count < 0 {
		count = 0
	}
	return count
}

func (q *gradedQuirk) AdjustBool(proto, prop string, val bool) bool { return val }

// NoveltyGuard trains a guard-enabled twin of the environment's model and
// probes it with graded alien surfaces claiming their own landing
// cluster's user-agents.
func (e *Env) NoveltyGuard() (*NoveltyGuardResult, error) {
	cfg := core.DefaultTrainConfig()
	cfg.NoveltyGuard = true
	cfg.Reference = core.ExtractorReference{Extractor: e.Traffic.Extractor, OS: ua.Windows10}
	guarded, _, err := core.Train(e.Traffic.Samples(), cfg)
	if err != nil {
		return nil, err
	}

	bases := []ua.Release{
		{Vendor: ua.Chrome, Version: 112}, {Vendor: ua.Chrome, Version: 95},
		{Vendor: ua.Firefox, Version: 110}, {Vendor: ua.Edge, Version: 105},
	}
	res := &NoveltyGuardResult{}
	gen := rng.New(31337)
	for _, severity := range []int{0, 8, 20, 40} {
		row := NoveltySeverityRow{Severity: severity}
		for pi := 0; pi < 24; pi++ {
			base := bases[pi%len(bases)]
			profile := browser.Profile{Release: base, OS: ua.Windows10}
			if severity > 0 {
				profile.Mods = []browser.Modifier{
					&gradedQuirk{severity: severity, seed: fmt.Sprintf("ng:%d:%d", severity, pi)},
				}
			}
			vec := e.Traffic.Extractor.Extract(profile)
			cluster, err := e.Model.PredictCluster(vec)
			if err != nil {
				return nil, err
			}
			members := e.Model.ClusterUAs[cluster]
			if len(members) == 0 {
				continue // landed in a noise cluster: caught either way
			}
			claim := members[gen.Intn(len(members))]
			row.Attempts++
			claimUA := ua.UserAgent(claim, ua.Windows10)
			plain, err := e.Model.ScoreString(vec, claimUA)
			if err != nil {
				return nil, err
			}
			if plain.Flagged() {
				row.CaughtWithoutGuard++
			}
			withGuard, err := guarded.ScoreString(vec, claimUA)
			if err != nil {
				return nil, err
			}
			if withGuard.Flagged() {
				row.CaughtWithGuard++
			}
		}
		res.Severities = append(res.Severities, row)
	}

	// Honest-traffic cost of the guard.
	for _, s := range e.Traffic.Sessions {
		if s.Fraud {
			continue
		}
		a, err := e.Model.ScoreString(s.Vector, s.UAString)
		if err != nil {
			return nil, err
		}
		b, err := guarded.ScoreString(s.Vector, s.UAString)
		if err != nil {
			return nil, err
		}
		if b.Flagged() && !a.Flagged() {
			res.HonestFlagsAdded++
		}
	}
	return res, nil
}
