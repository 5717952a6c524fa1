package dataset

import (
	"fmt"

	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fraud"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// Tags are FinOrg's internal session annotations, used by the paper
// purely for evaluation (§7.1).
type Tags struct {
	UntrustedIP     bool
	UntrustedCookie bool
	ATO             bool
}

// Session is one logged-in user session as the collection tier sees it,
// plus the ground truth only the generator knows.
type Session struct {
	ID       [fingerprint.SessionIDSize]byte
	Day      int
	Claimed  ua.Release
	UAString string
	OS       ua.OS
	Vector   []float64
	Tags     Tags

	// Ground truth (not visible to the detector):
	Fraud     bool
	FraudTool string
	// ActualRelease is the engine that really produced the fingerprint.
	ActualRelease ua.Release
	// Modifier names the perturbation applied to a legitimate session
	// ("" for pristine sessions).
	Modifier string
}

// Config parameterizes traffic generation. Rates were calibrated so the
// trained detector reproduces the shape of the paper's Table 4 (see
// EXPERIMENTS.md).
type Config struct {
	Sessions int
	Seed     uint64
	Window   Window
	// MaxVersion caps the release universe (114 for the training
	// window; 119 for the drift window).
	MaxVersion int

	// FraudRate is the fraction of sessions driven by fraud browsers.
	FraudRate float64
	// Legitimate-traffic perturbation rates (§6.3 phenomena):
	FirefoxConfigRate float64 // about:config tweaks among Firefox users
	ChromeExtRate     float64 // surface-visible extensions among Chromium users
	BraveRate         float64 // Brave among claimed-Chrome sessions
	TorRate           float64 // Tor among claimed-Firefox sessions

	// Chrome119RolloutRate is the fraction of Chrome 119 sessions held
	// back on the previous platform surface by the staged rollout
	// (drives the Table 6 accuracy dip to the paper's ~97.2%).
	Chrome119RolloutRate float64

	// UpdateSkewRate is the fraction of legitimate sessions whose
	// user-agent has already moved to version N while the JavaScript
	// surface still reports version N-1 (mid-update restarts, partial
	// rollouts). These are the paper's benign flagged sessions: "lower
	// risk factors ... could result from update inconsistencies" (§7.1).
	UpdateSkewRate float64

	// Tag model: probabilities conditioned on session legitimacy.
	LegitIPRate, LegitCookieRate, LegitATORate float64
	FraudIPRate, FraudCookieRate               float64
	// FraudATOBase/Slope: P(ATO | fraud) = Base + Slope·min(mismatch,20)
	// where mismatch is the vendor/version distance between the claimed
	// user-agent and the actual engine — sloppier spoofs correlate with
	// real account takeover activity (§7.1 observes exactly this
	// gradient).
	FraudATOBase, FraudATOSlope float64
}

// DefaultConfig reproduces the paper's training collection: 205k sessions
// over 4.5 months, base tag rates from Table 4 row 1.
func DefaultConfig() Config {
	return Config{
		Sessions:   205000,
		Seed:       2023,
		Window:     TrainingWindow,
		MaxVersion: 114,

		FraudRate:         0.0032,
		FirefoxConfigRate: 0.012,
		ChromeExtRate:     0.030,
		BraveRate:         0.012,
		TorRate:           0.0012,

		Chrome119RolloutRate: 0.028,
		UpdateSkewRate:       0.006,

		LegitIPRate:     0.51,
		LegitCookieRate: 0.49,
		LegitATORate:    0.0042,
		FraudIPRate:     0.93,
		FraudCookieRate: 0.87,
		FraudATOBase:    0.012,
		FraudATOSlope:   0.0050,
	}
}

// Dataset is the generated traffic plus the machinery that produced it.
type Dataset struct {
	Sessions  []Session
	Extractor *fingerprint.Extractor
	Oracle    *browser.Oracle
	Config    Config
}

// Generate builds a dataset. The same Config always yields bit-identical
// traffic.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("dataset: Sessions = %d", cfg.Sessions)
	}
	if cfg.Window.EndDay <= cfg.Window.StartDay {
		return nil, fmt.Errorf("dataset: empty window [%d,%d)", cfg.Window.StartDay, cfg.Window.EndDay)
	}
	if cfg.MaxVersion < 59 {
		return nil, fmt.Errorf("dataset: MaxVersion %d below modeled floor", cfg.MaxVersion)
	}
	oracle := browser.NewOracle()
	ext := fingerprint.NewExtractor(oracle, fingerprint.Table8())
	d := &Dataset{
		Sessions:  make([]Session, 0, cfg.Sessions),
		Extractor: ext,
		Oracle:    oracle,
		Config:    cfg,
	}
	sampler := newUASampler(cfg.Window, cfg.MaxVersion)
	gen := rng.New(cfg.Seed)
	tools := fraud.DetectableTools()

	for i := 0; i < cfg.Sessions; i++ {
		day := cfg.Window.StartDay + gen.Intn(cfg.Window.EndDay-cfg.Window.StartDay)
		var s Session
		if gen.Bool(cfg.FraudRate) {
			s = d.fraudSession(day, sampler, tools, gen)
		} else {
			s = d.legitSession(day, sampler, gen, cfg)
		}
		s.ID = DrawSessionID(gen)
		s.UAString = ua.UserAgent(s.Claimed, s.OS)
		d.assignTags(&s, gen, cfg)
		d.Sessions = append(d.Sessions, s)
	}
	return d, nil
}

// DrawSessionID draws an opaque random identifier (appendix A: FinOrg's
// session IDs were "completely opaque and randomized"); loadgen's traffic
// draws its session IDs here too.
func DrawSessionID(gen *rng.PCG) (id [fingerprint.SessionIDSize]byte) {
	for i := 0; i < len(id); i += 8 {
		v := gen.Uint64()
		for j := 0; j < 8 && i+j < len(id); j++ {
			id[i+j] = byte(v >> (8 * j))
		}
	}
	return id
}

// DrawOS draws a session's operating system from FinOrg's OS mix, which
// loadgen's traffic shares.
func DrawOS(gen *rng.PCG) ua.OS {
	switch {
	case gen.Bool(0.62):
		return ua.Windows10
	case gen.Bool(0.55):
		return ua.Windows11
	case gen.Bool(0.5):
		return ua.MacOSSonoma
	default:
		return ua.MacOSSequoia
	}
}

// legitSession builds an honest session: the claimed user-agent equals
// the engine, with occasional configuration noise and derivative
// browsers.
func (d *Dataset) legitSession(day int, sampler *uaSampler, gen *rng.PCG, cfg Config) Session {
	rel := sampler.Sample(day, gen)
	os := DrawOS(gen)
	profile := browser.Profile{Release: rel, OS: os}
	modifier := ""

	switch rel.Vendor {
	case ua.Firefox:
		switch {
		case gen.Bool(cfg.TorRate):
			// Tor rides the current ESR and reports its user-agent.
			esr := ua.Release{Vendor: ua.Firefox, Version: 102}
			if cfg.MaxVersion >= 115 && day >= releaseDay(ua.Release{Vendor: ua.Firefox, Version: 115}) {
				esr = ua.Release{Vendor: ua.Firefox, Version: 115}
			}
			rel = esr
			profile = browser.Profile{Release: esr, OS: os, Mods: []browser.Modifier{browser.TorShift()}}
			modifier = "tor"
		case gen.Bool(cfg.FirefoxConfigRate):
			if gen.Bool(0.6) {
				profile.Mods = []browser.Modifier{browser.FirefoxServiceWorkersDisabled()}
				modifier = "firefox-config-sw"
			} else {
				profile.Mods = []browser.Modifier{browser.FirefoxTransformGetters()}
				modifier = "firefox-config-getters"
			}
		}
	case ua.Chrome:
		switch {
		case gen.Bool(cfg.BraveRate):
			profile.Mods = []browser.Modifier{browser.BraveShift()}
			modifier = "brave"
		case gen.Bool(cfg.ChromeExtRate):
			if gen.Bool(0.5) {
				profile.Mods = []browser.Modifier{browser.ChromeExtensionDuckDuckGo()}
				modifier = "chrome-ext-ddg"
			} else {
				profile.Mods = []browser.Modifier{browser.ChromeExtensionGeneric(gen.IntRange(1, 4))}
				modifier = "chrome-ext-generic"
			}
		}
	case ua.Edge:
		if !rel.IsLegacyEdge() && gen.Bool(cfg.ChromeExtRate/2) {
			profile.Mods = []browser.Modifier{browser.ChromeExtensionGeneric(gen.IntRange(1, 3))}
			modifier = "edge-ext-generic"
		}
	}

	// Staged Chrome 119 rollout (drift window only, §7.3): a held-back
	// minority of Chrome 119 clients still serves the full previous-era
	// platform surface, which is what drags the release's drift-window
	// clustering accuracy to the paper's 97.22%.
	if rel.Vendor == ua.Chrome && rel.Version == 119 && gen.Bool(cfg.Chrome119RolloutRate) {
		profile.Release = ua.Release{Vendor: ua.Chrome, Version: 113}
		modifier = "chrome119-holdback"
	}

	// Update skew: the claimed user-agent is one version ahead of the
	// engine surface. Only matters (and only flags) at era boundaries.
	if modifier == "" && gen.Bool(cfg.UpdateSkewRate) {
		lagged := ua.Release{Vendor: rel.Vendor, Version: rel.Version - 1}
		if lagged.Valid() {
			profile.Release = lagged
			modifier = "update-skew"
		}
	}

	return Session{
		Day:           day,
		Claimed:       rel,
		OS:            profile.OS,
		Vector:        d.Extractor.Extract(profile),
		ActualRelease: profile.Release,
		Modifier:      modifier,
	}
}

// fraudSession builds a fraud-browser session impersonating a victim
// whose browser follows the popular-release distribution (stolen profiles
// mirror the victim population).
func (d *Dataset) fraudSession(day int, sampler *uaSampler, tools []fraud.Tool, gen *rng.PCG) Session {
	tool := tools[gen.Intn(len(tools))]
	victim := sampler.Sample(day, gen)
	spoof := tool.Spoof(victim, DrawOS(gen), gen)
	return Session{
		Day:           day,
		Claimed:       spoof.Claimed,
		OS:            spoof.Profile.OS,
		Vector:        d.Extractor.Extract(spoof.Profile),
		Fraud:         true,
		FraudTool:     spoof.Tool,
		ActualRelease: spoof.Profile.Release,
	}
}

// assignTags draws the FinOrg risk tags conditioned on ground truth.
func (d *Dataset) assignTags(s *Session, gen *rng.PCG, cfg Config) {
	if !s.Fraud {
		s.Tags = Tags{
			UntrustedIP:     gen.Bool(cfg.LegitIPRate),
			UntrustedCookie: gen.Bool(cfg.LegitCookieRate),
			ATO:             gen.Bool(cfg.LegitATORate),
		}
		return
	}
	mismatch := ua.Distance(s.Claimed, s.ActualRelease, ua.DefaultVersionDivisor)
	if mismatch > 20 {
		mismatch = 20
	}
	s.Tags = Tags{
		UntrustedIP:     gen.Bool(cfg.FraudIPRate),
		UntrustedCookie: gen.Bool(cfg.FraudCookieRate),
		ATO:             gen.Bool(cfg.FraudATOBase + cfg.FraudATOSlope*float64(mismatch)),
	}
}

// Samples converts the dataset into core training samples.
func (d *Dataset) Samples() []core.Sample {
	out := make([]core.Sample, len(d.Sessions))
	for i, s := range d.Sessions {
		out[i] = core.Sample{Vector: s.Vector, UA: s.Claimed}
	}
	return out
}

// Train is the one training recipe over the calibrated population: it
// generates cfg's traffic and fits tc on every session, aligning rare
// user-agents with the generator's own reference fingerprints
// (core.ExtractorReference on Windows 10). polygraph train, loadgen and
// the experiments train this way, each with its own cfg and tc.
func Train(cfg Config, tc core.TrainConfig) (*Dataset, *core.Model, *core.TrainReport, error) {
	traffic, err := Generate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	tc.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	m, report, err := core.Train(traffic.Samples(), tc)
	if err != nil {
		return nil, nil, nil, err
	}
	return traffic, m, report, nil
}

// SessionsForRelease returns the sessions claiming a specific release —
// the drift detector evaluates new releases this way.
func (d *Dataset) SessionsForRelease(r ua.Release) []Session {
	var out []Session
	for _, s := range d.Sessions {
		if s.Claimed == r {
			out = append(out, s)
		}
	}
	return out
}

// DistinctReleases counts the distinct claimed user-agents (the paper's
// "113 different browser releases").
func (d *Dataset) DistinctReleases() int {
	seen := map[ua.Release]bool{}
	for _, s := range d.Sessions {
		seen[s.Claimed] = true
	}
	return len(seen)
}
