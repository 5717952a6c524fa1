package browser

import (
	"fmt"
	"strings"

	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// TimeBasedFeature is a presence/absence probe on a prototype, the
// feature family BrowserPrint introduced and the paper reused as
// "time-based" candidates (§6.1).
type TimeBasedFeature struct {
	Proto string
	Prop  string
}

// curatedTimeBased models the six time-based features that survived the
// paper's pre-processing (Table 8 Num 23–28). Their timelines are the
// reproduction's stand-ins for the real platform history: each one flips
// inside the modeled version range or differs across engines, giving the
// clustering genuine signal.
var curatedTimeBased = map[string]func(ua.Release) bool{
	// Chromium-only device memory API, added in Chrome 63.
	"Navigator.deviceMemory": func(r ua.Release) bool {
		return EngineOf(r) == Blink && chromiumVersion(r) >= 63
	},
	// BaseAudioContext refactor: Blink ≥ 66, Gecko ≥ 53.
	"BaseAudioContext.currentTime": func(r ua.Release) bool {
		switch EngineOf(r) {
		case Blink:
			return chromiumVersion(r) >= 66
		case Gecko:
			return r.Version >= 53
		default:
			return false
		}
	},
	// WebKit legacy fullscreen getter, Chromium lineage only.
	"HTMLVideoElement.webkitDisplayingFullscreen": func(r ua.Release) bool {
		return EngineOf(r) == Blink
	},
	// Screen orientation landed at different times per engine.
	"Screen.orientation": func(r ua.Release) bool {
		switch EngineOf(r) {
		case Blink:
			return chromiumVersion(r) >= 69
		case Gecko:
			return r.Version >= 48
		default:
			return false
		}
	},
	// speechSynthesis as a Window prototype property: Blink ≥ 66 and
	// EdgeHTML; Gecko exposes it as an own property instead.
	"Window.speechSynthesis": func(r ua.Release) bool {
		switch EngineOf(r) {
		case Blink:
			return chromiumVersion(r) >= 66
		case EdgeHTML:
			return true
		default:
			return false
		}
	},
	// getPropertyValue has always been on the prototype in Blink/Gecko;
	// EdgeHTML hoisted it onto instances.
	"CSSStyleDeclaration.getPropertyValue": func(r ua.Release) bool {
		return EngineOf(r) != EdgeHTML
	},
}

// chromiumVersion maps a Blink release to its Chromium major version
// (Edge ≥ 79 tracks Chrome's version number).
func chromiumVersion(r ua.Release) int { return r.Version }

// CuratedTimeBased returns the six Table 8 time-based features in
// publication order.
func CuratedTimeBased() []TimeBasedFeature {
	return []TimeBasedFeature{
		{"Navigator", "deviceMemory"},
		{"BaseAudioContext", "currentTime"},
		{"HTMLVideoElement", "webkitDisplayingFullscreen"},
		{"Screen", "orientation"},
		{"Window", "speechSynthesis"},
		{"CSSStyleDeclaration", "getPropertyValue"},
	}
}

// syntheticTimePropPrefix marks generated BrowserPrint-style candidate
// properties.
const syntheticTimePropPrefix = "bpFeature"

func isSyntheticTimeProp(prop string) bool {
	return strings.HasPrefix(prop, syntheticTimePropPrefix)
}

// syntheticTimeHas evaluates a generated candidate. The distribution
// mirrors what the paper found when it revisited BrowserPrint's 313
// features against mid-2022+ browsers (§6.3): most had stopped changing
// (always present or never present in the modeled window), and a small
// tail flips at an era boundary, adding no information beyond the
// deviation features.
func syntheticTimeHas(r ua.Release, proto, prop string) bool {
	gen := rng.NewString("tb:" + proto + "." + prop)
	class := gen.Float64()
	era, ok := EraOf(r)
	if !ok {
		return false
	}
	switch {
	case class < 0.50: // long-established property: always present
		return true
	case class < 0.90: // removed or never-shipped: always absent
		return false
	default: // flips at a hash-derived level threshold
		threshold := 1 + gen.Float64()*8
		if gen.Bool(0.3) && EngineOf(r) == Gecko {
			return false // Chromium-only stragglers
		}
		return era.Level >= threshold
	}
}

// BrowserPrintCandidates generates the 313 time-based candidate features
// carried into Real-World Data Collection: the six curated Table 8 probes
// plus 307 synthetic probes spread across the registry.
func BrowserPrintCandidates() []TimeBasedFeature {
	out := make([]TimeBasedFeature, 0, 313)
	out = append(out, CuratedTimeBased()...)
	protos := Registry()
	for i := 0; len(out) < 313; i++ {
		out = append(out, TimeBasedFeature{
			Proto: protos[i%len(protos)],
			Prop:  fmt.Sprintf("%s%03d", syntheticTimePropPrefix, i),
		})
	}
	return out
}
