// Package browser is the reproduction's substitute for real browser
// builds: a deterministic oracle of the JavaScript API surface (prototype
// property counts and property presence) for every release in the modeled
// universe (Chrome 59–125, Firefox 46–125, Edge 17–19 and 79–125).
//
// The paper extracted these values from live browsers on BrowserStack
// (§6.1); we cannot run those, so the oracle encodes the *structure* the
// paper's detector exploits instead of the exact counts:
//
//   - engines evolve in eras — property counts are stable within an era
//     and jump between eras (this is what makes the Table 3 clusters);
//   - Chromium-based Edge (≥79) shares Blink's surface with its Chrome
//     version peer;
//   - legacy EdgeHTML and very old Firefox/Chrome have similar, sparse
//     surfaces (the paper's clusters 2 and 6 merge across vendors);
//   - user configuration (Firefox about:config, Chrome extensions) and
//     derivative browsers (Brave, Tor) perturb individual values (§6.3).
//
// Every value is a pure deterministic function of (release, prototype),
// so the whole pipeline is reproducible.
package browser

import "polygraph/internal/ua"

// Engine identifies a browser engine lineage.
type Engine uint8

const (
	EngineUnknown Engine = iota
	Blink                // Chrome, Edge ≥ 79, Brave
	Gecko                // Firefox, Tor Browser
	EdgeHTML             // Edge 17–19
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case Blink:
		return "Blink"
	case Gecko:
		return "Gecko"
	case EdgeHTML:
		return "EdgeHTML"
	default:
		return "Unknown"
	}
}

// EngineOf maps a release to its engine. Invalid releases map to
// EngineUnknown.
func EngineOf(r ua.Release) Engine {
	if !r.Valid() {
		return EngineUnknown
	}
	switch r.Vendor {
	case ua.Chrome:
		return Blink
	case ua.Firefox:
		return Gecko
	case ua.Edge:
		if r.IsLegacyEdge() {
			return EdgeHTML
		}
		return Blink
	default:
		return EngineUnknown
	}
}

// Era is a contiguous version range of an engine over which the API
// surface is essentially stable. Level is the era's position on the
// shared "web platform evolution" axis; property counts grow with Level,
// so eras with close Levels produce similar fingerprints even across
// engines (that cross-engine closeness is exactly why the paper's
// clusters 2 and 6 merge old Chrome with old Firefox, and legacy Edge
// with ancient Firefox).
type Era struct {
	Engine Engine
	Lo, Hi int // inclusive engine-version range
	Level  float64
	Name   string
}

// The era tables drive the whole fingerprint geometry; see params.go for
// the jitter amplitudes layered on top.
var blinkEras = []Era{
	{Blink, 59, 68, 2.00, "blink-ancient"},
	{Blink, 69, 89, 3.60, "blink-old"},
	{Blink, 90, 101, 6.40, "blink-mid"},
	{Blink, 102, 109, 7.80, "blink-recent"},
	{Blink, 110, 113, 10.60, "blink-modern"},
	{Blink, 114, 125, 11.80, "blink-current"},
}

var geckoEras = []Era{
	{Gecko, 46, 50, 1.15, "gecko-ancient"},
	{Gecko, 51, 91, 2.15, "gecko-old"},
	{Gecko, 92, 100, 5.00, "gecko-mid"},
	{Gecko, 101, 125, 9.20, "gecko-modern"},
}

var edgeHTMLEras = []Era{
	{EdgeHTML, 17, 19, 1.00, "edgehtml"},
}

// EraOf returns the era containing the release's engine version.
func EraOf(r ua.Release) (Era, bool) {
	var table []Era
	switch EngineOf(r) {
	case Blink:
		table = blinkEras
	case Gecko:
		table = geckoEras
	case EdgeHTML:
		table = edgeHTMLEras
	default:
		return Era{}, false
	}
	for _, e := range table {
		if r.Version >= e.Lo && r.Version <= e.Hi {
			return e, true
		}
	}
	return Era{}, false
}
