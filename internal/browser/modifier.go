package browser

import (
	"strings"

	"polygraph/internal/ua"
)

// Modifier perturbs the API surface a profile reports, modeling the
// real-world effects the paper had to account for during pre-processing
// (§6.3): Firefox about:config toggles, Chrome extensions, derivative
// browsers (Brave, Tor), and staged feature rollouts.
//
// Modifiers adjust values *after* the oracle computes the engine's
// truth; they never change which engine answers.
type Modifier interface {
	// Name identifies the modifier in logs and dataset metadata.
	Name() string
	// AdjustCount maps a prototype's reported property count.
	AdjustCount(proto string, count int) int
	// AdjustBool maps a reported hasOwnProperty result.
	AdjustBool(proto, prop string, val bool) bool
}

// deltaModifier implements Modifier via a per-prototype count delta
// table. Missing prototypes pass through. Results floor at zero.
type deltaModifier struct {
	name   string
	deltas map[string]int
	// zeroPrefixes zero any prototype whose name starts with one of
	// these (the ServiceWorker-family wipe).
	zeroPrefixes []string
	boolOverride map[string]bool // "Proto.prop" -> forced value
}

func (m *deltaModifier) Name() string { return m.name }

func (m *deltaModifier) AdjustCount(proto string, count int) int {
	for _, p := range m.zeroPrefixes {
		if strings.HasPrefix(proto, p) {
			return 0
		}
	}
	if d, ok := m.deltas[proto]; ok {
		count += d
		if count < 0 {
			count = 0
		}
	}
	return count
}

func (m *deltaModifier) AdjustBool(proto, prop string, val bool) bool {
	if v, ok := m.boolOverride[proto+"."+prop]; ok {
		return v
	}
	return val
}

// FirefoxServiceWorkersDisabled models dom.serviceWorkers.enabled=false:
// all ServiceWorker-interface values zero out (§6.3).
func FirefoxServiceWorkersDisabled() Modifier {
	return &deltaModifier{
		name:         "firefox-serviceworkers-disabled",
		zeroPrefixes: []string{"ServiceWorker"},
	}
}

// FirefoxTransformGetters models dom.element.transform-getters.enabled:
// extra getters surface on Element (§6.3).
func FirefoxTransformGetters() Modifier {
	return &deltaModifier{
		name:   "firefox-transform-getters",
		deltas: map[string]int{"Element": 3},
	}
}

// ChromeExtensionDuckDuckGo models the DuckDuckGo extension, which "adds
// two custom properties to the Element interface" (§6.3).
func ChromeExtensionDuckDuckGo() Modifier {
	return &deltaModifier{
		name:   "chrome-ext-duckduckgo",
		deltas: map[string]int{"Element": 2},
	}
}

// ChromeExtensionGeneric models an arbitrary content-script extension
// that decorates Element/Document with n helper properties.
func ChromeExtensionGeneric(n int) Modifier {
	if n < 1 {
		n = 1
	}
	return &deltaModifier{
		name:   "chrome-ext-generic",
		deltas: map[string]int{"Element": n, "Document": 1},
	}
}

// BraveShift models Brave's shielded surface: a Chrome user-agent with
// "discernible discrepancies in attribute values across certain
// interfaces, such as Element, compared to the genuine Chrome" (§6.3).
func BraveShift() Modifier {
	return &deltaModifier{
		name: "brave",
		deltas: map[string]int{
			"Element":                  -7,
			"Document":                 -3,
			"Navigator":                -2,
			"AudioContext":             -2,
			"CanvasRenderingContext2D": -2,
			"WebGLRenderingContext":    -4,
		},
		boolOverride: map[string]bool{
			"Navigator.deviceMemory": false, // Brave blinds hardware hints
		},
	}
}

// TorShift models the Tor Browser: a Firefox ESR user-agent whose
// "attribute values significantly deviated from those of the original
// Firefox" (§6.3). Tor disables many surfaces outright.
func TorShift() Modifier {
	return &deltaModifier{
		name: "tor",
		deltas: map[string]int{
			"Element":                  -12,
			"Navigator":                -5,
			"WebGLRenderingContext":    -40,
			"WebGL2RenderingContext":   -60,
			"CanvasRenderingContext2D": -9,
			"AudioContext":             -4,
			"Document":                 -6,
		},
		zeroPrefixes: []string{"ServiceWorker", "Presentation", "Sensor"},
	}
}

// Profile is a concrete browser instance: the engine release actually
// running, the host OS, and any surface modifiers. The user-agent a
// session *claims* is a property of the session (see internal/dataset and
// internal/fraud), not of the profile — that separation is the whole
// point of the paper.
type Profile struct {
	Release ua.Release
	OS      ua.OS
	Mods    []Modifier
}

// PropertyCount returns the profile's reported count for a prototype:
// oracle truth, plus OS-specific surface differences, filtered through
// the modifiers in order.
func (p Profile) PropertyCount(o *Oracle, proto string) int {
	c := o.PropertyCount(p.Release, proto)
	c += osDelta(p.OS, proto)
	if c < 0 {
		c = 0
	}
	for _, m := range p.Mods {
		c = m.AdjustCount(proto, c)
	}
	return c
}

// HasProperty returns the profile's reported hasOwnProperty result.
func (p Profile) HasProperty(o *Oracle, proto, prop string) bool {
	v := o.hasProperty(p.Release, proto, prop)
	for _, m := range p.Mods {
		v = m.AdjustBool(proto, prop, v)
	}
	return v
}

// osDelta models the few interfaces whose surface differs by OS (touch
// input on Windows exposes extra members). Kept deliberately small: the
// JS prototype surface is largely OS-independent, which is why the
// paper's Appendix-5 clustering works per-OS without re-tuning.
func osDelta(os ua.OS, proto string) int {
	switch proto {
	case "Touch", "TouchEvent", "TouchList":
		if os == ua.Windows10 || os == ua.Windows11 {
			return 1
		}
	case "GamepadButton":
		if os == ua.MacOSSonoma || os == ua.MacOSSequoia {
			return -1
		}
	}
	return 0
}
