// Package finegrained simulates the fine-grained fingerprinting tools the
// paper benchmarks against (§3 Table 2, Appendix-5 Tables 13–14):
// FingerprintJS, ClientJS, and AmIUnique. Each collector walks the same
// browser oracle the coarse-grained pipeline uses, but gathers the large
// nested structures those tools really produce (font lists, WebGL
// parameters, canvas hashes, plugin inventories, ...). The collectors do
// work proportional to what they collect, so benchmarked collection cost
// preserves the paper's ordering, and their serialized sizes land in the
// same regime as Table 2's storage column.
package finegrained

import (
	"encoding/json"
	"fmt"
	"strings"

	"polygraph/internal/browser"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// Collector produces a fine-grained fingerprint document for a profile.
type Collector interface {
	// Name identifies the tool ("FingerprintJS").
	Name() string
	// Collect gathers the tool's fingerprint as a nested document.
	Collect(o *browser.Oracle, p browser.Profile) map[string]any
}

// SizeBytes returns the JSON-serialized size of a collected document —
// the "storage requirement" of Table 2 ("we shifted focus from the size
// of hashed data to the underlying data structure's size").
func SizeBytes(doc map[string]any) int {
	b, err := json.Marshal(doc)
	if err != nil {
		// Documents are built from JSON-clean types; a failure is a
		// programming error.
		panic(fmt.Sprintf("finegrained: marshal: %v", err))
	}
	return len(b)
}

// osFamily collapses the host OS into the token that drives
// environment-derived attributes: Windows 10 and 11 ship near-identical
// font/plugin/screen environments, while the two macOS releases differ
// slightly — which is exactly why the paper's Appendix-5 ClientJS
// clustering is worse on macOS (85.93%) than Windows (93.60%).
func osFamily(os ua.OS) string {
	switch os {
	case ua.Windows10, ua.Windows11:
		return "windows"
	case ua.MacOSSonoma, ua.MacOSSequoia:
		return "mac"
	default:
		return "other"
	}
}

// eraName returns the engine-era token of a release; environment values
// that track the rendering stack (canvas, audio) change per era, not per
// version.
func eraName(r ua.Release) string {
	era, ok := browser.EraOf(r)
	if !ok {
		return "unknown"
	}
	return era.Name
}

// fontCatalog is the pool fine-grained tools probe; the detected subset
// depends on the platform and era.
var fontCatalog = buildFontCatalog()

func buildFontCatalog() []string {
	families := []string{
		"Arial", "Helvetica", "Times", "Courier", "Verdana", "Georgia",
		"Palatino", "Garamond", "Bookman", "Tahoma", "Trebuchet",
		"Impact", "Comic Sans", "Lucida", "Consolas", "Cambria",
		"Calibri", "Candara", "Constantia", "Corbel", "Segoe",
		"Franklin", "Gill Sans", "Rockwell", "Baskerville", "Didot",
		"Futura", "Geneva", "Optima", "Monaco",
	}
	variants := []string{"", " Narrow", " Light", " Black", " Condensed", " MS", " Pro", " UI"}
	var out []string
	for _, f := range families {
		for _, v := range variants {
			out = append(out, f+v)
		}
	}
	return out
}

// detectedFonts derives a deterministic font subset for a profile. Fonts
// are an OS-and-vendor property, not a version property.
func detectedFonts(p browser.Profile, extra int) []string {
	gen := rng.NewString(fmt.Sprintf("fonts:%s:%s", p.Release.Vendor, osFamily(p.OS)))
	var out []string
	for _, f := range fontCatalog {
		if gen.Bool(0.55) {
			out = append(out, f)
		}
		if len(out) >= 120+extra {
			break
		}
	}
	// The macOS releases differ in exactly one bundled system font.
	switch p.OS {
	case ua.MacOSSonoma:
		out = append(out, "SF Pro Display")
	case ua.MacOSSequoia:
		out = append(out, "SF Pro Rounded")
	}
	return out
}

// canvasHash models the canvas rendering hash: identical for identical
// engine surfaces, distinct across engines/eras/OSes.
func canvasHash(o *browser.Oracle, p browser.Profile) string {
	seed := fmt.Sprintf("canvas:%s:%s:%s", browser.EngineOf(p.Release),
		eraName(p.Release), osFamily(p.OS))
	g := rng.NewString(seed)
	return fmt.Sprintf("%016x%016x", g.Uint64(), g.Uint64())
}

func audioHash(o *browser.Oracle, p browser.Profile) float64 {
	seed := fmt.Sprintf("audio:%s:%s", browser.EngineOf(p.Release), eraName(p.Release))
	return 124.04 + rng.NewString(seed).Float64()*0.01
}

// webglParams models the renderer parameter dump.
func webglParams(o *browser.Oracle, p browser.Profile, n int) map[string]any {
	out := make(map[string]any, n+2)
	gen := rng.NewString(fmt.Sprintf("webgl:%s:%s", browser.EngineOf(p.Release), osFamily(p.OS)))
	for i := 0; i < n; i++ {
		out[fmt.Sprintf("PARAM_%02d", i)] = gen.IntRange(0, 1<<14)
	}
	out["UNMASKED_VENDOR"] = fmt.Sprintf("GPUVendor-%d", gen.Intn(4))
	out["UNMASKED_RENDERER"] = fmt.Sprintf("Renderer-%d", gen.Intn(16))
	return out
}

// screenInfo models the BrowserStack VM's display: fixed per OS image.
func screenInfo(p browser.Profile) map[string]any {
	gen := rng.NewString("screen:" + osFamily(p.OS))
	widths := []int{1280, 1366, 1440, 1536, 1920, 2560}
	w := widths[gen.Intn(len(widths))]
	return map[string]any{
		"width": w, "height": w * 9 / 16,
		"colorDepth": 24, "pixelRatio": 1 + gen.Intn(2),
	}
}

// FingerprintJS simulates the fingerprintjs open-source collector:
// ~20 components, a few KB of underlying data (Table 2: ~23 KB).
type FingerprintJS struct{}

// Name implements Collector.
func (FingerprintJS) Name() string { return "FingerprintJS" }

// Collect implements Collector.
func (FingerprintJS) Collect(o *browser.Oracle, p browser.Profile) map[string]any {
	gen := rng.NewString(fmt.Sprintf("fpjs:%s:%s", p.Release.Vendor, osFamily(p.OS)))
	doc := map[string]any{
		"userAgent":           ua.UserAgent(p.Release, p.OS),
		"fonts":               detectedFonts(p, 40),
		"canvas":              map[string]any{"winding": true, "geometry": canvasHash(o, p), "text": canvasHash(o, p)[:16]},
		"audio":               audioHash(o, p),
		"webgl":               webglParams(o, p, 48),
		"screen":              screenInfo(p),
		"timezone":            "America/New_York",
		"languages":           []string{"en-US", "en"},
		"deviceMemory":        boolInt(p.HasProperty(o, "Navigator", "deviceMemory")) * 8,
		"hardwareConcurrency": 4 + gen.Intn(3)*4,
		"sessionStorage":      true,
		"localStorage":        true,
		"indexedDB":           true,
		"cpuClass":            nil,
		"platform":            p.OS.String(),
		"plugins":             pluginList(p, gen, 5),
		"touchSupport":        map[string]any{"maxTouchPoints": gen.Intn(2) * 10, "touchEvent": false},
		"vendorFlavors":       []string{},
		"colorGamut":          "srgb",
		"math":                mathFingerprint(p),
	}
	// Pad with DOM-surface probes proportional to the real tool's
	// breadth: one entry per interesting prototype.
	probes := map[string]any{}
	for _, proto := range browser.Appendix3Protos()[:80] {
		probes[proto] = p.PropertyCount(o, proto)
	}
	doc["domProbes"] = probes
	return doc
}

// ClientJS simulates the much smaller clientjs library (Table 2: ~10 KB),
// most of whose output is derived from the user-agent string itself —
// which is why Appendix-5 finds only 7 clustering-relevant features.
type ClientJS struct{}

// Name implements Collector.
func (ClientJS) Name() string { return "ClientJS" }

// Collect implements Collector.
func (ClientJS) Collect(o *browser.Oracle, p browser.Profile) map[string]any {
	gen := rng.NewString(fmt.Sprintf("clientjs:%s:%s", p.Release.Vendor, osFamily(p.OS)))
	uaStr := ua.UserAgent(p.Release, p.OS)
	return map[string]any{
		"userAgent":      uaStr,
		"browser":        p.Release.Vendor.String(),
		"browserVersion": p.Release.Version, // UA-derived (excluded in Appendix-5)
		"engine":         browser.EngineOf(p.Release).String(),
		"os":             p.OS.String(),
		"device":         "desktop",
		"screen":         screenInfo(p),
		// clientjs returns fonts and plugins as single joined strings,
		// which is why Appendix-5 extracts so few usable features from
		// it (7 on Windows, 4 on macOS).
		"plugins":           strings.Join(pluginNames(p, gen, 4), ";"),
		"canvasPrint":       canvasHash(o, p),
		"fonts":             strings.Join(detectedFonts(p, 0), ","),
		"timezone":          "-05:00",
		"language":          "en-US",
		"colorDepth":        24,
		"silverlight":       false,
		"flashVersion":      nil,
		"isMobile":          false,
		"availableHeight":   availableHeight(p.OS),
		"deviceScaleFactor": deviceScaleFactor(p.OS),
	}
}

// AmIUnique simulates the academic extension collector (Table 2: ~60 KB,
// ~1.5 s service time): it dumps everything, including full plugin/font
// inventories and per-interface property lists.
type AmIUnique struct{}

// Name implements Collector.
func (AmIUnique) Name() string { return "AmIUnique" }

// Collect implements Collector.
func (AmIUnique) Collect(o *browser.Oracle, p browser.Profile) map[string]any {
	gen := rng.NewString(fmt.Sprintf("amiunique:%s:%s", p.Release.Vendor, osFamily(p.OS)))
	doc := map[string]any{
		"userAgent": ua.UserAgent(p.Release, p.OS),
		"headers": map[string]any{
			"accept":         "text/html,application/xhtml+xml",
			"acceptEncoding": "gzip, deflate, br",
			"acceptLanguage": "en-US,en;q=0.9",
		},
		"fonts":    detectedFonts(p, 80),
		"canvas":   canvasHash(o, p),
		"webgl":    webglParams(o, p, 80),
		"audio":    audioHash(o, p),
		"screen":   screenInfo(p),
		"plugins":  pluginList(p, gen, 8),
		"timezone": "America/New_York",
	}
	// The extension enumerates the full property lists of many
	// interfaces — the expensive part that drives its ~1.5 s service
	// time and 60 KB payload.
	surfaces := map[string]any{}
	for _, proto := range browser.Appendix3Protos() {
		names := o.PropertyNames(p.Release, proto)
		surfaces[proto] = names
	}
	doc["interfaceSurfaces"] = surfaces
	return doc
}

// availableHeight reflects the OS chrome: the Windows 11 taskbar and the
// macOS menu bars differ by a few pixel rows. This is the kind of
// environment detail a feature-poor collector ends up keying on, which
// is why the paper's Appendix-5 ClientJS clustering trails the others on
// both OS families.
func availableHeight(os ua.OS) int {
	switch os {
	case ua.Windows11:
		return 1032
	case ua.MacOSSonoma:
		return 1055
	case ua.MacOSSequoia:
		return 1054
	default:
		return 1040
	}
}

// deviceScaleFactor is the default display scaling per OS image.
func deviceScaleFactor(os ua.OS) float64 {
	switch os {
	case ua.Windows11:
		return 1.25
	case ua.MacOSSonoma, ua.MacOSSequoia:
		return 2.0
	default:
		return 1.0
	}
}

func pluginNames(p browser.Profile, gen *rng.PCG, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Plugin-%d", gen.Intn(30))
	}
	return out
}

func pluginList(p browser.Profile, gen *rng.PCG, n int) []map[string]any {
	out := make([]map[string]any, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, map[string]any{
			"name":     fmt.Sprintf("Plugin-%d", gen.Intn(30)),
			"filename": fmt.Sprintf("plugin%d.dll", i),
		})
	}
	return out
}

func mathFingerprint(p browser.Profile) map[string]any {
	g := rng.NewString("math:" + browser.EngineOf(p.Release).String())
	return map[string]any{
		"tan":  -1.4214488238747245 + g.Float64()*1e-13,
		"sinh": 1.1752011936438014,
		"exp":  2.718281828459045,
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
