package browser

import (
	"sync"

	"polygraph/internal/rng"
)

// protoSpec describes how one prototype's property count evolves along
// the platform-level axis.
type protoSpec struct {
	base   float64 // count at level 0
	growth float64 // properties gained per level unit
	intro  float64 // level before which the interface does not exist
	// geckoAbsent marks Chromium-only interfaces (count 0 under Gecko
	// and EdgeHTML).
	geckoAbsent bool
}

// handTuned pins the evolution of the prototypes that matter most to the
// reproduction: the paper's 22 final deviation-based features (Table 8)
// get strong, distinctive growth so candidate ranking selects them, and
// the twelve Appendix-4 Table 12 additions rank immediately below.
var handTuned = map[string]protoSpec{
	// --- Table 8 deviation-based features (Num 1–22) ---
	"Element":                          {base: 150, growth: 18.0},
	"Document":                         {base: 180, growth: 14.0},
	"HTMLElement":                      {base: 62, growth: 7.0},
	"SVGElement":                       {base: 28, growth: 8.0},
	"SVGFEBlendElement":                {base: 8, growth: 1.9},
	"TextMetrics":                      {base: 4, growth: 1.7},
	"Range":                            {base: 30, growth: 2.6},
	"StaticRange":                      {base: 2, growth: 1.2, intro: 2.6},
	"AuthenticatorAttestationResponse": {base: 3, growth: 1.5, intro: 3.0, geckoAbsent: false},
	"HTMLVideoElement":                 {base: 12, growth: 2.4},
	"ResizeObserverEntry":              {base: 3, growth: 1.6, intro: 3.2},
	"ShadowRoot":                       {base: 8, growth: 2.2, intro: 2.2},
	"PointerEvent":                     {base: 10, growth: 2.0},
	"IntersectionObserver":             {base: 5, growth: 1.8, intro: 2.1},
	"CanvasRenderingContext2D":         {base: 60, growth: 4.4},
	"CSSStyleSheet":                    {base: 10, growth: 2.1},
	"AudioContext":                     {base: 8, growth: 1.9},
	"HTMLLinkElement":                  {base: 15, growth: 1.8},
	"HTMLMediaElement":                 {base: 40, growth: 3.2},
	"WebGL2RenderingContext":           {base: 300, growth: 5.2, intro: 1.6},
	"WebGLRenderingContext":            {base: 290, growth: 5.0},
	"CSSRule":                          {base: 10, growth: 1.5},

	// --- Appendix-4 Table 12 additions, in ranking order ---
	"HTMLIFrameElement":        {base: 22, growth: 1.45},
	"SVGAElement":              {base: 14, growth: 1.42},
	"RemotePlayback":           {base: 4, growth: 1.40, intro: 2.4, geckoAbsent: true},
	"StylePropertyMapReadOnly": {base: 5, growth: 1.38, intro: 2.8, geckoAbsent: true},
	"Screen":                   {base: 9, growth: 1.36},
	"Request":                  {base: 12, growth: 1.34, intro: 1.4},
	"TouchEvent":               {base: 10, growth: 1.32},
	"TaskAttributionTiming":    {base: 3, growth: 1.30, intro: 2.9, geckoAbsent: true},
	"PictureInPictureWindow":   {base: 3, growth: 1.28, intro: 3.1, geckoAbsent: true},
	"ReportingObserver":        {base: 3, growth: 1.26, intro: 3.0, geckoAbsent: true},
	"HTMLTemplateElement":      {base: 4, growth: 1.24},
	"MediaSession":             {base: 4, growth: 1.22, intro: 2.7},

	// Navigator backs a time-based feature and Brave/Tor perturbations;
	// moderate growth keeps it out of the top ranks (the paper's final
	// set does not include it) while still evolving.
	"Navigator":           {base: 30, growth: 0.9},
	"CSSStyleDeclaration": {base: 8, growth: 0.7},
	"BaseAudioContext":    {base: 12, growth: 0.8},
	"Window":              {base: 240, growth: 1.0},

	// ServiceWorker family: zeroed by the Firefox
	// dom.serviceWorkers.enabled config (paper §6.3), so they must not
	// be flat.
	"ServiceWorker":             {base: 6, growth: 0.9, intro: 1.8},
	"ServiceWorkerContainer":    {base: 7, growth: 0.8, intro: 1.8},
	"ServiceWorkerRegistration": {base: 9, growth: 0.9, intro: 1.8},
}

// specCache memoizes derived specs (proto → protoSpec). Specs are pure
// functions of the name, but deriving one walks a PCG stream; the traffic
// generator and candidate ranking resolve the same prototypes for every
// (release, proto) cache miss, so the memo keeps that off the hot path.
var specCache sync.Map

// specFor derives the spec for any registry prototype. Hash-derived specs
// are deterministic functions of the name. Prototypes on the paper's
// Appendix-3 list evolve more (that deviation is why the paper selected
// them); the rest of the registry is flatter, so the §6.1 ranking
// rediscovers the published list.
func specFor(proto string) protoSpec {
	if s, ok := handTuned[proto]; ok {
		return s
	}
	if s, ok := specCache.Load(proto); ok {
		return s.(protoSpec)
	}
	s := deriveSpec(proto)
	specCache.Store(proto, s)
	return s
}

func deriveSpec(proto string) protoSpec {
	gen := rng.NewString("proto-spec:" + proto)
	spec := protoSpec{}
	spec.base = baseMin + gen.Float64()*(baseMax-baseMin)
	if !isAppendix3(proto) {
		// The rest of the registry models the MDN interfaces that did
		// NOT make the paper's top-200: present everywhere and slow
		// moving, so the §6.1 ranking puts them below the published
		// list by construction.
		if gen.Bool(extraFlatChance) {
			spec.growth = 0
		} else {
			spec.growth = spec.base * (extraGrowthRelMin + gen.Float64()*(extraGrowthRelMax-extraGrowthRelMin))
		}
		return spec
	}
	if gen.Bool(flatChance) {
		spec.growth = 0
	} else {
		spec.growth = growthMin + gen.Float64()*(growthMax-growthMin)
	}
	// A minority of interfaces appeared mid-timeline.
	if gen.Bool(0.3) {
		spec.intro = gen.Float64() * introLevelMax
	}
	spec.geckoAbsent = gen.Bool(geckoAbsentChance)
	return spec
}
