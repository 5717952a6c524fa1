package browser

import (
	"testing"

	"polygraph/internal/ua"
)

func TestEngineOf(t *testing.T) {
	cases := []struct {
		r    ua.Release
		want Engine
	}{
		{ua.Release{Vendor: ua.Chrome, Version: 100}, Blink},
		{ua.Release{Vendor: ua.Edge, Version: 100}, Blink},
		{ua.Release{Vendor: ua.Edge, Version: 18}, EdgeHTML},
		{ua.Release{Vendor: ua.Firefox, Version: 100}, Gecko},
		{ua.Release{Vendor: ua.Chrome, Version: 1}, EngineUnknown},
	}
	for _, c := range cases {
		if got := EngineOf(c.r); got != c.want {
			t.Fatalf("EngineOf(%s) = %s want %s", c.r, got, c.want)
		}
	}
}

func TestEraCoverage(t *testing.T) {
	// Every valid release must fall in exactly one era.
	for _, r := range ua.Universe(125) {
		era, ok := EraOf(r)
		if !ok {
			t.Fatalf("no era for %s", r)
		}
		if r.Version < era.Lo || r.Version > era.Hi {
			t.Fatalf("era %q does not contain %s", era.Name, r)
		}
		if era.Engine != EngineOf(r) {
			t.Fatalf("era engine mismatch for %s", r)
		}
	}
}

func TestEraTablesNonOverlapping(t *testing.T) {
	for _, table := range [][]Era{blinkEras, geckoEras, edgeHTMLEras} {
		for i := 1; i < len(table); i++ {
			if table[i].Lo <= table[i-1].Hi {
				t.Fatalf("eras %q and %q overlap", table[i-1].Name, table[i].Name)
			}
			if table[i].Level <= table[i-1].Level {
				t.Fatalf("era levels not increasing: %q", table[i].Name)
			}
		}
	}
}

func TestChromeEdgeShareSurface(t *testing.T) {
	// Chromium-based Edge mirrors Chrome's surface at the same version
	// up to the per-version bump noise: counts must be within 1 on
	// every prototype, and identical on the vast majority.
	o := NewOracle()
	for _, v := range []int{80, 95, 105, 112, 114} {
		chrome := ua.Release{Vendor: ua.Chrome, Version: v}
		edge := ua.Release{Vendor: ua.Edge, Version: v}
		diffs := 0
		for _, proto := range Registry() {
			c, e := o.PropertyCount(chrome, proto), o.PropertyCount(edge, proto)
			d := c - e
			if d < 0 {
				d = -d
			}
			if d > 1 {
				t.Fatalf("v%d %s: chrome=%d edge=%d", v, proto, c, e)
			}
			if d != 0 {
				diffs++
			}
		}
		if frac := float64(diffs) / float64(len(Registry())); frac > 0.25 {
			t.Fatalf("v%d: %.0f%% of prototypes differ between Chrome and Edge", v, frac*100)
		}
	}
}

func TestCountsDeterministic(t *testing.T) {
	a, b := NewOracle(), NewOracle()
	r := ua.Release{Vendor: ua.Firefox, Version: 102}
	for _, proto := range Registry() {
		if a.PropertyCount(r, proto) != b.PropertyCount(r, proto) {
			t.Fatalf("non-deterministic count for %s", proto)
		}
	}
}

func TestCountsStableWithinEra(t *testing.T) {
	// Counts of hand-tuned features differ by at most 1 between
	// versions of the same era (version bumps only).
	o := NewOracle()
	era, _ := EraOf(ua.Release{Vendor: ua.Chrome, Version: 102})
	for proto := range handTuned {
		base := o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: era.Lo}, proto)
		for v := era.Lo; v <= era.Hi; v++ {
			c := o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: v}, proto)
			d := c - base
			if d < 0 {
				d = -d
			}
			if d > 1 {
				t.Fatalf("%s at Chrome %d: count %d vs era base %d", proto, v, c, base)
			}
		}
	}
}

func TestCountsJumpBetweenEras(t *testing.T) {
	// Element's count must move substantially between consecutive
	// Blink eras: that jump is the clustering signal.
	o := NewOracle()
	prev := -1
	for _, era := range blinkEras {
		c := o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: era.Lo}, "Element")
		if prev >= 0 && c-prev < 5 {
			t.Fatalf("Element count barely moved into era %q: %d -> %d", era.Name, prev, c)
		}
		prev = c
	}
}

func TestOldEnginesConverge(t *testing.T) {
	// The geometry behind merged clusters: EdgeHTML 18 must be far
	// closer to Firefox 46 than to Chrome 114 on the big features.
	o := NewOracle()
	edge := ua.Release{Vendor: ua.Edge, Version: 18}
	ffOld := ua.Release{Vendor: ua.Firefox, Version: 46}
	chModern := ua.Release{Vendor: ua.Chrome, Version: 114}
	for _, proto := range []string{"Element", "Document", "HTMLElement"} {
		e := o.PropertyCount(edge, proto)
		f := o.PropertyCount(ffOld, proto)
		c := o.PropertyCount(chModern, proto)
		dOld := abs(e - f)
		dNew := abs(e - c)
		if dOld*3 >= dNew {
			t.Fatalf("%s: |edge-ffOld|=%d not ≪ |edge-chrome114|=%d", proto, dOld, dNew)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestUnknownInputsReturnZero(t *testing.T) {
	o := NewOracle()
	if o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: 100}, "NoSuchProto") != 0 {
		t.Fatal("unknown proto should count 0")
	}
	if o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: 1}, "Element") != 0 {
		t.Fatal("invalid release should count 0")
	}
	if o.hasProperty(ua.Release{Vendor: ua.Chrome, Version: 1}, "Navigator", "deviceMemory") {
		t.Fatal("invalid release should report false")
	}
}

func TestIntroducedInterfacesAbsentEarly(t *testing.T) {
	o := NewOracle()
	// ResizeObserverEntry intro level 3.2 > blink-ancient (2.0).
	if c := o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: 60}, "ResizeObserverEntry"); c != 0 {
		t.Fatalf("ResizeObserverEntry on Chrome 60 = %d, want 0", c)
	}
	if c := o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: 114}, "ResizeObserverEntry"); c == 0 {
		t.Fatal("ResizeObserverEntry missing on modern Chrome")
	}
}

func TestGeckoAbsentInterfaces(t *testing.T) {
	o := NewOracle()
	// RemotePlayback is modeled Chromium-only.
	if c := o.PropertyCount(ua.Release{Vendor: ua.Firefox, Version: 110}, "RemotePlayback"); c != 0 {
		t.Fatalf("RemotePlayback on Firefox = %d, want 0", c)
	}
	if c := o.PropertyCount(ua.Release{Vendor: ua.Chrome, Version: 110}, "RemotePlayback"); c == 0 {
		t.Fatal("RemotePlayback missing on Chrome")
	}
}

func TestCuratedTimeBasedTimelines(t *testing.T) {
	o := NewOracle()
	ch62 := ua.Release{Vendor: ua.Chrome, Version: 62}
	ch63 := ua.Release{Vendor: ua.Chrome, Version: 63}
	ff110 := ua.Release{Vendor: ua.Firefox, Version: 110}
	edge18 := ua.Release{Vendor: ua.Edge, Version: 18}

	if o.hasProperty(ch62, "Navigator", "deviceMemory") {
		t.Fatal("deviceMemory on Chrome 62")
	}
	if !o.hasProperty(ch63, "Navigator", "deviceMemory") {
		t.Fatal("deviceMemory missing on Chrome 63")
	}
	if o.hasProperty(ff110, "Navigator", "deviceMemory") {
		t.Fatal("deviceMemory on Firefox")
	}
	if !o.hasProperty(ch63, "HTMLVideoElement", "webkitDisplayingFullscreen") {
		t.Fatal("webkit fullscreen missing on Blink")
	}
	if o.hasProperty(ff110, "HTMLVideoElement", "webkitDisplayingFullscreen") {
		t.Fatal("webkit fullscreen on Gecko")
	}
	if o.hasProperty(edge18, "CSSStyleDeclaration", "getPropertyValue") {
		t.Fatal("getPropertyValue on EdgeHTML prototype")
	}
	if !o.hasProperty(ff110, "CSSStyleDeclaration", "getPropertyValue") {
		t.Fatal("getPropertyValue missing on Gecko")
	}
	if !o.hasProperty(ff110, "Screen", "orientation") {
		t.Fatal("Screen.orientation missing on modern Firefox")
	}
	if o.hasProperty(ua.Release{Vendor: ua.Firefox, Version: 46}, "Screen", "orientation") {
		t.Fatal("Screen.orientation on Firefox 46")
	}
}

func TestBrowserPrintCandidates(t *testing.T) {
	cands := BrowserPrintCandidates()
	if len(cands) != 313 {
		t.Fatalf("got %d candidates, want 313", len(cands))
	}
	seen := map[TimeBasedFeature]bool{}
	for _, c := range cands {
		if !knownProto(c.Proto) {
			t.Fatalf("candidate on unknown proto %s", c.Proto)
		}
		if seen[c] {
			t.Fatalf("duplicate candidate %+v", c)
		}
		seen[c] = true
	}
	// The curated six lead the list.
	if cands[0] != (TimeBasedFeature{Proto: "Navigator", Prop: "deviceMemory"}) {
		t.Fatalf("first candidate = %+v", cands[0])
	}
}

func TestSyntheticTimeFeaturesMostlyConstant(t *testing.T) {
	o := NewOracle()
	universe := ua.Universe(114)
	constant := 0
	cands := BrowserPrintCandidates()[6:]
	for _, c := range cands {
		first := o.hasProperty(universe[0], c.Proto, c.Prop)
		same := true
		for _, r := range universe[1:] {
			if o.hasProperty(r, c.Proto, c.Prop) != first {
				same = false
				break
			}
		}
		if same {
			constant++
		}
	}
	frac := float64(constant) / float64(len(cands))
	if frac < 0.75 {
		t.Fatalf("only %.0f%% of synthetic time-based candidates constant, want most", frac*100)
	}
	if frac == 1 {
		t.Fatal("no synthetic candidate varies at all")
	}
}

func TestPropertyNames(t *testing.T) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Chrome, Version: 110}
	names := o.PropertyNames(r, "Element")
	if len(names) != o.PropertyCount(r, "Element") {
		t.Fatal("name count mismatch")
	}
	// Stable across calls.
	again := o.PropertyNames(r, "Element")
	for i := range names {
		if names[i] != again[i] {
			t.Fatal("property names not stable")
		}
	}
	// Prefix property: an older release's list is a prefix of a newer
	// one's (properties accrete).
	old := o.PropertyNames(ua.Release{Vendor: ua.Chrome, Version: 60}, "Element")
	for i := range old {
		if old[i] != names[i] {
			t.Fatal("older release's property list is not a prefix")
		}
	}
	if o.PropertyNames(r, "NoSuchProto") != nil {
		t.Fatal("unknown proto should return nil names")
	}
}

func TestHasPropertyFallbackMembership(t *testing.T) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Chrome, Version: 110}
	names := o.PropertyNames(r, "Range")
	if len(names) == 0 {
		t.Fatal("Range has no properties")
	}
	if !o.hasProperty(r, "Range", names[0]) {
		t.Fatal("membership fallback failed for existing prop")
	}
	if o.hasProperty(r, "Range", "definitelyNotAProp") {
		t.Fatal("membership fallback accepted junk")
	}
}

func TestFirefox119ElementShift(t *testing.T) {
	o := NewOracle()
	ff118 := ua.Release{Vendor: ua.Firefox, Version: 118}
	ff119 := ua.Release{Vendor: ua.Firefox, Version: 119}
	ch95 := ua.Release{Vendor: ua.Chrome, Version: 95}
	// Shifted prototypes adopt the Blink mid-era surface.
	if got, want := o.PropertyCount(ff119, "Element"), o.PropertyCount(ch95, "Element"); got != want {
		t.Fatalf("Firefox 119 Element = %d, want Chrome 95's %d", got, want)
	}
	if o.PropertyCount(ff119, "Element") == o.PropertyCount(ff118, "Element") {
		t.Fatal("Firefox 119 Element did not change from 118")
	}
	// Non-shifted prototypes stay on the Gecko timeline (within the
	// one-property version bump).
	d := o.PropertyCount(ff119, "WebGLRenderingContext") - o.PropertyCount(ff118, "WebGLRenderingContext")
	if d < -1 || d > 1 {
		t.Fatalf("WebGLRenderingContext moved too much at Firefox 119: %d", d)
	}
}

func TestModifiers(t *testing.T) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Firefox, Version: 110}
	plain := Profile{Release: r, OS: ua.Windows10}
	noSW := Profile{Release: r, OS: ua.Windows10, Mods: []Modifier{FirefoxServiceWorkersDisabled()}}
	if noSW.PropertyCount(o, "ServiceWorkerRegistration") != 0 {
		t.Fatal("ServiceWorkerRegistration not zeroed")
	}
	if noSW.PropertyCount(o, "Element") != plain.PropertyCount(o, "Element") {
		t.Fatal("unrelated proto changed")
	}

	tg := Profile{Release: r, OS: ua.Windows10, Mods: []Modifier{FirefoxTransformGetters()}}
	if tg.PropertyCount(o, "Element") != plain.PropertyCount(o, "Element")+3 {
		t.Fatal("transform getters delta wrong")
	}

	ch := ua.Release{Vendor: ua.Chrome, Version: 111}
	brave := Profile{Release: ch, OS: ua.Windows10, Mods: []Modifier{BraveShift()}}
	vanilla := Profile{Release: ch, OS: ua.Windows10}
	if brave.PropertyCount(o, "Element") >= vanilla.PropertyCount(o, "Element") {
		t.Fatal("Brave Element not reduced")
	}
	if brave.HasProperty(o, "Navigator", "deviceMemory") {
		t.Fatal("Brave should hide deviceMemory")
	}
	if !vanilla.HasProperty(o, "Navigator", "deviceMemory") {
		t.Fatal("vanilla Chrome 111 should expose deviceMemory")
	}

	ddg := Profile{Release: ch, OS: ua.Windows10, Mods: []Modifier{ChromeExtensionDuckDuckGo()}}
	if ddg.PropertyCount(o, "Element") != vanilla.PropertyCount(o, "Element")+2 {
		t.Fatal("DuckDuckGo delta wrong")
	}
}

func TestModifierNeverNegative(t *testing.T) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Firefox, Version: 102}
	tor := Profile{Release: r, OS: ua.Windows10, Mods: []Modifier{TorShift()}}
	for _, proto := range Registry() {
		if c := tor.PropertyCount(o, proto); c < 0 {
			t.Fatalf("negative count for %s", proto)
		}
	}
}

func TestModifiersCompose(t *testing.T) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Chrome, Version: 110}
	p := Profile{Release: r, OS: ua.Windows10, Mods: []Modifier{
		ChromeExtensionDuckDuckGo(), ChromeExtensionGeneric(3),
	}}
	base := Profile{Release: r, OS: ua.Windows10}.PropertyCount(o, "Element")
	if p.PropertyCount(o, "Element") != base+5 {
		t.Fatalf("composed delta = %d want %d", p.PropertyCount(o, "Element"), base+5)
	}
}

func TestChromeExtensionGenericFloor(t *testing.T) {
	m := ChromeExtensionGeneric(0)
	if m.AdjustCount("Element", 10) != 11 {
		t.Fatal("n<1 should clamp to 1")
	}
}

func TestOSDelta(t *testing.T) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Chrome, Version: 110}
	win := Profile{Release: r, OS: ua.Windows10}
	mac := Profile{Release: r, OS: ua.MacOSSonoma}
	if win.PropertyCount(o, "TouchEvent") != mac.PropertyCount(o, "TouchEvent")+1 {
		t.Fatal("TouchEvent OS delta missing")
	}
	if win.PropertyCount(o, "Element") != mac.PropertyCount(o, "Element") {
		t.Fatal("Element should be OS-independent")
	}
}

func TestRegistryIntegrity(t *testing.T) {
	if len(Appendix3Protos()) != 200 {
		t.Fatalf("appendix-3 list has %d entries, want 200", len(Appendix3Protos()))
	}
	for _, p := range Appendix3Protos() {
		if !knownProto(p) {
			t.Fatalf("appendix-3 proto %q not in registry", p)
		}
	}
	if len(Registry()) < 300 {
		t.Fatalf("registry too small: %d", len(Registry()))
	}
	// Table 8 prototypes all modeled.
	for proto := range handTuned {
		if !knownProto(proto) {
			t.Fatalf("hand-tuned proto %q not in registry", proto)
		}
	}
}

func TestEngineString(t *testing.T) {
	for _, e := range []Engine{Blink, Gecko, EdgeHTML, EngineUnknown} {
		if e.String() == "" {
			t.Fatal("empty engine string")
		}
	}
}

func BenchmarkPropertyCountCached(b *testing.B) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Chrome, Version: 112}
	o.PropertyCount(r, "Element") // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.PropertyCount(r, "Element")
	}
}

func BenchmarkProfileExtraction28(b *testing.B) {
	o := NewOracle()
	p := Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10}
	protos := Appendix3Protos()[:22]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, proto := range protos {
			_ = p.PropertyCount(o, proto)
		}
	}
}

func TestEraOfInvalid(t *testing.T) {
	if _, ok := EraOf(ua.Release{Vendor: ua.Chrome, Version: 1}); ok {
		t.Fatal("invalid release got an era")
	}
	if _, ok := EraOf(ua.Release{}); ok {
		t.Fatal("zero release got an era")
	}
}

func TestModifierNamesNonEmpty(t *testing.T) {
	mods := []Modifier{
		FirefoxServiceWorkersDisabled(), FirefoxTransformGetters(),
		ChromeExtensionDuckDuckGo(), ChromeExtensionGeneric(2),
		BraveShift(), TorShift(),
	}
	for _, m := range mods {
		if m.Name() == "" {
			t.Fatal("modifier with empty name")
		}
		// AdjustBool without an override passes through.
		if !m.AdjustBool("Screen", "orientation", true) && m.Name() != "brave" {
			t.Fatalf("%s flipped an unrelated boolean", m.Name())
		}
	}
}

func TestOSDeltaMac(t *testing.T) {
	o := NewOracle()
	r := ua.Release{Vendor: ua.Chrome, Version: 110}
	mac := Profile{Release: r, OS: ua.MacOSSonoma}
	win := Profile{Release: r, OS: ua.Windows10}
	if mac.PropertyCount(o, "GamepadButton") >= win.PropertyCount(o, "GamepadButton") {
		t.Fatal("mac GamepadButton delta missing")
	}
}

func TestSyntheticTimeFlipsAtEraBoundary(t *testing.T) {
	// At least one synthetic candidate must genuinely flip within the
	// modeled range (the non-constant tail).
	o := NewOracle()
	universe := ua.Universe(114)
	flips := 0
	for _, c := range BrowserPrintCandidates()[6:] {
		first := o.hasProperty(universe[0], c.Proto, c.Prop)
		for _, r := range universe[1:] {
			if o.hasProperty(r, c.Proto, c.Prop) != first {
				flips++
				break
			}
		}
	}
	if flips == 0 {
		t.Fatal("no synthetic time-based candidate varies")
	}
}
