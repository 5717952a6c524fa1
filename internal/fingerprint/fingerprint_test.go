package fingerprint

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"polygraph/internal/browser"
	"polygraph/internal/ua"
)

func TestTable8Shape(t *testing.T) {
	feats := Table8()
	if len(feats) != 28 {
		t.Fatalf("Table 8 has %d features, want 28", len(feats))
	}
	dev, tb := 0, 0
	for _, f := range feats {
		switch f.Kind {
		case DeviationBased:
			dev++
		case TimeBased:
			tb++
		}
		if !slices.Contains(browser.Registry(), f.Proto) {
			t.Fatalf("feature on unknown proto %s", f.Proto)
		}
	}
	if dev != 22 || tb != 6 {
		t.Fatalf("dev=%d tb=%d, want 22/6", dev, tb)
	}
	if feats[0].Name() != "Object.getOwnPropertyNames(Element.prototype).length" {
		t.Fatalf("first feature name = %s", feats[0].Name())
	}
	if feats[22].Name() != "Navigator.prototype.hasOwnProperty('deviceMemory')" {
		t.Fatalf("first time-based name = %s", feats[22].Name())
	}
}

func TestTable12FeatureSets(t *testing.T) {
	for _, total := range []int{28, 32, 36, 42} {
		feats, err := Table12FeatureSet(total)
		if err != nil {
			t.Fatal(err)
		}
		if len(feats) != total {
			t.Fatalf("Table12FeatureSet(%d) has %d features", total, len(feats))
		}
		seen := map[string]bool{}
		for _, f := range feats {
			if seen[f.Name()] {
				t.Fatalf("duplicate feature %s in set %d", f.Name(), total)
			}
			seen[f.Name()] = true
		}
	}
	if _, err := Table12FeatureSet(30); err == nil {
		t.Fatal("expected error for unsupported row")
	}
}

func TestCandidates513(t *testing.T) {
	c := Candidates513()
	if len(c) != 513 {
		t.Fatalf("candidate set size = %d", len(c))
	}
	dev := 0
	for _, f := range c {
		if f.Kind == DeviationBased {
			dev++
		}
	}
	if dev != 200 {
		t.Fatalf("deviation candidates = %d, want 200", dev)
	}
}

func TestSkipScaleMask(t *testing.T) {
	mask := SkipScaleMask(Table8())
	for i := 0; i < 22; i++ {
		if mask[i] {
			t.Fatalf("deviation feature %d marked skip", i)
		}
	}
	for i := 22; i < 28; i++ {
		if !mask[i] {
			t.Fatalf("time-based feature %d not marked skip", i)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names(Table8())
	if len(names) != 28 {
		t.Fatal("names length")
	}
	if names[27] != "CSSStyleDeclaration.prototype.hasOwnProperty('getPropertyValue')" {
		t.Fatalf("last name = %s", names[27])
	}
}

func TestKindString(t *testing.T) {
	if DeviationBased.String() != "deviation-based" || TimeBased.String() != "time-based" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

func newTestExtractor() *Extractor {
	return NewExtractor(browser.NewOracle(), Table8())
}

func TestExtractDeterministicAndCached(t *testing.T) {
	e := newTestExtractor()
	p := browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10}
	a := e.Extract(p)
	b := e.Extract(p)
	if len(a) != 28 {
		t.Fatalf("vector length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("extraction not deterministic")
		}
	}
	// Cached vector must be isolated from caller mutation.
	a[0] = -999
	c := e.Extract(p)
	if c[0] == -999 {
		t.Fatal("cache aliased caller slice")
	}
}

func TestExtractTimeBasedBinary(t *testing.T) {
	e := newTestExtractor()
	p := browser.Profile{Release: ua.Release{Vendor: ua.Firefox, Version: 110}, OS: ua.Windows10}
	v := e.Extract(p)
	for i := 22; i < 28; i++ {
		if v[i] != 0 && v[i] != 1 {
			t.Fatalf("time-based feature %d = %v", i, v[i])
		}
	}
	// Firefox lacks deviceMemory (idx 22), has Screen.orientation (25).
	if v[22] != 0 {
		t.Fatal("Firefox reports deviceMemory")
	}
	if v[25] != 1 {
		t.Fatal("modern Firefox lacks Screen.orientation")
	}
}

func TestExtractModifiersBypassCache(t *testing.T) {
	e := newTestExtractor()
	rel := ua.Release{Vendor: ua.Chrome, Version: 111}
	plain := e.Extract(browser.Profile{Release: rel, OS: ua.Windows10})
	brave := e.Extract(browser.Profile{Release: rel, OS: ua.Windows10,
		Mods: []browser.Modifier{browser.BraveShift()}})
	if plain[0] == brave[0] {
		t.Fatal("Brave Element count identical to Chrome")
	}
	// And extracting plain again is unaffected.
	plain2 := e.Extract(browser.Profile{Release: rel, OS: ua.Windows10})
	if plain[0] != plain2[0] {
		t.Fatal("cache poisoned by modified profile")
	}
}

func TestExtractIntoMatchesExtract(t *testing.T) {
	e := newTestExtractor()
	p := browser.Profile{Release: ua.Release{Vendor: ua.Edge, Version: 112}, OS: ua.Windows11}
	want := e.Extract(p)
	dst := make([]float64, len(e.Features()))
	e.ExtractInto(p, dst)
	for i := range want {
		if want[i] != dst[i] {
			t.Fatal("ExtractInto mismatch")
		}
	}
}

func TestExtractIntoPanicsOnBadLen(t *testing.T) {
	e := newTestExtractor()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad destination")
		}
	}()
	e.ExtractInto(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 100}}, make([]float64, 3))
}

func TestMatrixExtraction(t *testing.T) {
	e := newTestExtractor()
	profiles := []browser.Profile{
		{Release: ua.Release{Vendor: ua.Chrome, Version: 100}, OS: ua.Windows10},
		{Release: ua.Release{Vendor: ua.Firefox, Version: 100}, OS: ua.Windows10},
	}
	m := e.Matrix(profiles)
	r, c := m.Dims()
	if r != 2 || c != 28 {
		t.Fatalf("matrix %dx%d", r, c)
	}
	v0 := e.Extract(profiles[0])
	for j := range v0 {
		if m.At(0, j) != v0[j] {
			t.Fatal("matrix row differs from Extract")
		}
	}
}

func TestPayloadRoundtrip(t *testing.T) {
	p := &Payload{
		UserAgent: ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10),
		Values:    []int64{150, 0, 1, 42, 310, -1},
	}
	copy(p.SessionID[:], bytes.Repeat([]byte{0xAB}, SessionIDSize))
	enc, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserAgent != p.UserAgent || got.SessionID != p.SessionID {
		t.Fatal("header roundtrip failed")
	}
	if len(got.Values) != len(p.Values) {
		t.Fatal("value count mismatch")
	}
	for i := range p.Values {
		if got.Values[i] != p.Values[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestPayloadUnder1KB(t *testing.T) {
	// A realistic 28-feature payload must be far below 1 KB; even the
	// full 513-candidate collection must fit the budget.
	e := NewExtractor(browser.NewOracle(), Candidates513())
	p := browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10}
	v := e.Extract(p)
	payload := &Payload{
		UserAgent: ua.UserAgent(p.Release, p.OS),
		Values:    VectorToValues(v),
	}
	enc, err := payload.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > MaxPayloadSize {
		t.Fatalf("full candidate payload = %d bytes", len(enc))
	}
	// The production 28-feature payload is tiny.
	e28 := newTestExtractor()
	payload.Values = VectorToValues(e28.Extract(p))
	enc, err = payload.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > 256 {
		t.Fatalf("28-feature payload = %d bytes, want < 256", len(enc))
	}
}

func TestPayloadTooLarge(t *testing.T) {
	p := &Payload{Values: make([]int64, 2000)}
	for i := range p.Values {
		p.Values[i] = 1 << 40
	}
	if _, err := p.MarshalBinary(); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestUnmarshalRejectsJunk(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("short"),
		append([]byte{'x', 'P', 1}, make([]byte, 20)...),              // bad magic
		append([]byte{'b', 'P', 9}, make([]byte, 20)...),              // bad version
		append([]byte{'b', 'P', 1}, make([]byte, SessionIDSize)...),   // missing UA length
		bytes.Repeat([]byte{0xFF}, MaxPayloadSize+1),                  // oversized
		append([]byte{'b', 'P', 1}, append(make([]byte, 16), 200)...), // UA length beyond payload
	}
	for i, c := range cases {
		if _, err := UnmarshalBinary(c); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	p := &Payload{UserAgent: "x", Values: []int64{1}}
	enc, _ := p.MarshalBinary()
	enc = append(enc, 0x00)
	if _, err := UnmarshalBinary(enc); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUnmarshalRejectsHugeValueCount(t *testing.T) {
	// Forge a header claiming many values with no bytes behind it.
	buf := []byte{'b', 'P', 1}
	buf = append(buf, make([]byte, SessionIDSize)...)
	buf = append(buf, 0)          // empty UA
	buf = append(buf, 0xFF, 0x7F) // claims 16383 values
	if _, err := UnmarshalBinary(buf); err == nil {
		t.Fatal("huge value count accepted")
	}
}

func TestPayloadQuickRoundtrip(t *testing.T) {
	f := func(sid [SessionIDSize]byte, uaStr string, raw []int32) bool {
		if len(uaStr) > 300 || len(raw) > 120 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		p := &Payload{SessionID: sid, UserAgent: uaStr, Values: vals}
		enc, err := p.MarshalBinary()
		if err != nil {
			return true // legitimately oversized
		}
		got, err := UnmarshalBinary(enc)
		if err != nil {
			return false
		}
		if got.UserAgent != uaStr || got.SessionID != sid || len(got.Values) != len(vals) {
			return false
		}
		for i := range vals {
			if got.Values[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorValueConversions(t *testing.T) {
	v := []float64{1, 0, 42, 311}
	vals := VectorToValues(v)
	back := ValuesToVector(vals)
	for i := range v {
		if back[i] != v[i] {
			t.Fatal("conversion roundtrip failed")
		}
	}
}

func BenchmarkExtractCached(b *testing.B) {
	e := newTestExtractor()
	p := browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10}
	dst := make([]float64, len(e.Features()))
	e.ExtractInto(p, dst) // warm cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExtractInto(p, dst)
	}
}

func BenchmarkMarshalPayload(b *testing.B) {
	e := newTestExtractor()
	p := browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10}
	payload := &Payload{
		UserAgent: ua.UserAgent(p.Release, p.OS),
		Values:    VectorToValues(e.Extract(p)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := payload.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
