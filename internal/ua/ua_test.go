package ua

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVendorString(t *testing.T) {
	cases := map[Vendor]string{
		Chrome: "Chrome", Firefox: "Firefox", Edge: "Edge", VendorUnknown: "Unknown",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Fatalf("%d.String() = %q", v, v.String())
		}
	}
}

func TestReleaseString(t *testing.T) {
	r := Release{Vendor: Chrome, Version: 112}
	if r.String() != "Chrome 112" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestValid(t *testing.T) {
	valid := []Release{
		{Chrome, 59}, {Chrome, 119}, {Chrome, 125},
		{Firefox, 46}, {Firefox, 119},
		{Edge, 17}, {Edge, 19}, {Edge, 79}, {Edge, 119},
	}
	for _, r := range valid {
		if !r.Valid() {
			t.Fatalf("%s should be valid", r)
		}
	}
	invalid := []Release{
		{Chrome, 58}, {Chrome, 126},
		{Firefox, 45},
		{Edge, 16}, {Edge, 20}, {Edge, 78},
		{VendorUnknown, 100},
	}
	for _, r := range invalid {
		if r.Valid() {
			t.Fatalf("%s should be invalid", r)
		}
	}
}

func TestIsLegacyEdge(t *testing.T) {
	if !(Release{Edge, 18}).IsLegacyEdge() {
		t.Fatal("Edge 18 is legacy")
	}
	if (Release{Edge, 79}).IsLegacyEdge() {
		t.Fatal("Edge 79 is not legacy")
	}
	if (Release{Chrome, 18}).IsLegacyEdge() {
		t.Fatal("Chrome 18 is not Edge")
	}
}

func TestDistanceAlgorithm1(t *testing.T) {
	cases := []struct {
		a, b Release
		want int
	}{
		// Cross-vendor: max distance.
		{Release{Chrome, 110}, Release{Firefox, 110}, MaxDistance},
		{Release{Edge, 18}, Release{Chrome, 64}, MaxDistance},
		// Same vendor: floor(|diff|/4).
		{Release{Chrome, 112}, Release{Chrome, 112}, 0},
		{Release{Chrome, 112}, Release{Chrome, 115}, 0},
		{Release{Chrome, 112}, Release{Chrome, 116}, 1},
		{Release{Chrome, 112}, Release{Chrome, 108}, 1},
		{Release{Firefox, 46}, Release{Firefox, 114}, 17},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b, DefaultVersionDivisor); got != c.want {
			t.Fatalf("Distance(%s,%s) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(av, bv uint8, sameVendor bool) bool {
		a := Release{Chrome, int(av%60) + 59}
		b := Release{Chrome, int(bv%60) + 59}
		if !sameVendor {
			b.Vendor = Firefox
		}
		return Distance(a, b, 4) == Distance(b, a, 4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceDivisorDefaulting(t *testing.T) {
	a, b := Release{Chrome, 100}, Release{Chrome, 108}
	if Distance(a, b, 0) != 2 {
		t.Fatal("divisor 0 should default to 4")
	}
	if Distance(a, b, -1) != 2 {
		t.Fatal("negative divisor should default to 4")
	}
	if Distance(a, b, 8) != 1 {
		t.Fatal("custom divisor ignored")
	}
}

func TestUserAgentParseRoundtrip(t *testing.T) {
	for _, r := range Universe(125) {
		for _, os := range []OS{Windows10, Windows11, MacOSSonoma, MacOSSequoia} {
			s := UserAgent(r, os)
			got, err := Parse(s)
			if err != nil {
				t.Fatalf("Parse(%q): %v", s, err)
			}
			if got != r {
				t.Fatalf("roundtrip %s via %q => %s", r, s, got)
			}
			if fast, ok := ParseRelease(s); !ok || fast != r {
				t.Fatalf("ParseRelease(%q) = %s, %v; Parse gave %s", s, fast, ok, r)
			}
		}
	}
}

func TestParseRejectsJunk(t *testing.T) {
	junk := []string{
		"",
		"curl/8.0",
		"Mozilla/5.0 (compatible; Googlebot/2.1)",
		"Chrome/",                      // marker with no digits
		"Chrome/999.0.0.0",             // out of universe
		"Edg/999999999999999999999999", // overflows int
	}
	for _, s := range junk {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) should fail", s)
		}
		if r, ok := ParseRelease(s); ok || r != (Release{}) {
			t.Fatalf("ParseRelease(%q) = %s, %v; should fail with the zero release", s, r, ok)
		}
	}
	// Rejecting costs what accepting does: the hostile header must not
	// be the expensive one.
	for _, s := range junk {
		if allocs := testing.AllocsPerRun(100, func() { ParseRelease(s) }); allocs != 0 {
			t.Fatalf("ParseRelease(%q) allocates %v objects", s, allocs)
		}
	}
}

// TestParseVersionOverflow pins strconv.Atoi's boundary, which the
// in-line digit loop replaced: the largest int is a version (of no
// modeled release), one more is not a version at all and the next
// marker gets its turn.
func TestParseVersionOverflow(t *testing.T) {
	if v, ok := versionAfter("Edg/9223372036854775807", "Edg/"); !ok || v != math.MaxInt64 {
		t.Fatalf("MaxInt64 parsed as %d, %v", v, ok)
	}
	if _, err := Parse("Edg/9223372036854775807 Chrome/112"); err == nil {
		t.Fatal("an in-range but unmodeled Edg/ version must win and fail")
	}
	r, err := Parse("Edg/9223372036854775808 Chrome/112")
	if err != nil || r != (Release{Chrome, 112}) {
		t.Fatalf("overflowing Edg/ version should fall through to Chrome/: %v, %v", r, err)
	}
}

func TestParseEdgePrecedence(t *testing.T) {
	// Chromium Edge UA contains Chrome/ too; Edg/ must win.
	s := UserAgent(Release{Edge, 112}, Windows10)
	r, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Vendor != Edge || r.Version != 112 {
		t.Fatalf("parsed %s", r)
	}
	// Legacy Edge contains Chrome/64; Edge/ must win.
	s = UserAgent(Release{Edge, 18}, Windows10)
	r, err = Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Vendor != Edge || r.Version != 18 {
		t.Fatalf("parsed legacy %s", r)
	}
}

func TestParseName(t *testing.T) {
	r, err := ParseName("Chrome 110")
	if err != nil || r != (Release{Chrome, 110}) {
		t.Fatalf("ParseName: %v %v", r, err)
	}
	if _, err := ParseName("Safari 17"); err == nil {
		t.Fatal("unknown vendor accepted")
	}
	if _, err := ParseName("Chrome"); err == nil {
		t.Fatal("missing version accepted")
	}
	if _, err := ParseName("Chrome x"); err == nil {
		t.Fatal("non-numeric version accepted")
	}
	if _, err := ParseName("Chrome 12"); err == nil {
		t.Fatal("out-of-universe version accepted")
	}
	if r, err := ParseName("firefox 102"); err != nil || r.Vendor != Firefox {
		t.Fatal("case-insensitive vendor failed")
	}
}

func TestUniverse(t *testing.T) {
	all := Universe(125)
	seen := map[Release]bool{}
	for _, r := range all {
		if !r.Valid() {
			t.Fatalf("universe contains invalid %s", r)
		}
		if seen[r] {
			t.Fatalf("universe contains duplicate %s", r)
		}
		seen[r] = true
	}
	// Chrome 59-125 (67) + Firefox 46-125 (80) + Edge 17-19 (3) + Edge
	// 79-125 (47) = 197.
	if len(all) != 197 {
		t.Fatalf("universe size = %d", len(all))
	}
	// Capped universe for the training window.
	trainUniverse := Universe(114)
	for _, r := range trainUniverse {
		if r.Version > 114 && !r.IsLegacyEdge() {
			t.Fatalf("capped universe contains %s", r)
		}
	}
}

func TestOSStrings(t *testing.T) {
	for _, os := range []OS{Windows10, Windows11, MacOSSonoma, MacOSSequoia, OSUnknown} {
		if os.String() == "" {
			t.Fatal("empty OS string")
		}
	}
}

func TestWindowsUAIndistinguishable(t *testing.T) {
	// Windows 10 and 11 must produce identical UA strings — the frozen
	// platform token is why UA-based OS detection fails.
	r := Release{Chrome, 110}
	if UserAgent(r, Windows10) != UserAgent(r, Windows11) {
		t.Fatal("Windows 10/11 UAs differ")
	}
}

func BenchmarkParse(b *testing.B) {
	s := UserAgent(Release{Edge, 112}, Windows10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}
