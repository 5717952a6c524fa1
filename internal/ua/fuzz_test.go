package ua

import "testing"

// FuzzParse hardens user-agent parsing against hostile header values: it
// must never panic, Parse and ParseRelease must accept the same strings
// with the same release, and anything accepted must be a valid release
// that re-renders to a string Parse accepts identically.
func FuzzParse(f *testing.F) {
	f.Add("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36")
	f.Add("Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:109.0) Gecko/20100101 Firefox/109.0")
	f.Add("Chrome/")
	f.Add("Edge/18.17763 Chrome/64")
	f.Add("Edg/999999999999999999999999")
	f.Add("")
	f.Add("Chrome/112 Edg/113 Edge/18 Firefox/99")

	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if fast, ok := ParseRelease(s); ok != (err == nil) || fast != r {
			t.Fatalf("%q: Parse = %v, %v; ParseRelease = %v, %v", s, r, err, fast, ok)
		}
		if err != nil {
			return
		}
		if !r.Valid() {
			t.Fatalf("Parse accepted invalid release %v from %q", r, s)
		}
		rendered := UserAgent(r, Windows10)
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered UA %q rejected: %v", rendered, err)
		}
		if again != r {
			t.Fatalf("render/parse roundtrip: %v -> %v", r, again)
		}
	})
}
