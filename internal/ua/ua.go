// Package ua models browser identities: vendor + major version releases,
// user-agent string synthesis and parsing, and the vendor/version distance
// that Browser Polygraph's risk-factor computation (paper Algorithm 1)
// is built on.
//
// The reproduction covers the release universe of the paper (§6.1):
// Chrome 59–119, Firefox 46–119, Edge 17–19 (EdgeHTML) and Edge 79–119
// (Chromium), with headroom beyond 119 for drift experiments.
package ua

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vendor identifies a browser family.
type Vendor uint8

const (
	VendorUnknown Vendor = iota
	Chrome
	Firefox
	Edge
)

// String returns the canonical vendor name.
func (v Vendor) String() string {
	switch v {
	case Chrome:
		return "Chrome"
	case Firefox:
		return "Firefox"
	case Edge:
		return "Edge"
	default:
		return "Unknown"
	}
}

// OS identifies the host operating system a profile claims.
type OS uint8

const (
	OSUnknown OS = iota
	Windows10
	Windows11
	MacOSSonoma
	MacOSSequoia
)

// String returns a human-readable OS name.
func (o OS) String() string {
	switch o {
	case Windows10:
		return "Windows 10"
	case Windows11:
		return "Windows 11"
	case MacOSSonoma:
		return "macOS Sonoma"
	case MacOSSequoia:
		return "macOS Sequoia"
	default:
		return "Unknown OS"
	}
}

// uaPlatform returns the platform fragment of a user-agent string.
// Windows 11 intentionally reports the same token as Windows 10 — real
// user-agents froze the platform version, which is why the paper treats
// the OS as unreliable and fingerprints the JS surface instead.
func (o OS) uaPlatform() string {
	switch o {
	case Windows10, Windows11:
		return "Windows NT 10.0; Win64; x64"
	case MacOSSonoma:
		return "Macintosh; Intel Mac OS X 10_15_7"
	case MacOSSequoia:
		return "Macintosh; Intel Mac OS X 10_15_7"
	default:
		return "X11; Linux x86_64"
	}
}

// Release is a browser vendor plus major version ("Chrome 112").
type Release struct {
	Vendor  Vendor
	Version int
}

// String implements fmt.Stringer: "Chrome 112".
func (r Release) String() string {
	return fmt.Sprintf("%s %d", r.Vendor, r.Version)
}

// IsZero reports whether the release is unset.
func (r Release) IsZero() bool { return r.Vendor == VendorUnknown && r.Version == 0 }

// Valid reports whether the release lies in the modeled universe.
func (r Release) Valid() bool {
	switch r.Vendor {
	case Chrome:
		return r.Version >= 59 && r.Version <= 125
	case Firefox:
		return r.Version >= 46 && r.Version <= 125
	case Edge:
		return (r.Version >= 17 && r.Version <= 19) || (r.Version >= 79 && r.Version <= 125)
	default:
		return false
	}
}

// IsLegacyEdge reports whether the release is EdgeHTML-based Edge (17–19).
func (r Release) IsLegacyEdge() bool {
	return r.Vendor == Edge && r.Version >= 17 && r.Version <= 19
}

// MaxDistance is the vendor-mismatch distance of Algorithm 1.
const MaxDistance = 20

// DefaultVersionDivisor is the empirical divisor of Algorithm 1 ("divide
// this difference by 4", paper §6.5).
const DefaultVersionDivisor = 4

// Distance implements the paper's Algorithm 1 distance between two
// releases: MaxDistance across vendors, floor(|Δversion| / divisor)
// within a vendor.
func Distance(a, b Release, divisor int) int {
	if divisor <= 0 {
		divisor = DefaultVersionDivisor
	}
	if a.Vendor != b.Vendor {
		return MaxDistance
	}
	d := a.Version - b.Version
	if d < 0 {
		d = -d
	}
	return d / divisor
}

// UserAgent renders a realistic user-agent string for the release on the
// given OS. The formats follow the shapes real browsers shipped in the
// covered era.
func UserAgent(r Release, os OS) string {
	plat := os.uaPlatform()
	switch {
	case r.Vendor == Firefox:
		// Gecko UAs cap rv at 109 for versions ≥ 110 era quirks are
		// irrelevant here; keep rv == version for parse simplicity.
		return fmt.Sprintf("Mozilla/5.0 (%s; rv:%d.0) Gecko/20100101 Firefox/%d.0",
			plat, r.Version, r.Version)
	case r.Vendor == Edge && r.IsLegacyEdge():
		return fmt.Sprintf("Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) "+
			"Chrome/64.0.3282.140 Safari/537.36 Edge/%d.17763", plat, r.Version)
	case r.Vendor == Edge:
		return fmt.Sprintf("Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) "+
			"Chrome/%d.0.0.0 Safari/537.36 Edg/%d.0.0.0", plat, r.Version, r.Version)
	case r.Vendor == Chrome:
		return fmt.Sprintf("Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) "+
			"Chrome/%d.0.0.0 Safari/537.36", plat, r.Version)
	default:
		return "Mozilla/5.0 (compatible)"
	}
}

// Parse extracts the release from a user-agent string. Recognition order
// matters: Chromium-Edge UAs contain both "Chrome/" and "Edg/", legacy
// Edge contains "Chrome/" and "Edge/". Unrecognized strings return an
// error rather than a zero release so callers must handle junk input.
func Parse(userAgent string) (Release, error) {
	r, ok := recognize(userAgent)
	if !ok {
		return Release{}, fmt.Errorf("ua: unrecognized user-agent %q", truncate(userAgent, 64))
	}
	return checked(r)
}

// ParseRelease is Parse for callers that act on failure without
// reporting it — the scoring path, where an unparseable claim is simply
// maximally risky. It accepts exactly what Parse accepts and allocates
// nothing either way, so a junk header costs no more than an honest one.
func ParseRelease(userAgent string) (Release, bool) {
	r, ok := recognize(userAgent)
	if !ok || !r.Valid() {
		return Release{}, false
	}
	return r, true
}

// recognize finds the vendor marker and the version after it; the
// release may still lie outside the modeled universe.
func recognize(userAgent string) (Release, bool) {
	if v, ok := versionAfter(userAgent, "Edg/"); ok {
		return Release{Vendor: Edge, Version: v}, true
	}
	if v, ok := versionAfter(userAgent, "Edge/"); ok {
		return Release{Vendor: Edge, Version: v}, true
	}
	if v, ok := versionAfter(userAgent, "Firefox/"); ok {
		return Release{Vendor: Firefox, Version: v}, true
	}
	if v, ok := versionAfter(userAgent, "Chrome/"); ok {
		return Release{Vendor: Chrome, Version: v}, true
	}
	return Release{}, false
}

func checked(r Release) (Release, error) {
	if !r.Valid() {
		return Release{}, fmt.Errorf("ua: release %s outside modeled universe", r)
	}
	return r, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// versionAfter finds marker in s and parses the integer that follows up
// to the next '.' or non-digit.
func versionAfter(s, marker string) (int, bool) {
	i := strings.Index(s, marker)
	if i < 0 {
		return 0, false
	}
	rest := s[i+len(marker):]
	v, end := 0, 0
	for ; end < len(rest) && rest[end] >= '0' && rest[end] <= '9'; end++ {
		// strconv.Atoi's range check without its error: a digit run that
		// overflows int is not a version, and saying so must not allocate.
		d := int(rest[end] - '0')
		if v > (math.MaxInt-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, end > 0
}

// ParseName parses the compact "Chrome 112" notation used in tables,
// logs, and the CLI.
func ParseName(name string) (Release, error) {
	fields := strings.Fields(name)
	if len(fields) != 2 {
		return Release{}, fmt.Errorf("ua: bad release name %q", name)
	}
	var vendor Vendor
	switch strings.ToLower(fields[0]) {
	case "chrome":
		vendor = Chrome
	case "firefox":
		vendor = Firefox
	case "edge":
		vendor = Edge
	default:
		return Release{}, fmt.Errorf("ua: unknown vendor %q", fields[0])
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil {
		return Release{}, fmt.Errorf("ua: bad version in %q: %w", name, err)
	}
	return checked(Release{Vendor: vendor, Version: v})
}

// Universe returns every valid release in the modeled ranges, in a stable
// order (Chrome ascending, Firefox ascending, Edge ascending). maxVersion
// caps modern-vendor versions, letting callers model a point in time
// (e.g. 114 for the paper's training window, 119 for the drift window).
func Universe(maxVersion int) []Release {
	var out []Release
	for v := 59; v <= maxVersion && v <= 125; v++ {
		out = append(out, Release{Vendor: Chrome, Version: v})
	}
	for v := 46; v <= maxVersion && v <= 125; v++ {
		out = append(out, Release{Vendor: Firefox, Version: v})
	}
	for v := 17; v <= 19; v++ {
		out = append(out, Release{Vendor: Edge, Version: v})
	}
	for v := 79; v <= maxVersion && v <= 125; v++ {
		out = append(out, Release{Vendor: Edge, Version: v})
	}
	return out
}
