package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// sightings is how often a test posts one class: enough that two posts
// in a row take the same pooled scoreBuf, whose doorkeeper then admits
// the class, even under -race, where sync.Pool drops a quarter of Puts.
const sightings = 20

// fresh is a copy of m with a memo of its own: the library verdict, which
// nothing the server does can touch.
func fresh(t *testing.T, m *core.Model) *core.Model {
	t.Helper()
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	c, err := core.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// postVerdict posts body to srv and requires a 200 carrying want's
// verdict.
func postVerdict(t *testing.T, srv *Server, endpoint string, body []byte, want core.Result, what string) {
	t.Helper()
	rec := post(srv, endpoint, bytes.NewReader(body))
	var d Decision
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &d) != nil {
		t.Fatalf("%s: %d %s", what, rec.Code, rec.Body)
	}
	if d.Cluster != want.Cluster || d.Matched != want.Matched || d.RiskFactor != want.RiskFactor || d.Flagged != want.Flagged() {
		t.Fatalf("%s: answered %+v, the library gives %+v", what, d, want)
	}
}

// memoHolds reports whether m's verdict memo answers (vector, userAgent),
// a class the memo may store, by what one more sighting costs a fresh
// scorer: a held class is a hit, twice, and allocates nothing; any other
// is a miss, and on the second the scorer's doorkeeper admits it, which
// allocates the entry.
func memoHolds(m *core.Model, vector []float64, userAgent string) bool {
	s := m.NewScratch()
	return testing.AllocsPerRun(1, func() { m.ScoreStringWith(s, vector, userAgent) }) == 0
}

// frameEntry scores frame on a fresh scorer and returns the vector a memo
// hit hands out, the entry's own, or nil on a miss, which decodes the
// frame's values into the payload.
func frameEntry(t *testing.T, m *core.Model, frame []byte) *float64 {
	t.Helper()
	var p fingerprint.Payload
	sessionID, class, err := fingerprint.SplitFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	_, vec, err := m.ScoreClass(m.NewScratch(), &p, sessionID, class)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != 0 {
		return nil
	}
	return &vec[0]
}

// TestOneMemoEntryPerClass: one Server is sent a class as JSON and then
// as binary, and another as binary and then as JSON. Each class takes one
// memo entry, the first form's: the second form's requests hit it, so it
// is still the entry a fresh scorer's frame finds, and no request admits
// another.
func TestOneMemoEntryPerClass(t *testing.T) {
	m, d := testModel(t)
	lib := fresh(t, m)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	firefox := ua.Release{Vendor: ua.Firefox, Version: 110}
	for _, c := range []struct {
		name      string
		p         *fingerprint.Payload
		jsonFirst bool
	}{
		{"JSON then binary", payloadFor(d, chrome, chrome), true},
		{"binary then JSON", payloadFor(d, firefox, chrome), false},
	} {
		vec := fingerprint.ValuesToVector(c.p.Values)
		want, err := lib.ScoreString(vec, c.p.UserAgent)
		if err != nil {
			t.Fatal(err)
		}
		frame := binaryBodyFor(t, c.p)
		jsonForm := func() {
			for i := 0; i < sightings; i++ {
				postVerdict(t, srv, EndpointJSON, jsonBodyFor(t, c.p), want, c.name+", JSON")
			}
		}
		binaryForm := func() {
			for i := 0; i < sightings; i++ {
				postVerdict(t, srv, EndpointBinary, frame, want, c.name+", binary")
			}
		}
		first, second := binaryForm, jsonForm
		if c.jsonFirst {
			first, second = jsonForm, binaryForm
		}
		first()
		entry := frameEntry(t, m, frame)
		if entry == nil || !memoHolds(m, vec, c.p.UserAgent) {
			t.Fatalf("%s: after the first form, the frame's hit %v, the vector's %v", c.name, entry != nil, memoHolds(m, vec, c.p.UserAgent))
		}
		second()
		if again := frameEntry(t, m, frame); again != entry {
			t.Fatalf("%s: the second form's requests admitted another entry of the class", c.name)
		}
	}
}

// TestJSONRouteSizeContract pins what the JSON route scores: the payload
// as decoded, never re-encoded into a binary payload, whose 1 KB budget
// (fingerprint.MaxPayloadSize) is the binary route's. A session whose
// user agent is 1 000 bytes — at most the memo's 1 KB cap, while its
// binary form is over budget — is answered with the library verdict every
// time and memoised; one whose user agent is 1 500 bytes is answered
// every time and never stored.
func TestJSONRouteSizeContract(t *testing.T) {
	m, d := testModel(t)
	lib := fresh(t, m)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	for _, size := range []int{1000, 1500} {
		p := payloadFor(d, chrome, chrome)
		p.UserAgent += strings.Repeat("x", size-len(p.UserAgent))
		if _, err := p.MarshalBinary(); !errors.Is(err, fingerprint.ErrPayloadTooLarge) {
			t.Fatalf("%d-byte user agent: the binary form is within budget (%v); the test shows nothing", size, err)
		}
		vec := fingerprint.ValuesToVector(p.Values)
		want, err := lib.ScoreString(vec, p.UserAgent)
		if err != nil {
			t.Fatal(err)
		}
		body := jsonBodyFor(t, p)
		for i := 0; i < sightings; i++ {
			postVerdict(t, srv, EndpointJSON, body, want, fmt.Sprintf("%d-byte user agent, sighting %d", size, i))
		}
		// Whether the memo may store the class at all: a fresh scorer on
		// a fresh memo allocates the entry on the second sighting.
		c, cs := fresh(t, m), m.NewScratch()
		storable := testing.AllocsPerRun(1, func() { c.ScoreStringWith(cs, vec, p.UserAgent) }) > 0
		if want := size == 1000; storable != want || want && !memoHolds(m, vec, p.UserAgent) {
			t.Fatalf("%d-byte user agent: storable %v, want %v; held %v", size, storable, want, memoHolds(m, vec, p.UserAgent))
		}
	}
}

// TestJSONAndBinaryShareClassEntry: a class posted as JSON is keyed by
// the class bytes its binary frame carries, so the entry its JSON
// sightings admit is the one that frame hits — also for a coordinate
// that a float64 rounds (2⁵³+1 reads as 2⁵³), which a key encoded from
// the float vector would file under another class. Both routes answer
// the library's verdict.
func TestJSONAndBinaryShareClassEntry(t *testing.T) {
	m, d := testModel(t)
	lib := fresh(t, m)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	chrome := ua.Release{Vendor: ua.Chrome, Version: 112}
	for _, c := range []struct {
		name  string
		value int64
	}{
		{"2⁵³+1", 1<<53 + 1},
		{"2⁵³", 1 << 53},
		{"negative", -7},
	} {
		p := payloadFor(d, chrome, chrome)
		p.Values[0] = c.value
		want, err := lib.ScoreString(fingerprint.ValuesToVector(p.Values), p.UserAgent)
		if err != nil {
			t.Fatal(err)
		}
		body, frame := jsonBodyFor(t, p), binaryBodyFor(t, p)
		for i := 0; i < sightings; i++ {
			postVerdict(t, srv, EndpointJSON, body, want, c.name+", JSON")
		}
		if frameEntry(t, m, frame) == nil {
			t.Fatalf("%s: the class's binary frame misses the entry its JSON sightings admitted", c.name)
		}
		postVerdict(t, srv, EndpointBinary, frame, want, c.name+", binary")
	}
}
