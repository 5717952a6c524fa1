package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"polygraph/internal/fingerprint"
	"polygraph/internal/matrix"
	"polygraph/internal/ua"
)

// frameOf is the binary payload of vector's values and userAgent, under
// a session ID that starts with sid.
func frameOf(t testing.TB, vector []float64, userAgent string, sid byte) []byte {
	t.Helper()
	p := fingerprint.Payload{UserAgent: userAgent, Values: fingerprint.VectorToValues(vector)}
	p.SessionID[0] = sid
	frame, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// scoreFrame is what a binary transport does with frame: its header
// (fingerprint.SplitFrame), whose error leaves p empty, then ScoreClass.
func scoreFrame(m *Model, s *Scratch, p *fingerprint.Payload, frame []byte) (Result, []float64, error) {
	sessionID, class, err := fingerprint.SplitFrame(frame)
	if err != nil {
		*p = fingerprint.Payload{Values: p.Values[:0]}
		return Result{}, nil, err
	}
	return m.ScoreClass(s, p, sessionID, class)
}

// frameMismatch scores frame with scratch s into a payload that held
// another session, and describes how the outcome differs from want and
// from what the frame carries — its session ID, user agent and values,
// bit for bit, as the returned vector and as the payload's values,
// which a memo hit leaves empty — or returns "".
func frameMismatch(m *Model, s *Scratch, frame []byte, want Result) string {
	ref, err := fingerprint.UnmarshalBinary(frame)
	if err != nil {
		return err.Error()
	}
	p := fingerprint.Payload{SessionID: [fingerprint.SessionIDSize]byte{0xEE}, UserAgent: "left over", Values: []int64{7}}
	got, vec, err := scoreFrame(m, s, &p, frame)
	switch {
	case err != nil:
		return err.Error()
	case !sameResult(got, want):
		return fmt.Sprintf("got %+v, want %+v", got, want)
	case !matrix.SameBits(vec, fingerprint.ValuesToVector(ref.Values)):
		return fmt.Sprintf("vector %v, the frame carries %v", vec, ref.Values)
	case p.UserAgent != ref.UserAgent || p.SessionID != ref.SessionID:
		return fmt.Sprintf("payload %x %q, the frame carries %x %q", p.SessionID, p.UserAgent, ref.SessionID, ref.UserAgent)
	case len(p.Values) != 0 && !slices.Equal(p.Values, ref.Values):
		return fmt.Sprintf("payload values %v, the frame carries %v", p.Values, ref.Values)
	}
	return ""
}

// checkFrame is frameMismatch as a test failure.
func checkFrame(t testing.TB, m *Model, s *Scratch, frame []byte, want Result, what string) {
	t.Helper()
	if msg := frameMismatch(m, s, frame, want); msg != "" {
		t.Fatalf("%s: %s", what, msg)
	}
}

// frameVector is the vector frame's values decode to.
func frameVector(t testing.TB, frame []byte) []float64 {
	t.Helper()
	p, err := fingerprint.UnmarshalBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint.ValuesToVector(p.Values)
}

// TestScoreFrameWithoutPlan: a model whose components disagree on their
// dimensions has no score plan, and ScoreClass refuses the frame with
// the error ScoreStringWith gives for its vector, which wraps
// ErrNotTrained; an untrained model is refused with ErrNotTrained too.
func TestScoreFrameWithoutPlan(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 5)
	samples, _ := trainFixture(t, 1)
	m.Scaler.Means = m.Scaler.Means[:len(m.Scaler.Means)-1]
	m.plan.Store(nil)
	if _, err := m.readyPlan(); err == nil {
		t.Fatal("a ragged model got a plan")
	}
	frame := frameOf(t, samples[0].Vector, ua.UserAgent(samples[0].UA, ua.Windows10), 1)
	_, wantErr := m.ScoreStringWith(m.NewScratch(), frameVector(t, frame), ua.UserAgent(samples[0].UA, ua.Windows10))
	var p fingerprint.Payload
	_, _, err := scoreFrame(m, m.NewScratch(), &p, frame)
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrNotTrained) {
		t.Fatalf("ScoreClass: %v; ScoreStringWith: %v", err, wantErr)
	}
	var untrained Model
	if _, _, err := scoreFrame(&untrained, untrained.NewScratch(), &p, frame); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("an untrained model: %v, want ErrNotTrained", err)
	}
}

// FuzzScoreFrame: for any bytes, a binary transport's score step —
// fingerprint.SplitFrame, then ScoreClass, scored cold, on the
// doorkeeper's second sighting and then from the verdict memo — agrees
// with UnmarshalBinary and then ScoreStringWith: the same Result, the
// same vector bits, user agent and session ID, or the same error (and an
// empty payload after a decode error). The committed seeds
// (testdata/fuzz/FuzzScoreFrame) are a valid frame of the fixture
// model's width, bad magic, a bad version, a truncated header, a
// truncated varint, a trailing byte, a non-canonical 0x80 0x00 varint, a
// user agent over memoMaxUA and a frame one value short.
func FuzzScoreFrame(f *testing.F) {
	m, _, _ := trainFixtureModel(f, 20)
	ref := m.NewScratch()
	sentinels := []error{fingerprint.ErrPayloadTooLarge, fingerprint.ErrBadPayload, fingerprint.ErrBadVersion, ErrBadInput, ErrNotTrained}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Result
		var vec []float64
		p, wantErr := fingerprint.UnmarshalBinary(data)
		if wantErr == nil {
			vec = fingerprint.ValuesToVector(p.Values)
			want, wantErr = m.ScoreStringWith(ref, vec, p.UserAgent)
		}
		s := m.NewScratch()
		got := fingerprint.Payload{UserAgent: "left over", Values: []int64{1, 2, 3}}
		for _, pass := range []string{"cold", "doorkeeper", "memo"} {
			if pass == "memo" && wantErr == nil && !MemoHoldsFrame(m, data) {
				t.Fatalf("%s: the frame is not memoised after two sightings", pass)
			}
			res, gotVec, err := scoreFrame(m, s, &got, data)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: ScoreClass: %v; UnmarshalBinary + ScoreStringWith: %v", pass, err, wantErr)
				}
				for _, sentinel := range sentinels {
					if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
						t.Fatalf("%s: ScoreClass's %v and the reference's %v differ on %v", pass, err, wantErr, sentinel)
					}
				}
				if !errors.Is(err, ErrBadInput) && (got.SessionID != [fingerprint.SessionIDSize]byte{} || got.UserAgent != "" || len(got.Values) != 0) {
					t.Fatalf("%s: a failed decode left %+v in the payload", pass, got)
				}
				continue
			}
			switch {
			case err != nil:
				t.Fatalf("%s: ScoreClass: %v; the reference scores %+v", pass, err, want)
			case !sameResult(res, want):
				t.Fatalf("%s: ScoreClass %+v, the reference %+v", pass, res, want)
			case !matrix.SameBits(gotVec, vec):
				t.Fatalf("%s: ScoreClass's vector %v, the frame's %v", pass, gotVec, vec)
			case got.UserAgent != p.UserAgent || got.SessionID != p.SessionID:
				t.Fatalf("%s: payload %x %q, the frame's %x %q", pass, got.SessionID, got.UserAgent, p.SessionID, p.UserAgent)
			}
		}
	})
}

// BenchmarkScoreClass is BenchmarkScoreString's twin for class bytes,
// as a binary payload carries them: repeat answers every call from the
// verdict memo by its class bytes, with no decode; all-distinct gives
// every call a class never seen before — a counter written over the
// first eight bytes of the user agent, which the claim parser does not
// read — so every call decodes and runs the kernel, and the memo must
// not store any. scripts/benchgate.sh holds both to 0 allocs/op.
func BenchmarkScoreClass(b *testing.B) {
	m, _, _ := trainFixtureModel(b, 40)
	samples, _ := trainFixture(b, 5)
	ids, classes, tags := make([][]byte, len(samples)), make([][]byte, len(samples)), make([][]byte, len(samples))
	for i, s := range samples {
		frame := frameOf(b, s.Vector, "00000000"+ua.UserAgent(s.UA, ua.Windows10), byte(i))
		var err error
		if ids[i], classes[i], err = fingerprint.SplitFrame(frame); err != nil {
			b.Fatal(err)
		}
		tags[i] = classes[i][bytes.Index(classes[i], []byte("00000000")):][:8]
	}
	s := m.NewScratch()
	var p fingerprint.Payload
	b.Run("repeat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(classes)
			if _, _, err := m.ScoreClass(s, &p, ids[j], classes[j]); err != nil {
				b.Fatal(err)
			}
		}
	})
	const hexDigits = "0123456789abcdef"
	calls := uint64(0) // across the rounds testing.B runs, so no round repeats another
	b.Run("all-distinct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(classes)
			calls++
			for d := range tags[j] {
				tags[j][d] = hexDigits[calls>>(4*d)&15]
			}
			if _, _, err := m.ScoreClass(s, &p, ids[j], classes[j]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fuzzSeed reads the committed FuzzScoreFrame seed name.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzScoreFrame", name))
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	quoted, ok := strings.CutPrefix(value, "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if header != "go test fuzz v1" || !ok || err != nil {
		t.Fatalf("seed %s is not one []byte in the fuzz corpus format: %v", name, err)
	}
	return []byte(data)
}

// TestScoreFrameSeeds keeps the committed FuzzScoreFrame seeds what
// their names say: each seed's frame fails with its error and message,
// or scores.
func TestScoreFrameSeeds(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 20)
	for name, want := range map[string]struct {
		err error
		msg string
	}{
		"valid":             {},
		"bad-magic":         {fingerprint.ErrBadPayload, "bad magic"},
		"bad-version":       {fingerprint.ErrBadVersion, "version 2"},
		"truncated-header":  {fingerprint.ErrBadPayload, "truncated header"},
		"truncated-varint":  {fingerprint.ErrBadPayload, "truncated value"},
		"trailing-byte":     {fingerprint.ErrBadPayload, "1 trailing bytes"},
		"noncanonical-zero": {},
		"ua-over-memo-max":  {fingerprint.ErrPayloadTooLarge, "bytes"},
		"wrong-width":       {ErrBadInput, "model expects"},
	} {
		data := fuzzSeed(t, name)
		var p fingerprint.Payload
		_, _, err := scoreFrame(m, m.NewScratch(), &p, data)
		if (want.err == nil) != (err == nil) || (want.err != nil && (!errors.Is(err, want.err) || !strings.Contains(err.Error(), want.msg))) {
			t.Errorf("seed %s: %v, want %v (%s)", name, err, want.err, want.msg)
		}
		if name == "ua-over-memo-max" && !strings.Contains(string(data), strings.Repeat("x", memoMaxUA)) {
			t.Errorf("seed %s carries no user agent over memoMaxUA", name)
		}
		if name == "noncanonical-zero" && !strings.Contains(string(data), "\x80\x00") {
			t.Errorf("seed %s carries no 0x80 0x00 varint", name)
		}
	}
}
