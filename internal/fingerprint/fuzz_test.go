package fingerprint

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzUnmarshalBinary hardens the codec against hostile network input:
// it must never panic, never over-allocate, agree with the
// binary.Varint-only reference decoder on what it accepts, rejects and
// produces, anything it accepts must re-encode to a payload it accepts
// again, and decoding into a Payload
// that held another session — copying the user agent, or borrowing it as
// the serving tier does — must give what decoding into a fresh one
// gives — the same fields on success, the same error and an empty
// payload on failure — because the TCP listener decodes every frame of a
// connection into one Payload.
func FuzzUnmarshalBinary(f *testing.F) {
	// Seed corpus: a valid payload, truncations, mutations.
	valid := &Payload{UserAgent: "Mozilla/5.0 Chrome/112.0.0.0", Values: []int64{1, 2, 3, -4, 1 << 40}}
	enc, err := valid.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	f.Add([]byte{})
	f.Add([]byte("bP"))
	f.Add(append([]byte{'b', 'P', 1}, bytes.Repeat([]byte{0xFF}, 40)...))
	mut := append([]byte(nil), enc...)
	mut[5] ^= 0x80
	f.Add(mut)
	for _, frame := range varintEdgeFrames() {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeParity(t, data)
		p, err := UnmarshalBinary(data)
		for name, decode := range map[string]func(*Payload, []byte) error{
			"reused":   (*Payload).UnmarshalBinary,
			"borrowed": (*Payload).UnmarshalBinaryBorrowed,
		} {
			dirty := &Payload{
				SessionID: [SessionIDSize]byte{0xAA, 0xBB, 15: 0xCC},
				UserAgent: "left over from the previous frame",
				Values:    []int64{9, 8, 7, 6, 5, 4, 3, 2, 1, -1, -2, -3, -4, -5, -6, -7, -8, -9, 1 << 50, -1 << 50}[:12],
			}
			derr := decode(dirty, data)
			if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
				t.Fatalf("fresh decode: %v; %s decode: %v", err, name, derr)
			}
			if err != nil {
				if dirty.SessionID != [SessionIDSize]byte{} || dirty.UserAgent != "" || len(dirty.Values) != 0 {
					t.Fatalf("failed %s decode left %+v in the payload", name, dirty)
				}
				continue
			}
			if dirty.SessionID != p.SessionID || dirty.UserAgent != p.UserAgent || !slices.Equal(dirty.Values, p.Values) {
				t.Fatalf("%s decode gave %+v, a fresh one %+v", name, dirty, p)
			}
		}
		if err != nil {
			if p != nil {
				t.Fatal("failed decode returned a payload")
			}
			return
		}
		// Accepted payloads must roundtrip.
		re, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted payload fails to re-encode: %v", err)
		}
		p2, err := UnmarshalBinary(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if p2.UserAgent != p.UserAgent || p2.SessionID != p.SessionID || len(p2.Values) != len(p.Values) {
			t.Fatal("roundtrip mismatch")
		}
		for i := range p.Values {
			if p.Values[i] != p2.Values[i] {
				t.Fatal("value mismatch after roundtrip")
			}
		}
	})
}
