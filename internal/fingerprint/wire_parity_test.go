package fingerprint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// decodeReference is (*Payload).decode with every value read by
// binary.Varint — what the in-line one- and two-byte path must accept,
// reject and produce exactly.
func decodeReference(data []byte) (*Payload, error) {
	if len(data) > MaxPayloadSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(data))
	}
	if len(data) < 3+SessionIDSize {
		return nil, fmt.Errorf("%w: truncated header", ErrBadPayload)
	}
	if data[0] != magicByte0 || data[1] != magicByte1 {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPayload)
	}
	if data[2] != payloadVersion {
		return nil, fmt.Errorf("%w: %w %d", ErrBadPayload, ErrBadVersion, data[2])
	}
	p := new(Payload)
	copy(p.SessionID[:], data[3:3+SessionIDSize])
	rest := data[3+SessionIDSize:]
	uaLen, n := binary.Uvarint(rest)
	if n <= 0 || uaLen > uint64(len(rest)-n) {
		return nil, fmt.Errorf("%w: bad user-agent length", ErrBadPayload)
	}
	rest = rest[n:]
	p.UserAgent = string(rest[:uaLen])
	rest = rest[uaLen:]
	nVals, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad value count", ErrBadPayload)
	}
	rest = rest[n:]
	if nVals > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: value count %d exceeds payload", ErrBadPayload, nVals)
	}
	p.Values = make([]int64, nVals)
	for i := range p.Values {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated value %d", ErrBadPayload, i)
		}
		p.Values[i] = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return p, nil
}

// checkDecodeParity decodes data both ways and demands the same error
// text or the same payload.
func checkDecodeParity(t *testing.T, data []byte) {
	t.Helper()
	got, err := UnmarshalBinary(data)
	want, werr := decodeReference(data)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("% x: decode error %v, reference %v", data, err, werr)
	}
	if err != nil {
		return
	}
	if got.SessionID != want.SessionID || got.UserAgent != want.UserAgent || !slices.Equal(got.Values, want.Values) {
		t.Fatalf("% x: decoded %+v, reference %+v", data, got, want)
	}
}

// valueFrame is a well-formed header claiming count values, followed by
// raw — the value bytes exactly as given, canonical or not.
func valueFrame(count int, raw []byte) []byte {
	buf := []byte{magicByte0, magicByte1, payloadVersion}
	buf = append(buf, bytes.Repeat([]byte{0x5A}, SessionIDSize)...)
	buf = binary.AppendUvarint(buf, 2)
	buf = append(buf, "ua"...)
	buf = binary.AppendUvarint(buf, uint64(count))
	return append(buf, raw...)
}

// varintEdgeFrames are the frames on either side of every branch of the
// in-line decode: the one-/two-/three-byte boundaries and the int64
// extremes, non-canonical spellings, and varints that overflow.
func varintEdgeFrames() [][]byte {
	boundary := []int64{0, 1, -1, 63, -63, 64, -64, 65, 8191, -8191, 8192, -8192, 8193,
		math.MaxInt64, math.MinInt64}
	var all []byte
	var frames [][]byte
	for _, v := range boundary {
		enc := binary.AppendVarint(nil, v)
		frames = append(frames, valueFrame(1, enc))
		all = append(all, enc...)
	}
	frames = append(frames, valueFrame(len(boundary), all))
	for _, raw := range [][]byte{
		{0x80, 0x00},             // 0, one byte too long
		{0x81, 0x00},             // −1, one byte too long
		{0xFF, 0x00},             // −64, one byte too long
		{0x80, 0x80, 0x00},       // 0 in three bytes: the long path
		{0x80, 0x80, 0x80, 0x00}, // and in four
		{0x80},                   // continuation bit, then nothing
		{0x80, 0x80},
		append(bytes.Repeat([]byte{0xFF}, 9), 0x01), // MinInt64: the longest that fits
		append(bytes.Repeat([]byte{0xFF}, 9), 0x02), // 10-byte overflow
		append(bytes.Repeat([]byte{0x80}, 10), 0x00),
		bytes.Repeat([]byte{0xFF}, 12),
	} {
		frames = append(frames, valueFrame(1, raw))
		// The same bytes behind a good value and ahead of one.
		frames = append(frames, valueFrame(3, append(append([]byte{0x02}, raw...), 0x04)))
	}
	return frames
}

// TestDecodeInlineVarintParity holds the in-line path to the
// binary.Varint-only reference on every edge frame and on every
// truncation of each.
func TestDecodeInlineVarintParity(t *testing.T) {
	for _, frame := range varintEdgeFrames() {
		for cut := 0; cut <= len(frame); cut++ {
			checkDecodeParity(t, frame[:cut])
		}
	}
}

// TestUnmarshalBinaryBorrowedAliases pins the two lifetimes: the
// borrowed decode allocates nothing and its user agent reads the frame's
// bytes as they are now, the exported pair's is the caller's to keep.
func TestUnmarshalBinaryBorrowedAliases(t *testing.T) {
	frame, err := (&Payload{UserAgent: "Mozilla/5.0 Chrome/112.0.0.0", Values: []int64{1, 2, 3}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var copied, borrowed Payload
	if err := copied.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := borrowed.UnmarshalBinaryBorrowed(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("borrowed decode into a reused payload: %v allocs, want 0", n)
	}
	if borrowed.UserAgent != copied.UserAgent {
		t.Fatalf("borrowed %q, copied %q", borrowed.UserAgent, copied.UserAgent)
	}
	for i := range frame {
		frame[i] = 0xAA
	}
	if copied.UserAgent != "Mozilla/5.0 Chrome/112.0.0.0" {
		t.Fatalf("UnmarshalBinary's user agent follows the frame: %q", copied.UserAgent)
	}
	if want := string(bytes.Repeat([]byte{0xAA}, len(copied.UserAgent))); borrowed.UserAgent != want {
		t.Fatalf("UnmarshalBinaryBorrowed's user agent is a copy: %q", borrowed.UserAgent)
	}
}
