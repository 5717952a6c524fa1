package fingerprint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// MaxPayloadSize is FinOrg's hard per-user data budget: "data extracted
// per-user should be minimal, under the threshold of one kilobyte" (§3).
// MarshalBinary enforces it.
const MaxPayloadSize = 1024

// The magic bytes ("bP" — browser Polygraph) and version frame the wire
// format so servers can reject junk cheaply before parsing.
const (
	magicByte0     = 'b'
	magicByte1     = 'P'
	payloadVersion = 1
)

// SessionIDSize is the size of the opaque anonymized session identifier
// FinOrg attaches to each collection (appendix A: "completely opaque and
// randomized").
const SessionIDSize = 16

// Payload is one client collection: the opaque session ID, the claimed
// user-agent string, and the integer outputs of the candidate features —
// the only data the paper's script ships (§6.2).
type Payload struct {
	SessionID [SessionIDSize]byte
	UserAgent string
	Values    []int64
}

// Errors returned by the codec.
var (
	ErrPayloadTooLarge = errors.New("fingerprint: payload exceeds 1 KB budget")
	ErrBadPayload      = errors.New("fingerprint: malformed payload")
	// ErrBadVersion is a refinement of ErrBadPayload (errors.Is matches
	// both) so the serving tier can count version-skew rejects — a fleet
	// rollout signal — separately from garbage payloads.
	ErrBadVersion = errors.New("fingerprint: unsupported payload version")
)

// MarshalBinary encodes the payload in the compact wire format:
//
//	magic[2] version[1] sessionID[16]
//	uaLen:uvarint ua[uaLen]
//	nValues:uvarint value*:varint (zig-zag)
//
// It fails with ErrPayloadTooLarge when the encoding exceeds
// MaxPayloadSize — by construction a 28-feature payload is ~150 bytes,
// and even the full 513-candidate collection fits.
func (p *Payload) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = append(buf, magicByte0, magicByte1, payloadVersion)
	buf = append(buf, p.SessionID[:]...)
	buf = AppendClass(buf, p.UserAgent, p.Values)
	if len(buf) > MaxPayloadSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(buf))
	}
	return buf, nil
}

// AppendClass appends to dst the class bytes of a session that claims
// userAgent and reports values: what MarshalBinary writes after the
// session ID, uvarint(len userAgent) userAgent uvarint(len values)
// varint(v)…. Two sessions of one fingerprint class send the same class
// bytes, so they key every per-class table: the verdict memo and the
// audit ledger's classes.
func AppendClass(dst []byte, userAgent string, values []int64) []byte {
	dst = appendClassHead(dst, userAgent, len(values))
	for _, v := range values {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// AppendVectorClass appends to dst the class bytes of userAgent and the
// wire values of vector (VectorToValues), as MarshalBinary would send
// them, without a values slice. It is false, with dst as it came, when a
// coordinate does not round-trip bit for bit through int64 — −0, NaN,
// ±Inf, a fraction, |x| ≥ 2⁶³ — since then no class bytes name the
// vector.
func AppendVectorClass(dst []byte, userAgent string, vector []float64) ([]byte, bool) {
	n := len(dst)
	dst = appendClassHead(dst, userAgent, len(vector))
	for _, x := range vector {
		v := int64(x)
		if !(math.Abs(x) < 0x1p63) || math.Float64bits(float64(v)) != math.Float64bits(x) {
			return dst[:n], false
		}
		dst = binary.AppendVarint(dst, v)
	}
	return dst, true
}

func appendClassHead(dst []byte, userAgent string, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(userAgent)))
	dst = append(dst, userAgent...)
	return binary.AppendUvarint(dst, uint64(n))
}

// UnmarshalBinary decodes a payload produced by MarshalBinary. It
// validates framing, bounds every length against the remaining input,
// and rejects oversized payloads, so it is safe on untrusted network
// input.
func UnmarshalBinary(data []byte) (*Payload, error) {
	p := new(Payload)
	if err := p.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalBinary is the package-level UnmarshalBinary decoding into the
// receiver, for callers that decode many frames into one Payload: every
// field is overwritten and the capacity of Values is reused, so what the
// payload held before never shows through. An error leaves the payload
// empty.
func (p *Payload) UnmarshalBinary(data []byte) error {
	sessionID, class, err := SplitFrame(data)
	if err == nil {
		err = p.decodeClass(class)
	}
	if err != nil {
		*p = Payload{Values: p.Values[:0]}
		return err
	}
	copy(p.SessionID[:], sessionID)
	p.UserAgent = strings.Clone(p.UserAgent)
	return nil
}

// UnmarshalClassBorrowed decodes class bytes (SplitFrame's, or
// AppendClass's) into p's user agent and values, leaving its session ID
// as it is, without allocating: p.UserAgent is a view of class
// (BorrowUserAgent), for the serving tier, which holds every frame until
// its request is answered. An error leaves the payload empty.
func (p *Payload) UnmarshalClassBorrowed(class []byte) error {
	err := p.decodeClass(class)
	if err != nil {
		*p = Payload{Values: p.Values[:0]}
	}
	return err
}

// BorrowUserAgent sets p.UserAgent to a view of ua, not a copy of it.
// The string reads whatever ua's bytes hold at the time: it is good
// until the owner of ua writes to them again, and whoever keeps it
// longer than that must strings.Clone it first. This is the package's,
// and the program's, one use of unsafe.
func (p *Payload) BorrowUserAgent(ua []byte) {
	p.UserAgent = unsafe.String(unsafe.SliceData(ua), len(ua))
}

// SplitFrame checks the header of a binary payload — its size against
// MaxPayloadSize, its magic and its version — and splits what follows
// into the session ID and the class bytes: the user agent and the
// values, everything two sessions of one fingerprint class send alike.
// The class bytes are not read; decoding them may still fail.
func SplitFrame(data []byte) (sessionID, class []byte, err error) {
	if len(data) > MaxPayloadSize {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(data))
	}
	if len(data) < 3+SessionIDSize {
		return nil, nil, fmt.Errorf("%w: truncated header", ErrBadPayload)
	}
	if data[0] != magicByte0 || data[1] != magicByte1 {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadPayload)
	}
	if data[2] != payloadVersion {
		return nil, nil, fmt.Errorf("%w: %w %d", ErrBadPayload, ErrBadVersion, data[2])
	}
	return data[3 : 3+SessionIDSize], data[3+SessionIDSize:], nil
}

// decodeClass is the codec's one decoder of class bytes, into p's user
// agent, borrowed from rest, and its values.
func (p *Payload) decodeClass(rest []byte) error {
	uaLen, n := binary.Uvarint(rest)
	if n <= 0 || uaLen > uint64(len(rest)-n) {
		return fmt.Errorf("%w: bad user-agent length", ErrBadPayload)
	}
	rest = rest[n:]
	p.BorrowUserAgent(rest[:uaLen])
	rest = rest[uaLen:]

	nVals, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: bad value count", ErrBadPayload)
	}
	rest = rest[n:]
	// Each varint takes ≥ 1 byte; cheap upper-bound check prevents
	// attacker-controlled huge allocations.
	if nVals > uint64(len(rest)) {
		return fmt.Errorf("%w: value count %d exceeds payload", ErrBadPayload, nVals)
	}
	if uint64(cap(p.Values)) < nVals {
		p.Values = make([]int64, nVals)
	}
	p.Values = p.Values[:nVals]
	for i := range p.Values {
		// binary.Varint, with the one- and two-byte encodings — every
		// value below 8 192, which is all of Table 8's counts — read in
		// line. Both short cases take the first byte's low seven bits as
		// binary.Uvarint does, so the same byte strings are accepted,
		// the non-canonical 0x80 0x00 included; longer varints and the
		// empty tail go to binary.Uvarint itself.
		var ux uint64
		n := 1
		switch {
		case len(rest) >= 1 && rest[0] < 0x80:
			ux = uint64(rest[0])
		case len(rest) >= 2 && rest[1] < 0x80:
			ux = uint64(rest[0]&0x7f) | uint64(rest[1])<<7
			n = 2
		default:
			if ux, n = binary.Uvarint(rest); n <= 0 {
				return fmt.Errorf("%w: truncated value %d", ErrBadPayload, i)
			}
		}
		v := int64(ux >> 1) // zig-zag
		if ux&1 != 0 {
			v = ^v
		}
		p.Values[i] = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return nil
}

// VectorToValues converts an extracted float vector (whose entries are
// integral by construction) into wire values.
func VectorToValues(v []float64) []int64 {
	out := make([]int64, len(v))
	for i, f := range v {
		out[i] = int64(f)
	}
	return out
}

// ValuesToVector converts wire values back into a float vector for the
// model.
func ValuesToVector(v []int64) []float64 {
	return ValuesToVectorInto(nil, v)
}

// ValuesToVectorInto converts into dst, reusing its capacity when it
// fits and allocating only when it does not — the per-request fast path
// of the serving tier. It returns the (possibly regrown) destination.
func ValuesToVectorInto(dst []float64, v []int64) []float64 {
	if cap(dst) < len(v) {
		dst = make([]float64, len(v))
	}
	dst = dst[:len(v)]
	for i, x := range v {
		dst[i] = float64(x)
	}
	return dst
}
