package audit

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"polygraph/internal/core"
	"polygraph/internal/fphash"
	"polygraph/internal/jsonappend"
	"polygraph/internal/matrix"
)

// Classes. The serving tier's fingerprint is coarse on purpose (paper
// §7.4), so a ledger's records repeat a few hundred (model hash,
// user-agent, vector, verdict) tuples — classes — over and over. A
// segment defines each class it uses once, in a class frame placed
// before the class's first record there, and a record of a defined class
// carries the class id instead of those four fields. Class ids count 1,
// 2, 3, … from the start of each segment, so a segment reads and
// verifies on its own.

// classCap bounds the classes one segment defines. Once a segment defines
// that many it defines no more: a record of a class it defines still
// refers to it, and a record of any other class is written inline, in the
// shape every reader already reads. So traffic whose fingerprints never
// repeat costs at most classCap class frames a segment, the writer's table
// stays bounded, and a flood does not push honest records inline. A class
// the full table does not define that comes back — honest traffic arriving
// after a flood filled the table — starts a new segment, whose table is
// empty (classTable.recurs).
const classCap = 4096

// classSlots sizes the open-addressed table that indexes a segment's
// classes: twice the cap, a power of two, so a probe ends at an empty
// slot quickly.
const classSlots = 2 * classCap

// recurSlots sizes the direct-mapped set of classes a full table has
// written inline.
const recurSlots = 1024

// classHead opens a class frame; the class id follows it.
const classHead = `{"class":`

// A record of a class is packed, not JSON: it holds only the request's own
// provenance, of which key names and hex digits would be most. Its body is
//
//	packedTag | uvarint seq | uvarint class id | int64 time_ns (big-endian)
//	          | trace ID | session ID | uvarint len(endpoint) | endpoint
//
// and an ID is a kind byte and what it names: idHex and the ID's raw bytes
// when it is the serving tier's canonical form (16 lower-case hex digits
// for a trace, 32 for a session), idText, a uvarint length and the bytes
// for any other string, the empty one included. A class frame and an
// inline record are JSON and open with '{', so a body's first byte names
// its shape.
const packedTag = 0x01

// The two kinds of a packed ID.
const (
	idText = 0
	idHex  = 1
)

// The raw sizes of the canonical trace and session IDs.
const (
	traceIDSize   = 8
	sessionIDSize = 16
)

// class is one class of a segment: its id there and what its records
// share.
type class struct {
	id        int
	hash      uint64 // classHash of the four fields
	modelHash string
	userAgent string
	vector    []float64
	verdict   core.Verdict
}

// newClass copies the four fields of rec, of hash h, into a class; the
// writer sets its id when it defines it.
func newClass(h uint64, rec *Record) *class {
	return &class{hash: h, modelHash: strings.Clone(rec.ModelHash), userAgent: strings.Clone(rec.UserAgent),
		vector: slices.Clone(rec.Vector), verdict: rec.Verdict}
}

// resolve fills in what a record of the class leaves out.
func (c *class) resolve(rec *Record) {
	rec.ModelHash, rec.UserAgent, rec.Verdict = c.modelHash, c.userAgent, c.verdict
	rec.Vector = slices.Clone(c.vector)
}

// holds reports whether rec belongs to the class. Floats compare bit for
// bit, as the encoder tells them apart (0 from −0).
func (c *class) holds(h uint64, rec *Record) bool {
	return c.hash == h && c.modelHash == rec.ModelHash && c.userAgent == rec.UserAgent &&
		len(c.vector) == len(rec.Vector) && sameVerdict(c.verdict, rec.Verdict) && matrix.SameBits(c.vector, rec.Vector)
}

func sameVerdict(a, b core.Verdict) bool {
	na, nb := math.Float64bits(a.NoveltyScore), math.Float64bits(b.NoveltyScore)
	a.NoveltyScore, b.NoveltyScore = 0, 0
	return a == b && na == nb
}

// classable reports whether rec may be written as a record of a class.
// What RedactRecord produced is written inline. So is a record whose
// trace ID, session ID or endpoint is not valid UTF-8: JSON stores such a
// string as U+FFFD and a packed record would keep its bytes, and a record
// must read back the same whichever shape it was written in.
func classable(rec *Record) bool {
	return !rec.Redacted && rec.VectorSHA256 == "" && rec.VectorDim == 0 &&
		utf8.ValidString(rec.TraceID) && utf8.ValidString(rec.SessionID) && utf8.ValidString(rec.Endpoint)
}

// classHash hashes the four fields of a class under the ledger's seed:
// the (user-agent, vector) pair as the verdict memo hashes it, with the
// model hash and the verdict folded in.
func classHash(h fphash.Hasher, rec *Record) uint64 {
	v := rec.Verdict
	flags := uint64(bit(v.Matched)) | uint64(bit(v.Novel))<<1 | uint64(bit(v.Flagged))<<2
	a := h.Mix(h.Pair(rec.Vector, rec.UserAgent), h.String(rec.ModelHash))
	a = h.Mix(a, uint64(v.Cluster)<<3^flags)
	a = h.Mix(a, uint64(v.RiskFactor))
	return h.Mix(a, math.Float64bits(v.NoveltyScore))
}

func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// classTable indexes the classes of the segment the ledger appends to.
// Appenders look classes up without the ledger lock, to know what to
// encode before they take it; only the lock holder adds a class, and
// when the segment log starts a new segment the ledger swaps in an empty
// table.
type classTable struct {
	seg   int          // the segment log's number of the segment
	n     atomic.Int32 // classes the segment defines; changes under Ledger.mu
	slots [classSlots]atomic.Pointer[class]
	// inlined holds the hashes of classes the full table wrote inline, one
	// per slot, the newest winning; read and written under Ledger.mu.
	inlined [recurSlots]uint64
}

// find returns the class rec, of hash h, belongs to, or nil.
func (t *classTable) find(h uint64, rec *Record) *class {
	for i := h; ; i++ {
		c := t.slots[i%classSlots].Load()
		if c == nil || c.holds(h, rec) {
			return c
		}
	}
}

// full reports whether the segment may define no more classes.
func (t *classTable) full() bool { return t.n.Load() >= classCap }

// add makes c, whose id is the next one, a class of the segment. Holds
// Ledger.mu; the table is not full.
func (t *classTable) add(c *class) {
	i := c.hash
	for t.slots[i%classSlots].Load() != nil {
		i++
	}
	t.slots[i%classSlots].Store(c)
	t.n.Add(1)
}

// recurs notes that the full table writes a record of the class of hash h
// inline, and reports whether it already wrote one: a class that recurs is
// traffic the segment would have defined but for a table filled by
// fingerprints that never came back. Holds Ledger.mu.
func (t *classTable) recurs(h uint64) bool {
	slot := &t.inlined[h%recurSlots]
	if *slot == h {
		return true
	}
	*slot = h
	return false
}

// appendClassBody appends what follows the id in the class frame of
// rec's class: the four fields, as appendAfterSeq writes them.
func appendClassBody(dst []byte, rec *Record) ([]byte, error) {
	dst = appendString(dst, `,"model_hash":`, rec.ModelHash)
	dst = append(dst, `,"ua":`...)
	dst = jsonappend.String(dst, rec.UserAgent)
	dst, err := appendVector(dst, rec.Vector)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"verdict":`...)
	dst, err = rec.Verdict.AppendJSON(dst)
	return append(dst, '}'), err
}

// appendPackedLead appends the opening of a packed record of class id:
// the tag, the sequence number and the id, the parts the writer learns
// under the ledger lock. appendProvenance's bytes complete the body.
func appendPackedLead(dst []byte, seq uint64, id int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(append(dst, packedTag), seq), uint64(id))
}

// appendProvenance appends what follows the class id in a packed record:
// the fields that are the request's own.
func appendProvenance(dst []byte, rec *Record) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.TimeNs))
	dst = appendID(dst, rec.TraceID, traceIDSize)
	dst = appendID(dst, rec.SessionID, sessionIDSize)
	return appendText(dst, rec.Endpoint)
}

// appendID appends id, whose canonical form is size bytes in lower-case
// hex.
func appendID(dst []byte, id string, size int) []byte {
	if len(id) != 2*size || !lowerHex(id) {
		return appendText(append(dst, idText), id)
	}
	dst = append(dst, idHex)
	for i := 0; i < len(id); i += 2 {
		dst = append(dst, nibble(id[i])<<4|nibble(id[i+1]))
	}
	return dst
}

// appendText appends s's length as a uvarint, then s.
func appendText(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// nibble is the value of a lower-case hex digit.
func nibble(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// readPacked decodes a packed record's body after its tag into f. A body
// that is not one, to its last byte, or that names class 0 is damage.
func readPacked(b []byte, f *frame) bool {
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return false
	}
	id, m := binary.Uvarint(b[n:])
	if m <= 0 || id == 0 || id > classCap {
		return false
	}
	b = b[n+m:]
	if len(b) < 8 {
		return false
	}
	f.Seq, f.Class, f.TimeNs = seq, int(id), int64(binary.BigEndian.Uint64(b))
	var ok bool
	if f.TraceID, b, ok = readID(b[8:], traceIDSize); !ok {
		return false
	}
	if f.SessionID, b, ok = readID(b, sessionIDSize); !ok {
		return false
	}
	if f.Endpoint, b, ok = readText(b); !ok {
		return false
	}
	return len(b) == 0
}

// readID decodes an ID appendID wrote at the start of b and returns the
// rest of b.
func readID(b []byte, size int) (string, []byte, bool) {
	if len(b) == 0 {
		return "", nil, false
	}
	switch b[0] {
	case idText:
		return readText(b[1:])
	case idHex:
		if len(b) < 1+size {
			return "", nil, false
		}
		return hex.EncodeToString(b[1 : 1+size]), b[1+size:], true
	}
	return "", nil, false
}

// readText decodes what appendText wrote at the start of b and returns the
// rest of b.
func readText(b []byte) (string, []byte, bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return "", nil, false
	}
	end := n + int(l)
	return string(b[n:end]), b[end:], true
}
