package audit

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"polygraph/internal/core"
	"polygraph/internal/fphash"
	"polygraph/internal/jsonappend"
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
// that many, every later record of it is written inline, in the shape
// every reader already reads, known class or not, and costs no hash and
// no lookup: traffic whose fingerprints never repeat costs at most
// classCap class frames a segment, and the writer's table stays bounded.
const classCap = 4096

// classSlots sizes the open-addressed table that indexes a segment's
// classes: twice the cap, a power of two, so a probe ends at an empty
// slot quickly.
const classSlots = 2 * classCap

const (
	// classHead opens a class frame; the class id follows it.
	classHead = `{"class":`
	// classRef follows the sequence number of a record of a class; the
	// class id follows it.
	classRef = `,"class":`
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
	if c.hash != h || c.modelHash != rec.ModelHash || c.userAgent != rec.UserAgent ||
		len(c.vector) != len(rec.Vector) || !sameVerdict(c.verdict, rec.Verdict) {
		return false
	}
	var diff uint64
	vector := rec.Vector[:len(c.vector)]
	for i, f := range c.vector {
		diff |= math.Float64bits(f) ^ math.Float64bits(vector[i])
	}
	return diff == 0
}

func sameVerdict(a, b core.Verdict) bool {
	na, nb := math.Float64bits(a.NoveltyScore), math.Float64bits(b.NoveltyScore)
	a.NoveltyScore, b.NoveltyScore = 0, 0
	return a == b && na == nb
}

// classable reports whether rec may be written as a record of a class:
// what RedactRecord produced is written inline.
func classable(rec *Record) bool {
	return !rec.Redacted && rec.VectorSHA256 == "" && rec.VectorDim == 0
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

// appendProvenance appends what follows the class id in a record of a
// class: the fields that are the request's own.
func appendProvenance(dst []byte, rec *Record) []byte {
	if rec.TimeNs != 0 {
		dst = append(dst, `,"time_ns":`...)
		dst = strconv.AppendInt(dst, rec.TimeNs, 10)
	}
	dst = appendString(dst, `,"trace_id":`, rec.TraceID)
	dst = appendString(dst, `,"session_id":`, rec.SessionID)
	dst = appendString(dst, `,"endpoint":`, rec.Endpoint)
	return append(dst, '}')
}
