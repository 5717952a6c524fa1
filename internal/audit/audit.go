// Package audit implements the decision audit ledger: an append-only,
// checksummed, size-rotated record of scoring verdicts and of what each
// was decided from (paper §6.4/§7: a coarse-grained flag is only
// actionable when the risk team can see the evidence; this package
// makes every verdict durably explainable and re-derivable).
//
// On-disk format — segments named <prefix>.<seq>.audit, each a stream
// of length-prefixed frames:
//
//	uint32 length (big-endian) | uint32 CRC32-IEEE of body | body
//
// A record holds inputs, not derivations: the feature vector, the
// claimed user-agent, the verdict, the hash of the model that decided
// and provenance (time, trace, session, endpoint). The first four repeat:
// the serving tier's fingerprint is coarse, and under one model the
// verdict is a function of the (user-agent, vector) pair. So a segment
// stores each distinct (model hash, user-agent, vector, verdict) — a
// class — once, and the writer writes a body in one of three shapes, told
// apart by its first byte:
//
//	{"seq":N,...every field...}                              an inline record
//	{"class":K,"model_hash":…,"ua":…,"vector":[…],"verdict":{…}}  class K of the segment
//	0x01 seq K time_ns trace_id session_id endpoint          a record of class K, packed
//
// (class.go spells the packed layout out). Class ids count 1, 2, 3, …
// from the start of each segment, and a class frame goes to the segment
// log in one piece with the first record of its class, so every segment
// reads on its own. For the serving tier's 28 features a record of a known
// class frames to about 60 B, a class frame to about 0.34 KB, an inline
// record to about 0.48 KB. Records are inline when their class is new to
// a segment that has defined classCap classes, when redactRecord produced
// them, and in every segment written before classes existed. Segments
// written before records were packed store a record of a class as JSON,
// {"seq":N,"class":K,"time_ns":…,…}; readers take all four shapes, and
// any other first byte ends the readable stream as a checksum error does.
// Scan fills a record of a class in from its class frame, so readers see
// whole records either way.
//
// The explanation of a verdict is a pure function of (model, vector,
// user-agent) and is computed when a record is read (Resolver.Explain),
// from the model archive: every model a replica deploys is saved once
// beside the segments as model.<hash>.json before any record carries
// that hash (archive.go). Segments written before explanations were
// derived store one per record; they scan, resume and replay as they
// are, and a reader uses the stored explanation where there is one.
//
// The framing makes two properties machine-checkable: a checksum
// mismatch pins silent corruption to a frame, and a truncated tail
// (crash mid-write) is recognized and dropped on reopen without losing
// any earlier record — a class frame precedes every record of its class,
// so a prefix of a segment reads, and Open rebuilds the resumed
// segment's classes from it. `polygraphctl audit verify` walks the
// frames and demands an intact archive for every hash a record is to be
// explained from; `polygraphctl audit replay` re-derives each record's
// verdict and explanation through its archived model (or a model file),
// once per class (Resolver.Derive, as Resolver.Explain), and demands the
// recorded verdict — the model/ledger consistency invariant CI enforces
// on every smoke-load run.
//
// Durability — the segments are written by internal/seglog. Append
// encodes, numbers, checksums and counts a record before it returns,
// but does not wait for the disk: the frame is copied into one of two
// 32 KiB buffers and a single flusher goroutine performs every
// write(2), whole frames only. A record is in the file within a
// second of Append (a quiet ledger's buffer is flushed by a timer),
// or when Sync, Rotate or Close return. A process crash can lose at
// most the two buffers (about 1 100 records of known classes of the
// serving tier, 130 inline ones), a machine crash also what the OS
// had not written back; either leaves at worst a torn tail, which
// Open drops. A disk that falls behind blocks Append once both
// buffers are full — backpressure, not a queue. A write that fails is
// sticky: the records it lost move from Records to Dropped and every
// later Append fails and counts as dropped, and Recent no longer
// returns the lost records.
//
// Recording policy: flagged sessions are always recorded; benign
// sessions are sampled 1-in-N by a deterministic counter, so the
// recorded-benign count for a given traffic volume is a pure function
// of N (which one the counter picks depends on arrival order, the
// count does not).
package audit

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"encoding/json"

	"polygraph/internal/core"
	"polygraph/internal/jsonappend"
	"polygraph/internal/seglog"
)

// MaxRecordBytes bounds one framed record body; a length prefix beyond
// it marks the frame (and the rest of the segment) unreadable.
const MaxRecordBytes = 1 << 20

// DefaultMaxBytes is the per-segment rotation threshold.
const DefaultMaxBytes = 16 << 20

// DefaultRingSize is how many recent records /debug/decisions and
// /v1/flagged can page through without touching disk.
const DefaultRingSize = 256

// Record is one audited decision. Everything needed to re-derive the
// verdict travels with it: the raw feature vector, the claimed
// user-agent, and the hash of the model that decided. TimeNs and
// TraceID are provenance only — replay ignores them.
type Record struct {
	Seq       uint64    `json:"seq"`
	TimeNs    int64     `json:"time_ns,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	ModelHash string    `json:"model_hash,omitempty"`
	SessionID string    `json:"session_id,omitempty"`
	UserAgent string    `json:"ua"`
	Endpoint  string    `json:"endpoint,omitempty"`
	Vector    []float64 `json:"vector,omitempty"`

	Verdict core.Verdict `json:"verdict"`
	// Explanation is never written by Append. Readers fill it
	// (Resolver.Explain); segments from before explanations were derived
	// decode into it.
	Explanation *core.Explanation `json:"explanation,omitempty"`

	// Redacted marks a record whose privacy-bearing fields were reduced
	// by redactRecord before leaving the host: UserAgent replaced by a
	// hash token, Vector dropped (its digest and width kept below), and
	// the per-feature Explanation removed. Redacted records cannot be
	// replayed through polygraphctl audit; they exist so support bundles
	// can ship decision context without shipping fingerprints.
	Redacted bool `json:"redacted,omitempty"`
	// VectorSHA256 is the hex SHA-256 of the dropped Vector's big-endian
	// IEEE-754 encoding — enough to match identical fingerprints across
	// records without revealing one.
	VectorSHA256 string `json:"vector_sha256,omitempty"`
	// VectorDim is the dropped Vector's width.
	VectorDim int `json:"vector_dim,omitempty"`
}

// recordHead opens every encoded record; the sequence number follows it.
const recordHead = `{"seq":`

// appendAfterSeq appends everything of rec's JSON that follows the
// sequence number, byte for byte as json.Marshal writes a record with no
// Explanation (readers decode records with encoding/json;
// TestRecordEncodeParity and its fuzz twin hold the two together):
// recordHead, rec.Seq in decimal and the bytes appended here are
// json.Marshal(rec). The split is what lets Append encode before it
// takes the ledger lock — only Seq is assigned under it. A json-tagged
// field added to Record needs its line here. A non-finite float is the
// one error, the same one json.Marshal reports.
func (rec *Record) appendAfterSeq(dst []byte) ([]byte, error) {
	var err error
	if rec.TimeNs != 0 {
		dst = append(dst, `,"time_ns":`...)
		dst = strconv.AppendInt(dst, rec.TimeNs, 10)
	}
	dst = appendString(dst, `,"trace_id":`, rec.TraceID)
	dst = appendString(dst, `,"model_hash":`, rec.ModelHash)
	dst = appendString(dst, `,"session_id":`, rec.SessionID)
	dst = append(dst, `,"ua":`...)
	dst = jsonappend.String(dst, rec.UserAgent)
	dst = appendString(dst, `,"endpoint":`, rec.Endpoint)
	if dst, err = appendVector(dst, rec.Vector); err != nil {
		return dst, err
	}
	dst = append(dst, `,"verdict":`...)
	if dst, err = rec.Verdict.AppendJSON(dst); err != nil {
		return dst, err
	}
	if rec.Redacted {
		dst = append(dst, `,"redacted":true`...)
	}
	dst = appendString(dst, `,"vector_sha256":`, rec.VectorSHA256)
	if rec.VectorDim != 0 {
		dst = append(dst, `,"vector_dim":`...)
		dst = strconv.AppendInt(dst, int64(rec.VectorDim), 10)
	}
	return append(dst, '}'), nil
}

// appendString appends key and s as a JSON string, unless s is empty
// (the omitempty rule).
func appendString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return jsonappend.String(append(dst, key...), s)
}

// appendVector appends a non-empty vector's key and array.
func appendVector(dst []byte, vec []float64) ([]byte, error) {
	if len(vec) == 0 {
		return dst, nil
	}
	dst = append(dst, `,"vector":[`...)
	for i, f := range vec {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = jsonappend.Float(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// Config parameterizes a ledger.
type Config struct {
	// Dir holds the segments; created if missing. Required.
	Dir string
	// Prefix names the segments (default "decisions").
	Prefix string
	// MaxBytes rotates the active segment once it would exceed this
	// (≤ 0 = DefaultMaxBytes).
	MaxBytes int64
	// SampleBenign records every Nth benign verdict (≤ 1 = all; flagged
	// verdicts are always recorded).
	SampleBenign int
	// RingSize bounds the in-memory recent-record ring serving
	// /debug/decisions (0 = DefaultRingSize, < 0 disables).
	RingSize int
}

// Counters is a snapshot of the ledger's exported metrics.
type Counters struct {
	// Records counts records framed and not since lost to a failed write
	// (the polygraph_audit_records_total counter).
	Records int64
	// Dropped counts benign verdicts skipped by sampling plus records
	// lost to append or write errors (polygraph_audit_dropped_total).
	Dropped int64
	// Bytes counts the framed bytes of Records (polygraph_audit_bytes_total).
	Bytes int64
}

// Ledger is the concurrency-safe ledger writer. Open one with Open;
// Admit and Append are safe for concurrent use.
type Ledger struct {
	dir     string
	sampleN int

	records atomic.Int64 // frames the segment log accepted
	dropped atomic.Int64 // admitted records Append could not frame
	bytes   atomic.Int64
	benign  atomic.Uint64 // benign verdicts seen, drives sampling

	// seed hashes class keys (hash/maphash); classes indexes the active
	// segment's. Appenders read the table without mu; it changes under mu.
	seed    maphash.Seed
	classes atomic.Pointer[classTable]

	// mu makes a record's sequence number, its class and its place in the
	// segment log one step.
	mu  sync.Mutex
	log *seglog.Writer
	seq uint64 // next record sequence number
	// lead and classLead are writeFrame's scratch: the 8-byte frame header
	// and the frame's opening up to and including the numbers assigned
	// under mu — an inline record's sequence number in at most 20 digits,
	// or a packed record's tag and two uvarints. A local array would
	// escape to the heap through the log.
	lead      [8 + max(len(recordHead)+20, 1+2*binary.MaxVarintLen64)]byte
	classLead [8 + len(classHead) + 20]byte

	ringMu sync.Mutex
	ring   []Record
	next   int
	full   bool

	// models resolves the hashes of this ledger's own records, for
	// Explain.
	models *Resolver
}

// segmentExt is the ledger's segment file extension.
const segmentExt = "audit"

// Open creates or resumes a ledger in cfg.Dir. Resuming scans the
// newest segment, drops a torn tail (crash mid-append) by truncating
// the file at the last intact frame, and continues appending to it —
// record sequence numbers carry on from the last durable record.
func Open(cfg Config) (*Ledger, error) { return open(cfg, nil) }

// open is Open with the segment log's write seam exposed to the tests.
func open(cfg Config, tap func(io.Writer) io.Writer) (*Ledger, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("audit: Config.Dir is required")
	}
	prefix := cfg.Prefix
	if prefix == "" {
		prefix = "decisions"
	}
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	l := &Ledger{dir: cfg.Dir, sampleN: cfg.SampleBenign, models: NewResolver(cfg.Dir), seed: maphash.MakeSeed()}
	ringSize := cfg.RingSize
	if ringSize == 0 {
		ringSize = DefaultRingSize
	}
	if ringSize > 0 {
		l.ring = make([]Record, ringSize)
	}
	var resumed []*class
	log, err := seglog.Open(seglog.Config{
		Dir:      cfg.Dir,
		Prefix:   prefix,
		Ext:      segmentExt,
		MaxBytes: maxBytes,
		Tap:      tap,
		Recover: func(f *os.File) (int64, error) {
			s, err := scanFrames(f, nil)
			if s.records > 0 {
				l.seq = s.lastSeq + 1
			}
			resumed = s.classes
			return s.good, err
		},
	})
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	l.log = log
	// The resumed segment's records refer to its classes; so will the
	// ones appended to it. A class whose vector has no class bytes keeps
	// its id but is found by no record: a record of it is written inline.
	t := &classTable{seg: log.Seq()}
	for _, c := range resumed[:min(len(resumed), classCap)] {
		if key, ok := appendClassKey(nil, &Record{ModelHash: c.modelHash, UserAgent: c.userAgent, Vector: c.vector, Verdict: c.verdict}); ok {
			c.hash, c.key = maphash.Bytes(l.seed, key), string(key)
			t.add(c)
		}
	}
	t.n.Store(int32(len(resumed)))
	l.classes.Store(t)
	return l, nil
}

// Segments lists a ledger directory's segment files in sequence order.
func Segments(dir, prefix string) ([]string, error) {
	if prefix == "" {
		prefix = "decisions"
	}
	return seglog.Segments(dir, prefix, segmentExt)
}

// segmentScan is what scanFrames learned of a segment.
type segmentScan struct {
	good    int64    // the offset just past the last intact frame
	lastSeq uint64   // of the last record (0 if none)
	records int      // intact records
	classes []*class // the classes defined up to good, by id − 1
}

// frame is what a frame body decodes into: a record, inline or of a
// class (Class its id), or a class frame (Class the id it defines).
type frame struct {
	Record
	Class int `json:"class"`
}

// decodeFrame decodes one non-empty frame body into f and reports whether
// it is a class frame; ok is false for a body of none of the shapes. A
// body opening with '{' is JSON: an inline record, a class frame, or a
// record of a class from before records were packed.
func decodeFrame(body []byte, f *frame) (defines, ok bool) {
	switch body[0] {
	case '{':
		if json.Unmarshal(body, f) != nil {
			return false, false
		}
		return bytes.HasPrefix(body, []byte(classHead)), true
	case packedTag:
		return false, readPacked(body[1:], f)
	}
	return false, false
}

// scanFrames walks the frames of one segment from r, calling fn (when
// non-nil) for each intact record, with the fields a record of a class
// leaves out filled in from its class frame. A length or checksum
// violation, a body that does not decode, a class frame whose id is not
// the next one and a record of a class not defined before it all stop
// the walk without error: good marks where the torn or corrupt tail
// begins.
func scanFrames(r io.Reader, fn func(Record) error) (segmentScan, error) {
	var s segmentScan
	br := bufio.NewReaderSize(r, 64<<10)
	var head [8]byte
	body := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return s, nil // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(head[:4])
		sum := binary.BigEndian.Uint32(head[4:])
		if n == 0 || n > MaxRecordBytes {
			return s, nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return s, nil
		}
		if crc32.ChecksumIEEE(body) != sum {
			return s, nil
		}
		var f frame
		defines, ok := decodeFrame(body, &f)
		if !ok {
			// Framed and checksummed but not a frame of ours: corrupt
			// producer, treat as the end of the readable stream.
			return s, nil
		}
		if defines {
			if f.Class != len(s.classes)+1 {
				return s, nil
			}
			s.classes = append(s.classes, &class{id: f.Class, modelHash: f.ModelHash, userAgent: f.UserAgent,
				vector: f.Vector, verdict: f.Verdict})
			s.good += int64(8 + n)
			continue
		}
		if f.Class != 0 {
			if f.Class < 0 || f.Class > len(s.classes) {
				return s, nil
			}
			s.classes[f.Class-1].resolve(&f.Record)
		}
		if fn != nil {
			if err := fn(f.Record); err != nil {
				return s, err
			}
		}
		s.good += int64(8 + n)
		s.lastSeq = f.Seq
		s.records++
	}
}

// Admit applies the sampling policy to a block of decisions in order:
// flagged[i] says whether decision i was flagged, and Admit overwrites
// it with whether decision i is admitted and returns flagged. Flagged
// verdicts always are; benign ones every Nth, counted across every block
// the ledger is given. The block's benign verdicts are counted with one
// atomic add and take the counts one call per verdict would have given
// them, so a serial stream admits the same decisions however it is
// split into blocks. A decision not admitted counts as dropped
// (Counters derives how many from the benign count) and should not be
// appended — callers use it to skip building a record that would be
// sampled out anyway.
func (l *Ledger) Admit(flagged []bool) []bool {
	if l.sampleN <= 1 {
		for i := range flagged {
			flagged[i] = true
		}
		return flagged
	}
	var benign uint64
	for _, f := range flagged {
		if !f {
			benign++
		}
	}
	if benign == 0 {
		return flagged
	}
	c := l.benign.Add(benign) - benign
	for i, f := range flagged {
		if !f {
			c++
			flagged[i] = c%uint64(l.sampleN) == 0
		}
	}
	return flagged
}

// encoding is an appender's scratch: the parts of its record's frames,
// built before the ledger lock.
type encoding struct {
	key    []byte // appendClassKey: the record's class
	prov   []byte // appendProvenance: a record of a class
	body   []byte // appendClassBody: the class frame that defines it
	class  *class // newClass: the class that frame defines
	inline []byte // appendAfterSeq: the record with every field
}

// encodings recycles appenders' scratch.
var encodings = sync.Pool{New: func() any {
	return &encoding{key: make([]byte, 0, 256), prov: make([]byte, 0, 256), body: make([]byte, 0, 1024), inline: make([]byte, 0, 1024)}
}}

// Append writes one admitted record unconditionally — pair it with
// Admit. An Explanation on rec is dropped, not stored: readers derive
// it. The record is encoded before the ledger lock is taken, so
// concurrent appenders serialise on the sequence number, the class
// table, the checksum and a copy into the segment log's buffer — not
// on each other's encoding, and not on the disk. What is encoded
// depends on the active segment's class table: a record of a class
// the segment defines needs only its packed provenance; one of a
// class it does not define yet, the class frame's body and the class
// as well, or — when the table is full — the whole record. A record
// appendClassKey refuses is encoded whole, unhashed.
func (l *Ledger) Append(rec Record) error {
	rec.Explanation = nil
	e := encodings.Get().(*encoding)
	e.prov, e.body, e.inline = e.prov[:0], e.body[:0], e.inline[:0]
	var (
		h       uint64
		classed bool
		err     error
	)
	t := l.classes.Load()
	if e.key, classed = appendClassKey(e.key[:0], &rec); classed {
		h = maphash.Bytes(l.seed, e.key)
		switch {
		case t.find(h, e.key) != nil:
			e.prov = appendProvenance(e.prov, &rec)
		case t.full():
			e.inline, err = rec.appendAfterSeq(e.inline)
		default:
			e.prov = appendProvenance(e.prov, &rec)
			e.body, err = appendClassBody(e.body, &rec)
			e.class = newClass(h, e.key, &rec)
		}
	} else {
		e.inline, err = rec.appendAfterSeq(e.inline)
	}
	var n int64
	if err != nil {
		err = fmt.Errorf("audit: marshal record: %w", err)
	} else {
		n, err = l.writeFrame(&rec, classed, h, e)
	}
	e.class = nil
	encodings.Put(e)
	if err != nil {
		l.dropped.Add(1)
		return err
	}
	l.records.Add(1)
	l.bytes.Add(n)
	l.remember(rec)
	return nil
}

// writeFrame is Append's critical section. It assigns rec.Seq, finds or
// defines rec's class in the table of the segment the frame goes to —
// the segment log says which, and a new segment starts a new table —
// frames the record (after its class frame, if it defines the class),
// hands the frames to the segment log in one piece and returns their
// size. A class the full table wrote inline before starts a new segment
// (classTable.recurs). It encodes what Append's guess at the table left
// out.
func (l *Ledger) writeFrame(rec *Record, classed bool, h uint64, e *encoding) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Seq = l.seq
	t := l.classes.Load()
	var (
		c      *class
		define bool
		id     int
		parts  [4][]byte // frame heads, each followed by the rest of its frame
		np, n  int
		err    error
	)
	for {
		c, define = nil, false
		if classed {
			if c = t.find(h, e.key); c == nil {
				define = !t.full()
				if !define && t.recurs(h) {
					if err := l.log.Rotate(); err != nil {
						return 0, fmt.Errorf("audit: write frame: %w", err)
					}
				}
			}
		}
		if (define || c != nil) && len(e.prov) == 0 {
			e.prov = appendProvenance(e.prov, rec)
		}
		switch {
		case define:
			if len(e.body) == 0 {
				if e.body, err = appendClassBody(e.body, rec); err != nil {
					return 0, fmt.Errorf("audit: marshal record: %w", err)
				}
				e.class = newClass(h, e.key, rec)
			}
			id = int(t.n.Load()) + 1
			classLead := strconv.AppendInt(append(l.classLead[:8], classHead...), int64(id), 10)
			parts, np = [4][]byte{classLead, e.body, appendPackedLead(l.lead[:8], rec.Seq, id), e.prov}, 4
		case c != nil:
			parts, np = [4][]byte{appendPackedLead(l.lead[:8], rec.Seq, c.id), e.prov}, 2
		default:
			if len(e.inline) == 0 {
				if e.inline, err = rec.appendAfterSeq(e.inline); err != nil {
					return 0, fmt.Errorf("audit: marshal record: %w", err)
				}
			}
			lead := strconv.AppendUint(append(l.lead[:8], recordHead...), rec.Seq, 10)
			parts, np = [4][]byte{lead, e.inline}, 2
		}
		n = 0
		for _, p := range parts[:np] {
			n += len(p)
		}
		seg, err := l.log.Next(n)
		if err != nil {
			return 0, fmt.Errorf("audit: write frame: %w", err)
		}
		if seg == t.seg {
			break
		}
		t = &classTable{seg: seg}
		l.classes.Store(t)
	}
	for i := 0; i < np; i += 2 {
		putHeader(parts[i], parts[i+1])
	}
	if err := l.log.Append(parts[:np]...); err != nil {
		return 0, fmt.Errorf("audit: write frame: %w", err)
	}
	if define {
		e.class.id = id
		t.add(e.class)
	}
	l.seq++
	return int64(n), nil
}

// putHeader fills in the 8-byte frame header at the start of head for
// the frame head[8:] + rest: its length and checksum.
func putHeader(head, rest []byte) {
	binary.BigEndian.PutUint32(head[:4], uint32(len(head)-8+len(rest)))
	binary.BigEndian.PutUint32(head[4:8], crc32.Update(crc32.ChecksumIEEE(head[8:]), crc32.IEEETable, rest))
}

// remember keeps the record in the recent ring for /debug/decisions.
func (l *Ledger) remember(rec Record) {
	if l.ring == nil {
		return
	}
	l.ringMu.Lock()
	l.ring[l.next] = rec
	l.next = (l.next + 1) % len(l.ring)
	if l.next == 0 {
		l.full = true
	}
	l.ringMu.Unlock()
}

// Recent returns up to n recorded decisions, newest first, optionally
// filtered: verdict is "", "flagged", or "benign"; traceID filters on
// an exact trace-ID match. The records are as Append wrote them; Explain
// adds the explanation. A record a failed write lost is not returned.
func (l *Ledger) Recent(n int, verdict, traceID string) []Record {
	if l.ring == nil || n <= 0 {
		return nil
	}
	// A failed write loses the newest records Append accepted, and the
	// failure is sticky, so no later one takes a sequence number.
	written := uint64(math.MaxUint64)
	if lost, _ := l.log.Lost(); lost > 0 {
		l.mu.Lock()
		written = l.seq - uint64(lost)
		l.mu.Unlock()
	}
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	size := l.next
	if l.full {
		size = len(l.ring)
	}
	out := make([]Record, 0, min(n, size))
	for i := 0; i < size && len(out) < n; i++ {
		idx := (l.next - 1 - i + len(l.ring)) % len(l.ring)
		if rec := l.ring[idx]; rec.Matches(verdict, traceID) && rec.Seq < written {
			out = append(out, rec)
		}
	}
	return out
}

// Matches reports whether rec passes the filters of Recent and
// polygraphctl audit ls: verdict "" (any), "flagged" or "benign", and
// traceID, unless it is "", exactly.
func (rec *Record) Matches(verdict, traceID string) bool {
	return (verdict != "flagged" || rec.Verdict.Flagged) && (verdict != "benign" || !rec.Verdict.Flagged) &&
		(traceID == "" || rec.TraceID == traceID)
}

// Explain fills rec.Explanation from the archive in the ledger directory
// (Resolver.Explain).
func (l *Ledger) Explain(rec *Record) error { return l.models.Explain(rec) }

// Rotate closes the active segment and starts a fresh one — the SIGHUP
// hook, so operators can archive sealed segments while the daemon runs.
func (l *Ledger) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Rotate(); err != nil {
		return fmt.Errorf("audit: rotate: %w", err)
	}
	return nil
}

// Sync returns once every appended record is in its segment file and
// the file is fsynced.
func (l *Ledger) Sync() error { return l.log.Sync() }

// Close writes out and closes the active segment; further Records fail.
func (l *Ledger) Close() error { return l.log.Close() }

// Counters snapshots the exported metrics. What a failed write lost was
// counted as recorded when Append accepted it; it is taken back here,
// and of b benign verdicts sampling admitted every Nth, so b − b/N were
// dropped: Records + Dropped is the number of decisions at every scrape.
func (l *Ledger) Counters() Counters {
	lostFrames, lostBytes := l.log.Lost()
	var sampledOut int64
	if l.sampleN > 1 {
		b := l.benign.Load()
		sampledOut = int64(b - b/uint64(l.sampleN))
	}
	return Counters{
		Records: l.records.Load() - lostFrames,
		Dropped: l.dropped.Load() + sampledOut + lostFrames,
		Bytes:   l.bytes.Load() - lostBytes,
	}
}

// FlushMetrics reports on the segment log's flusher.
func (l *Ledger) FlushMetrics() seglog.FlushMetrics { return l.log.FlushMetrics() }
