package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"polygraph/internal/core"
)

// The committed segments of the formats before this one: preClassSegment
// holds seven serving-shape records under two model hashes, every one
// inline, as the writer before class frames wrote them; jsonClassSegment
// holds three class frames, six records of a class in JSON and one inline
// record, as the writer before packed records wrote them, under the model
// archived beside it.
const (
	preClassSegment  = "testdata/parent.000000.audit"
	jsonClassSegment = "testdata/jsonclass.000000.audit"
)

// bodies returns the body of each whole frame in data.
func bodies(data []byte) [][]byte {
	var out [][]byte
	for len(data) >= 8 {
		n := int(binary.BigEndian.Uint32(data[:4]))
		if 8+n > len(data) {
			break
		}
		out = append(out, data[8:8+n])
		data = data[8+n:]
	}
	return out
}

// scanAll reads every record of the ledger at dir.
func scanAll(t *testing.T, dir, prefix string) ([]Record, ScanStats) {
	t.Helper()
	var recs []Record
	stats, err := Scan(dir, prefix, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, stats
}

// shapes counts data's frames by shape: class frames, JSON records of a
// class, packed records and inline records.
func shapes(data []byte) (classFrames, jsonRefs, packed, inline int) {
	for _, body := range bodies(data) {
		switch {
		case bytes.HasPrefix(body, []byte(classHead)):
			classFrames++
		case body[0] == packedTag:
			packed++
		case bytes.Contains(body, []byte(`,"class":`)):
			jsonRefs++
		default:
			inline++
		}
	}
	return
}

// TestParentSegmentStillReads pins that segments of both earlier formats
// read as they always did: each alone, a JSON-class segment resumed and
// appended to in packed records, and a directory whose segments are of
// all three formats.
func TestParentSegmentStillReads(t *testing.T) {
	preClass, err := os.ReadFile(preClassSegment)
	if err != nil {
		t.Fatal(err)
	}
	jsonClass, err := os.ReadFile(jsonClassSegment)
	if err != nil {
		t.Fatal(err)
	}
	stored := bodies(preClass)
	if len(stored) != 7 {
		t.Fatalf("pre-class fixture holds %d frames, want 7", len(stored))
	}
	if c, r, p, i := shapes(jsonClass); c != 3 || r != 6 || p != 0 || i != 1 {
		t.Fatalf("JSON-class fixture holds %d class frames, %d JSON records of a class, %d packed and %d inline records; want 3, 6, 0, 1", c, r, p, i)
	}
	// A pre-class record reads back as what the old writer stored:
	// json.Marshal of what Scan yields is the body, byte for byte. A
	// JSON-class segment's records read as each frame decoded alone, given
	// its class frame's fields.
	wantJSONClass := oracleScan(jsonClass)
	checkPreClass := func(recs []Record) {
		t.Helper()
		for i, body := range stored {
			got, err := json.Marshal(&recs[i])
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("record %d reads as\n%s\nstored\n%s", i, got, body)
			}
		}
	}
	checkJSONClass := func(recs []Record) {
		t.Helper()
		if !reflect.DeepEqual(recs, wantJSONClass) {
			t.Fatalf("the JSON-class segment reads as\n%+v\nwant\n%+v", recs, wantJSONClass)
		}
	}
	recs, stats := scanAll(t, "testdata", "parent")
	if !stats.Clean() || len(recs) != len(stored) {
		t.Fatalf("pre-class fixture alone: %+v, %d records", stats, len(recs))
	}
	checkPreClass(recs)
	recs, stats = scanAll(t, "testdata", "jsonclass")
	if !stats.Clean() || len(recs) != 7 {
		t.Fatalf("JSON-class fixture alone: %+v, %d records", stats, len(recs))
	}
	checkJSONClass(recs)

	// One directory: the pre-class segment, then the JSON-class one, which
	// Open resumes and appends packed records to; then a packed segment.
	dir := t.TempDir()
	for i, raw := range [][]byte{preClass, jsonClass} {
		if err := os.WriteFile(segmentPath(dir, "decisions", i), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var appended []Record
	add := func(rec Record) {
		t.Helper()
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		rec.Seq = uint64(len(wantJSONClass) + len(appended))
		appended = append(appended, rec)
	}
	// a is of the resumed segment's class 1, b of none it defines.
	a := wantJSONClass[0]
	a.Seq, a.TraceID, a.SessionID = 0, "00000000deadbeef", ""
	b := servingRecord()
	add(a)
	add(b)
	add(a)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	add(b)
	add(a)
	add(b)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(segmentPath(dir, "decisions", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(resumed, jsonClass) {
		t.Fatal("resuming rewrote the JSON-class segment")
	}
	// The resumed segment refers to its class 1 and defines b as class 4.
	if c, r, p, i := shapes(resumed[len(jsonClass):]); c != 1 || r != 0 || p != 3 || i != 0 {
		t.Fatalf("appended to the JSON-class segment: %d class frames, %d JSON records of a class, %d packed and %d inline records; want 1, 0, 3, 0", c, r, p, i)
	}
	recs, stats = scanAll(t, dir, "")
	if !stats.Clean() || stats.Segments != 3 || len(recs) != len(stored)+len(wantJSONClass)+len(appended) {
		t.Fatalf("three formats in one directory: %+v, %d records", stats, len(recs))
	}
	checkPreClass(recs[:len(stored)])
	recs = recs[len(stored):]
	checkJSONClass(recs[:len(wantJSONClass)])
	if got := recs[len(wantJSONClass):]; !reflect.DeepEqual(got, appended) {
		t.Fatalf("appended records read back as\n%+v\nwant\n%+v", got, appended)
	}
}

// TestNeverRepeatingStreamCost bounds what traffic whose fingerprints
// never repeat (a Category 1 flood, paper §2.2) costs: twice the cap in
// distinct records, each defining a class until the cap and inline after,
// within 10 % of writing every one inline. Past the cap a record of a
// class the segment defines still refers to it.
func TestNeverRepeatingStreamCost(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir(), MaxBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var inline int64
	for i := 0; i < 2*classCap; i++ {
		rec := servingRecord()
		rec.Vector[0] = float64(i)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		body, err := encodeRecord(&rec)
		if err != nil {
			t.Fatal(err)
		}
		inline += int64(8 + len(body))
	}
	if got := l.Counters().Bytes; 10*got > 11*inline {
		t.Fatalf("%d distinct records cost %d B, inline %d B: more than 1.1×", 2*classCap, got, inline)
	}
	if n := l.classes.Load().n.Load(); n != classCap {
		t.Fatalf("the segment defines %d classes, want the cap, %d", n, classCap)
	}
	rec := servingRecord() // Vector[0] = 0: the segment's class 1
	rec.Seq = 2 * classCap
	packed := appendProvenance(appendPackedLead(nil, rec.Seq, 1), &rec)
	before := l.Counters().Bytes
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if got := l.Counters().Bytes - before; got != int64(8+len(packed)) {
		t.Fatalf("a record of class 1 past the cap takes %d B, a packed record of class 1 %d B", got, 8+len(packed))
	}
}

// classSeeds are FuzzScanFrames' committed seeds, each a segment.
func classSeeds() [][]byte {
	class := func(id int, ua string) []byte {
		return frameBytes(fmt.Appendf(nil, `{"class":%d,"model_hash":"m1","ua":%q,"vector":[1,-0.5,3],"verdict":{"cluster":2,"matched":false,"risk_factor":9,"flagged":true}}`, id, ua))
	}
	ref := func(seq, id int) []byte {
		return frameBytes(fmt.Appendf(nil, `{"seq":%d,"class":%d,"time_ns":17,"trace_id":"t%d","endpoint":"/v1/collect"}`, seq, id, seq))
	}
	inline := frameBytes([]byte(`{"seq":0,"model_hash":"m0","ua":"Chrome 91","vector":[1,2,3],"verdict":{"cluster":4,"matched":true,"risk_factor":7,"flagged":false}}`))
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	defined := join(class(1, "Firefox 110"), ref(1, 1), ref(2, 1))
	seeds := [][]byte{
		inline,
		defined,
		join(class(1, "a"), ref(0, 2)), // dangling class id
		join(class(1, "a"), class(1, "b"), ref(0, 1)), // duplicate class id
		defined[:len(defined)-5],                      // torn tail
		join(inline, defined, class(2, "Chrome 112"), ref(3, 2), ref(4, 1)),
	}
	for _, c := range packedCases() {
		seeds = append(seeds, join(class(1, "Firefox 110"), class(2, "Chrome 112"), c.frames))
	}
	return seeds
}

// packedCase is packed records that follow a segment's two class frames:
// frames reads as its first records records, then stops.
type packedCase struct {
	name    string
	frames  []byte
	records int
}

// packedCases are two whole packed records, then those followed by each
// way a packed body can be damaged.
func packedCases() []packedCase {
	body := func(seq uint64, id int, rec Record) []byte {
		return appendProvenance(appendPackedLead(nil, seq, id), &rec)
	}
	serving := servingRecord() // canonical trace and session IDs
	odd := Record{TimeNs: -5, TraceID: "00C0FFEE00C0FFEE", SessionID: "日本語 \x00\u2028", Endpoint: ""}
	whole := append(frameBytes(body(1, 1, serving)), frameBytes(body(1<<40, 2, odd))...)
	damaged := func(b []byte) []byte { return append(append([]byte(nil), whole...), frameBytes(b)...) }
	good := body(7, 1, serving)
	kind := 1 + binary.PutUvarint(make([]byte, binary.MaxVarintLen64), 7) + 1 + 8 // the trace ID's kind byte
	badKind := append([]byte(nil), good...)
	badKind[kind] = 2
	return []packedCase{
		{"whole", whole, 2},
		{"truncated uvarint", damaged([]byte{packedTag, 0x80}), 2},
		{"class id 0", damaged(body(7, 0, serving)), 2},
		{"class id beyond the defined classes", damaged(body(7, 3, serving)), 2},
		{"trailing bytes", damaged(append(good, 0)), 2},
		{"unknown first byte", damaged(append([]byte{0x02}, good[1:]...)), 2},
		{"ID kind byte", damaged(badKind), 2},
		{"short ID", damaged(good[:len(good)-len(serving.Endpoint)-1-4]), 2},
		{"endpoint past the body", damaged(good[:len(good)-1]), 2},
	}
}

// TestPackedDamageEndsTheStream: a packed record the writer could not have
// written stops the walk at its frame, as a checksum error does, and the
// records before it read.
func TestPackedDamageEndsTheStream(t *testing.T) {
	seeds, cases := classSeeds(), packedCases()
	seeds = seeds[len(seeds)-len(cases):]
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs, s := scanBytes(seeds[i])
			good := int64(len(seeds[i]))
			if frames := bodies(c.frames); c.records < len(frames) {
				good -= int64(8 + len(frames[len(frames)-1]))
			}
			if len(recs) != c.records || s.good != good {
				t.Fatalf("read %d records up to %d, want %d up to %d", len(recs), s.good, c.records, good)
			}
			if want := oracleScan(seeds[i][:good]); !reflect.DeepEqual(recs, want) {
				t.Fatalf("scan yields\n%+v\nthe frames say\n%+v", recs, want)
			}
		})
	}
}

// FuzzScanFrames: whatever bytes a segment holds, the scanner does not
// panic, stops at a frame boundary, yields every record with what its
// class frame holds filled in, and reads a prefix of the bytes as a
// prefix of the records.
func FuzzScanFrames(f *testing.F) {
	for _, seed := range classSeeds() {
		f.Add(seed)
	}
	for _, path := range []string{preClassSegment, jsonClassSegment} {
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(raw)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, s := scanBytes(data)
		// good is a frame boundary.
		at := int64(0)
		for at < s.good && at+8 <= int64(len(data)) {
			at += 8 + int64(binary.BigEndian.Uint32(data[at:at+4]))
		}
		if at != s.good || s.good > int64(len(data)) || s.records != len(recs) {
			t.Fatalf("good %d: not a frame boundary of %d bytes (next %d), %d records of %d", s.good, len(data), at, len(recs), s.records)
		}
		if want := oracleScan(data[:s.good]); !reflect.DeepEqual(recs, want) {
			t.Fatalf("scan yields\n%+v\nthe class frames say\n%+v", recs, want)
		}
		for _, cut := range []int{len(data) / 2, len(data) - 1, int(s.good) - 1} {
			if cut < 0 || cut > len(data) {
				continue
			}
			part, _ := scanBytes(data[:cut])
			if len(part) > len(recs) || len(part) > 0 && !reflect.DeepEqual(part, recs[:len(part)]) {
				t.Fatalf("the first %d bytes yield\n%+v\nnot a prefix of\n%+v", cut, part, recs)
			}
		}
	})
}

// oracleScan is what the records of data, whose frames are all intact,
// must read as: each frame decoded alone — a packed one by its layout —
// and a record of a class given the model hash, user-agent, vector and
// verdict of that class's frame.
func oracleScan(data []byte) []Record {
	var classes []Record
	var out []Record
	for _, body := range bodies(data) {
		var f frame
		if body[0] == packedTag {
			f = oraclePacked(body)
		} else if err := json.Unmarshal(body, &f); err != nil {
			panic("oracleScan: an intact frame does not decode")
		}
		if bytes.HasPrefix(body, []byte(classHead)) {
			classes = append(classes, f.Record)
			continue
		}
		if f.Class != 0 {
			c := classes[f.Class-1]
			f.ModelHash, f.UserAgent, f.Verdict, f.Vector = c.ModelHash, c.UserAgent, c.Verdict, c.Vector
		}
		out = append(out, f.Record)
	}
	return out
}

// oraclePacked decodes an intact packed record as its layout reads.
func oraclePacked(body []byte) frame {
	r := bytes.NewReader(body[1:])
	must := func(err error) {
		if err != nil {
			panic("oraclePacked: an intact frame does not decode")
		}
	}
	uvarint := func() uint64 {
		v, err := binary.ReadUvarint(r)
		must(err)
		return v
	}
	text := func() string {
		b := make([]byte, uvarint())
		_, err := io.ReadFull(r, b)
		must(err)
		return string(b)
	}
	id := func(size int) string {
		kind, err := r.ReadByte()
		must(err)
		if kind == idText {
			return text()
		}
		b := make([]byte, size)
		_, err = io.ReadFull(r, b)
		must(err)
		return hex.EncodeToString(b)
	}
	var f frame
	f.Seq = uvarint()
	f.Class = int(uvarint())
	must(binary.Read(r, binary.BigEndian, &f.TimeNs))
	f.TraceID = id(8)
	f.SessionID = id(16)
	f.Endpoint = text()
	return f
}

// classRecord is testRecord of one of a few classes, told apart by
// user-agent.
func classRecord(class int, trace string) Record {
	rec := testRecord(true, trace)
	rec.UserAgent = fmt.Sprint("ua", class)
	rec.Verdict = core.Verdict{Cluster: class, RiskFactor: 7, Flagged: true}
	return rec
}

// TestFloodDoesNotTaxHonestRecords: a flood of fingerprints that never
// repeat must not make honest records dearer. Honest records of a few
// hundred classes and a never-repeating flood are written alone and
// interleaved, 16 MiB segments; together they may cost at most 2 % more
// than apart — whether the flood is spread through the honest traffic or
// bursts at the segment's start and fills its class table first.
func TestFloodDoesNotTaxHonestRecords(t *testing.T) {
	const honest, classes, novel = 80_000, 450, 8_000
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, classes-1)
	honestOf := make([]int, honest) // the class of each honest record
	for i := range honestOf {
		honestOf[i] = int(zipf.Uint64())
	}
	record := func(class int, flood bool, i int) Record {
		rec := servingRecord()
		rec.TimeNs += int64(i)
		rec.Vector[1] = float64(class)
		if flood {
			rec.Vector[0] = float64(-1 - i)
			rec.Verdict = core.Verdict{Cluster: -1, Novel: true, Flagged: true}
		}
		return rec
	}
	// cost writes the honest records, and before the one at each offset in
	// floodAt one flood record, and returns the bytes written.
	cost := func(writeHonest bool, floodAt []int) int64 {
		l, err := Open(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		write := func(rec Record) {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		for i := 0; i <= honest; i++ {
			for next < len(floodAt) && floodAt[next] == i {
				write(record(0, true, next))
				next++
			}
			if writeHonest && i < honest {
				write(record(honestOf[i], false, i))
			}
		}
		return l.Counters().Bytes
	}
	spread, burst := make([]int, novel), make([]int, novel)
	for i := range spread {
		spread[i] = i * honest / novel
	}
	honestOnly, floodOnly := cost(true, nil), cost(false, spread)
	for _, c := range []struct {
		name    string
		floodAt []int
	}{{"spread", spread}, {"burst", burst}} {
		t.Run(c.name, func(t *testing.T) {
			together := cost(true, c.floodAt)
			t.Logf("honest %d B, flood %d B, together %d B (×%.3f)", honestOnly, floodOnly, together, float64(together)/float64(honestOnly+floodOnly))
			if 100*together > 102*(honestOnly+floodOnly) {
				t.Fatalf("together %d B, apart %d + %d B: more than 1.02×", together, honestOnly, floodOnly)
			}
		})
	}
}

// TestFullTableConcurrently: appenders race past the cap — a flood fills
// the class table, then classes it has no room for come back and start a
// new segment while the flood goes on. Every record must read back as it
// was appended, in one unbroken sequence (run it under -race).
func TestFullTableConcurrently(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers, flood = 4, classCap/4 + 100
	var mu sync.Mutex
	want := map[string]Record{}
	write := func(rec Record) {
		if err := l.Append(rec); err != nil {
			t.Error(err)
		}
		mu.Lock()
		want[rec.TraceID] = rec
		mu.Unlock()
	}
	floodRecord := func(w, i int) Record {
		rec := record(fmt.Sprintf("f%d-%d", w, i))
		rec.Vector[0] = float64(-1 - w*1_000_000 - i)
		return rec
	}
	var wg sync.WaitGroup
	for _, phase := range []func(w int){
		func(w int) { // the flood fills the table
			for i := 0; i < flood; i++ {
				write(floodRecord(w, i))
			}
		},
		func(w int) { // classes new to the full table, each three times, and more flood
			for i := 0; i < 30; i++ {
				rec := record(fmt.Sprintf("h%d-%d", w, i))
				rec.Vector[1] = float64(1000 + i%10)
				write(rec)
				write(floodRecord(w, flood+i))
			}
		},
	} {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				phase(w)
			}(w)
		}
		wg.Wait()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var next uint64
	stats, err := Scan(dir, "", func(r Record) error {
		rec, ok := want[r.TraceID]
		if r.Seq != next || !ok || !reflect.DeepEqual(withSeq(rec, r.Seq), r) {
			return fmt.Errorf("record %d reads %+v, appended %+v", next, r, rec)
		}
		next++
		return nil
	})
	if err != nil || !stats.Clean() || stats.Records != len(want) || stats.Segments < 2 {
		t.Fatalf("%+v, %d appended (%v); want every record, clean, and a segment started past the cap", stats, len(want), err)
	}
}

// record is servingRecord with its own trace string.
func record(trace string) Record {
	rec := servingRecord()
	rec.TraceID = trace
	return rec
}
