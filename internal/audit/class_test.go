package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polygraph/internal/core"
)

// parentSegment is a segment the writer before class frames wrote: seven
// serving-shape records, every one inline, under two model hashes.
const parentSegment = "testdata/parent.000000.audit"

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

// TestParentSegmentStillReads pins that a segment of the inline-only
// format reads as it always did — alone, resumed and appended to in the
// new format, and followed by a segment of the new format.
func TestParentSegmentStillReads(t *testing.T) {
	raw, err := os.ReadFile(parentSegment)
	if err != nil {
		t.Fatal(err)
	}
	stored := bodies(raw)
	if len(stored) != 7 {
		t.Fatalf("fixture holds %d frames, want 7", len(stored))
	}
	// Each record reads back as what the old writer stored: json.Marshal
	// of what Scan yields is the body, byte for byte.
	check := func(recs []Record) {
		t.Helper()
		for i, body := range stored {
			got, err := json.Marshal(&recs[i])
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("record %d reads as\n%s\nstored\n%s", i, got, body)
			}
		}
	}
	recs, stats := scanAll(t, "testdata", "parent")
	if !stats.Clean() || len(recs) != len(stored) {
		t.Fatalf("fixture alone: %+v, %d records", stats, len(recs))
	}
	check(recs)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "decisions.000000.audit"), raw, 0o644); err != nil {
		t.Fatal(err)
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
		rec.Seq = uint64(len(stored) + len(appended))
		appended = append(appended, rec)
	}
	a := servingRecord()
	b := a
	b.Verdict.Flagged = false
	add(a)
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
	recs, stats = scanAll(t, dir, "")
	if !stats.Clean() || stats.Segments != 2 || len(recs) != len(stored)+len(appended) {
		t.Fatalf("fixture then new segments: %+v, %d records", stats, len(recs))
	}
	check(recs)
	if !reflect.DeepEqual(recs[len(stored):], appended) {
		t.Fatalf("appended records read back as\n%+v\nwant\n%+v", recs[len(stored):], appended)
	}
}

// TestNeverRepeatingStreamCost bounds what traffic whose fingerprints
// never repeat (a Category 1 flood, paper §2.2) costs: twice the cap in
// distinct records, each defining a class until the cap and inline after,
// within 10 % of writing every one inline. Past the cap a record of a
// class the segment defines is inline too.
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
	body, err := encodeRecord(&rec)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Counters().Bytes
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if got := l.Counters().Bytes - before; got != int64(8+len(body)) {
		t.Fatalf("a record of class 1 past the cap takes %d B, inline %d B", got, 8+len(body))
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
	return [][]byte{
		inline,
		defined,
		join(class(1, "a"), ref(0, 2)), // dangling class id
		join(class(1, "a"), class(1, "b"), ref(0, 1)), // duplicate class id
		defined[:len(defined)-5],                      // torn tail
		join(inline, defined, class(2, "Chrome 112"), ref(3, 2), ref(4, 1)),
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
	if raw, err := os.ReadFile(parentSegment); err == nil {
		f.Add(raw)
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
// must read as: each frame decoded alone, and a record of a class given
// the model hash, user-agent, vector and verdict of that class's frame.
func oracleScan(data []byte) []Record {
	var classes []Record
	var out []Record
	for _, body := range bodies(data) {
		var f frame
		if err := json.Unmarshal(body, &f); err != nil {
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

// classRecord is testRecord of one of a few classes, told apart by
// user-agent.
func classRecord(class int, trace string) Record {
	rec := testRecord(true, trace)
	rec.UserAgent = fmt.Sprint("ua", class)
	rec.Verdict = core.Verdict{Cluster: class, RiskFactor: 7, Flagged: true}
	return rec
}
