package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"polygraph/internal/core"
)

// encodeRecord is the record body Append frames: the opening, the
// sequence number, and appendAfterSeq's bytes.
func encodeRecord(rec *Record) ([]byte, error) {
	return rec.appendAfterSeq(strconv.AppendUint([]byte(recordHead), rec.Seq, 10))
}

// frameBytes frames body as the ledger does.
func frameBytes(body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// scanBytes reads data as one segment.
func scanBytes(data []byte) ([]Record, segmentScan) {
	var recs []Record
	s, _ := scanFrames(bytes.NewReader(data), func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, s
}

// checkParity demands that the encoder and json.Marshal agree on what
// Append writes of rec — everything but the explanation: the same bytes,
// or the same error.
func checkParity(t testing.TB, rec *Record) {
	t.Helper()
	lean := *rec
	lean.Explanation = nil
	want, wantErr := json.Marshal(&lean)
	got, gotErr := encodeRecord(rec)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("errors differ: encoder %v, json.Marshal %v\nrecord %+v", gotErr, wantErr, rec)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	// Written as the writer writes the records of a class — the class
	// frame, then a record in its packed shape, or inline when classable
	// refuses it — the record must read back as it does inline: every
	// stored field is in the class frame or in the record.
	lean.Redacted, lean.VectorSHA256, lean.VectorDim = false, "", 0
	inline, err := encodeRecord(&lean)
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := scanBytes(frameBytes(inline))
	if len(want1) != 1 {
		t.Fatalf("the inline record does not read back: %s", inline)
	}
	got1, _ := scanBytes(classFrames(t, &lean))
	if !reflect.DeepEqual(got1, want1) {
		t.Fatalf("a record of a class reads back as\n%+v\ninline as\n%+v", got1, want1)
	}
}

// classFrames is what the writer appends for rec, the first record of
// class 1 of a segment: the class frame and the packed record, or, for a
// record classable refuses, the inline record.
func classFrames(t testing.TB, rec *Record) []byte {
	t.Helper()
	if !classable(rec) {
		inline, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return frameBytes(inline)
	}
	body, err := appendClassBody([]byte(classHead+"1"), rec)
	if err != nil {
		t.Fatal(err)
	}
	packed := appendProvenance(appendPackedLead(nil, rec.Seq, 1), rec)
	return append(frameBytes(body), frameBytes(packed)...)
}

// leaves calls fn on every settable leaf value under v (strings,
// numbers, booleans), first replacing nil pointers by new values and
// nil slices by slices of two elements so nothing of the type is
// skipped.
func leaves(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		leaves(v.Elem(), fn)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), fn)
		}
	case reflect.Slice:
		if v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		}
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fn)
		}
	default:
		fn(v)
	}
}

// storedLeaves is leaves over the fields of rec that Append writes.
func storedLeaves(rec *Record, fn func(reflect.Value)) {
	v := reflect.ValueOf(rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name != "Explanation" {
			leaves(v.Field(i), fn)
		}
	}
}

// filledRecord is a Record none of whose stored fields is empty, so that
// every omitempty field is written: leaf i holds a value derived from i.
func filledRecord() *Record {
	rec := &Record{}
	i := 0
	storedLeaves(rec, func(v reflect.Value) {
		i++
		switch v.Kind() {
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", i))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Float64:
			v.SetFloat(float64(i) + 0.25)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(i))
		case reflect.Uint64:
			v.SetUint(uint64(i))
		default:
			panic(fmt.Sprintf("filledRecord: no value for a %s leaf; teach it (and the encoder) the new kind", v.Kind()))
		}
	})
	return rec
}

// hostileStrings is what a user-agent header can carry that a JSON
// encoder must not pass through.
var hostileStrings = []string{
	"",
	`<script>alert("x")&amp;</script>`,
	`back\slash "quoted"`,
	"\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f",
	"line\u2028para\u2029sep",
	"\xff\xfe invalid \xc3( utf-8 \xed\xa0\x80 surrogate \xf4\x90\x80\x80",
	"trailing lead byte \xe2\x80",
	"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36",
	"日本語 ünïcödé 🦊",
	"00c0ffee00c0ffee",                 // a canonical trace ID
	"fedcba9876543210fedcba9876543210", // a canonical session ID
	"00C0FFEE00C0FFEE",                 // upper-case: not canonical
	"00c0ffee00c0ffeg",
}

// hostileFloats covers both notations, their cut-overs, the exponent
// clean-up, both zeros, the integer fast path's edges and the extremes.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 1.5, 100, 1e6, 123456789,
	1e-6, 0.99e-6, 1e-7, -1e-7, 1.234e-9, 1e-10, 1e-100,
	1e20, 1e21, -1e21, 1.5e21, 1e22, 1e100,
	1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1 << 62, 1 << 63, -(1 << 63), 1e15, 1e15 + 0.5,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.Pi, 1.0 / 3,
}

// TestRecordEncodeParity holds the ledger's encoder to encoding/json,
// which is what reads the ledger back. The filled record is built by
// reflection, so a field added to Record or core.Verdict without a line
// in the encoder fails here.
func TestRecordEncodeParity(t *testing.T) {
	t.Run("every field", func(t *testing.T) {
		rec := filledRecord()
		checkParity(t, rec)
		// The filled record must really write every key: json.Marshal
		// dropping one (an omitempty leaf left empty by filledRecord)
		// would let the encoder drop it too.
		body, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		keys := recordKeys(reflect.TypeOf(Record{}))
		if len(keys) < 18 {
			t.Fatalf("walked %d json keys, the record has more", len(keys))
		}
		for _, key := range keys {
			if !bytes.Contains(body, []byte(`"`+key+`":`)) {
				t.Errorf("filled record does not write %q:\n%s", key, body)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		checkParity(t, &Record{})
		checkParity(t, &Record{Vector: []float64{}})
		// An explanation on the record is not written.
		body, err := encodeRecord(&Record{Explanation: &core.Explanation{}})
		if err != nil || bytes.Contains(body, []byte("explanation")) {
			t.Fatalf("encoded an explanation: %s, %v", body, err)
		}
	})
	t.Run("serving", func(t *testing.T) {
		rec := servingRecord()
		checkParity(t, &rec)
	})
	t.Run("hostile strings", func(t *testing.T) {
		for _, s := range hostileStrings {
			rec := filledRecord()
			storedLeaves(rec, func(v reflect.Value) {
				if v.Kind() == reflect.String {
					v.SetString(s)
				}
			})
			checkParity(t, rec)
		}
	})
	t.Run("hostile floats", func(t *testing.T) {
		for _, f := range hostileFloats {
			rec := filledRecord()
			storedLeaves(rec, func(v reflect.Value) {
				if v.Kind() == reflect.Float64 {
					v.SetFloat(f)
				}
			})
			checkParity(t, rec)
		}
	})
	t.Run("non-finite", func(t *testing.T) {
		// One bad value at a time, in every float the record holds: the
		// encoder must fail exactly where json.Marshal does, with its
		// error.
		floats := 0
		storedLeaves(filledRecord(), func(v reflect.Value) {
			if v.Kind() == reflect.Float64 {
				floats++
			}
		})
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for target := 0; target < floats; target++ {
				rec := filledRecord()
				i := 0
				storedLeaves(rec, func(v reflect.Value) {
					if v.Kind() == reflect.Float64 {
						if i == target {
							v.SetFloat(bad)
						}
						i++
					}
				})
				if _, err := encodeRecord(rec); err == nil {
					t.Fatalf("float %d = %v encoded without error", target, bad)
				}
				checkParity(t, rec)
			}
		}
		// Two bad values: the first in field order is the one reported.
		rec := filledRecord()
		rec.Vector[1] = math.Inf(1)
		rec.Verdict.NoveltyScore = math.NaN()
		checkParity(t, rec)
	})
}

// recordKeys lists the json key of every tagged field under t.
func recordKeys(t reflect.Type) []string {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		return recordKeys(t.Elem())
	case reflect.Struct:
		var keys []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if tag == "" || tag == "-" {
				continue
			}
			name, _, _ := strings.Cut(tag, ",")
			if name == "explanation" {
				continue // never written: readers derive it
			}
			keys = append(keys, name)
			keys = append(keys, recordKeys(f.Type)...)
		}
		return keys
	}
	return nil
}

// servingRecord is a record of the shape the serving tier appends: a
// 28-feature integral vector, a desktop user-agent, every provenance
// field set — under half a kilobyte framed.
func servingRecord() Record {
	vec := make([]float64, 28)
	for i := range vec {
		vec[i] = float64((i*37)%211 + i%2)
	}
	return Record{
		TimeNs:    1_700_000_000_123_456_789,
		TraceID:   "00c0ffee00c0ffee",
		ModelHash: "0123456789abcdef0123456789abcdef",
		SessionID: "fedcba9876543210fedcba9876543210",
		UserAgent: "Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:110.0) Gecko/20100101 Firefox/110.0",
		Endpoint:  "/v1/collect",
		Vector:    vec,
		Verdict:   core.Verdict{Cluster: 3, RiskFactor: 9, Flagged: true},
	}
}

// TestServingRecordSize pins the storage cost of one audited verdict:
// the paper's budget is a fingerprint of at most 1 KB, and the evidence
// for one must not outweigh it. A segment pays for a fingerprint once, in
// its class frame; each verdict on it after that costs its provenance.
func TestServingRecordSize(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := servingRecord()
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	first := l.Counters().Bytes
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	known := l.Counters().Bytes - first
	t.Run("known-class", func(t *testing.T) {
		if known > 72 {
			t.Fatalf("a record of a known class frames to %d B, want ≤ 72", known)
		}
	})
	t.Run("class-frame", func(t *testing.T) {
		if frame := first - known; frame > 512 {
			t.Fatalf("the serving-shape class frame is %d B, want ≤ 512", frame)
		}
	})
}

// FuzzRecordEncodeParity: whatever strings and numbers a record holds,
// the encoder writes what json.Marshal writes, or both refuse; and written
// as the writer writes a record of a class, it reads back as it does
// inline (checkParity).
func FuzzRecordEncodeParity(f *testing.F) {
	for i, s := range hostileStrings {
		f.Add(s, hostileFloats[i], hostileFloats[len(hostileFloats)-1-i], int64(i)-3, uint8(i))
	}
	f.Add("NaN", math.NaN(), 1.0, int64(math.MinInt64), uint8(0xff))
	f.Add("Inf", 2.5, math.Inf(-1), int64(math.MaxInt64), uint8(0x55))
	f.Add("\xff", 0.5, 1.0, int64(-1), uint8(0x50))
	f.Fuzz(func(t *testing.T, s string, a, b float64, n int64, bits uint8) {
		on := func(i int) bool { return bits>>i&1 == 1 }
		rec := &Record{
			Seq:       uint64(n),
			TimeNs:    n,
			TraceID:   s,
			UserAgent: s,
			Verdict:   core.Verdict{Cluster: int(n), Matched: on(0), RiskFactor: int(n >> 8), Novel: on(1), NoveltyScore: a, Flagged: on(2)},
			Redacted:  on(3),
			VectorDim: int(n >> 16),
		}
		if on(4) {
			rec.Vector = []float64{a, b, float64(n)}
			rec.ModelHash, rec.SessionID, rec.Endpoint = s, s, s
		}
		if on(5) {
			rec.VectorSHA256 = s
		}
		if on(6) { // the serving tier's IDs
			rec.TraceID = fmt.Sprintf("%016x", uint64(n))
			rec.SessionID = fmt.Sprintf("%016x%016x", math.Float64bits(a), math.Float64bits(b))
		}
		checkParity(t, rec)
	})
}
