package audit

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"polygraph/internal/core"
)

func testRecord(flagged bool, trace string) Record {
	return Record{
		TraceID:   trace,
		ModelHash: "deadbeef",
		UserAgent: "Chrome 91.0.4472",
		Vector:    []float64{1, 2, 3},
		Verdict:   core.Verdict{Cluster: 4, Matched: !flagged, RiskFactor: 7, Flagged: flagged},
	}
}

// admitAppend is what the serving path does with one decision: Admit
// it, and Append it when admitted. A sampled-out decision returns nil.
func admitAppend(l *Ledger, rec Record) error {
	if !l.Admit([]bool{rec.Verdict.Flagged})[0] {
		return nil
	}
	return l.Append(rec)
}

// Admit over a block admits what one call per decision admits, and
// moves the benign count the same, for every sampling rate: a serial
// stream of mixed verdicts cut into blocks of several sizes.
func TestAdmitBlockMatchesOneAtATime(t *testing.T) {
	flags := make([]bool, 1000)
	for i := range flags {
		flags[i] = i%3 == 0 || i%7 == 2
	}
	for _, n := range []int{1, 3, 100} {
		single, err := Open(Config{Dir: t.TempDir(), SampleBenign: n})
		if err != nil {
			t.Fatal(err)
		}
		blocked, err := Open(Config{Dir: t.TempDir(), SampleBenign: n})
		if err != nil {
			t.Fatal(err)
		}
		var want, got []bool
		for _, f := range flags {
			want = append(want, single.Admit([]bool{f})[0])
		}
		sizes := []int{1, 64, 5, 256, 0, 2}
		for rest, b := flags, 0; len(rest) > 0; b++ {
			block := append([]bool(nil), rest[:min(sizes[b%len(sizes)], len(rest))]...)
			rest = rest[len(block):]
			got = append(got, blocked.Admit(block)...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("1 in %d: the block form admits %v, one at a time %v", n, got, want)
		}
		if single.Counters() != blocked.Counters() {
			t.Fatalf("1 in %d: counters %+v in blocks, %+v one at a time", n, blocked.Counters(), single.Counters())
		}
		for _, l := range []*Ledger{single, blocked} {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := admitAppend(l, testRecord(i%2 == 0, fmt.Sprintf("trace-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	stats, err := Scan(dir, "", func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Clean() {
		t.Fatalf("scan not clean: %+v", stats)
	}
	if stats.Records != n || len(got) != n {
		t.Fatalf("got %d records, want %d", stats.Records, n)
	}
	for i, r := range got {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.TraceID != fmt.Sprintf("trace-%d", i) {
			t.Fatalf("record %d trace %q", i, r.TraceID)
		}
		if r.Verdict.Flagged != (i%2 == 0) {
			t.Fatalf("record %d flagged=%v", i, r.Verdict.Flagged)
		}
	}
	c := l.Counters()
	if c.Records != n || c.Dropped != 0 || c.Bytes <= 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestLedgerSampling(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SampleBenign: 5})
	if err != nil {
		t.Fatal(err)
	}
	const flagged, benign = 13, 100
	for i := 0; i < flagged; i++ {
		if err := admitAppend(l, testRecord(true, "")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < benign; i++ {
		if err := admitAppend(l, testRecord(false, "")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// All flagged recorded; exactly floor-style every-5th benign.
	wantBenign := benign / 5
	var gotFlagged, gotBenign int
	if _, err := Scan(dir, "", func(r Record) error {
		if r.Verdict.Flagged {
			gotFlagged++
		} else {
			gotBenign++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gotFlagged != flagged {
		t.Fatalf("flagged recorded %d, want %d (all)", gotFlagged, flagged)
	}
	if gotBenign != wantBenign {
		t.Fatalf("benign recorded %d, want %d", gotBenign, wantBenign)
	}
	c := l.Counters()
	if c.Records != int64(flagged+wantBenign) || c.Dropped != int64(benign-wantBenign) {
		t.Fatalf("counters %+v", c)
	}
	// Invariant the loadgen cross-check relies on: every decision is
	// either recorded or counted dropped.
	if c.Records+c.Dropped != int64(flagged+benign) {
		t.Fatalf("records+dropped=%d, want %d", c.Records+c.Dropped, flagged+benign)
	}
}

func TestLedgerRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := admitAppend(l, testRecord(true, "")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segments, err := Segments(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) < 2 {
		t.Fatalf("expected rotation to create multiple segments, got %v", segments)
	}
	stats, err := Scan(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Clean() || stats.Records != n {
		t.Fatalf("scan %+v, want %d clean records", stats, n)
	}
}

func TestLedgerExplicitRotate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err) // empty segment: no-op, no error
	}
	if err := admitAppend(l, testRecord(true, "")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := admitAppend(l, testRecord(true, "")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segments, err := Segments(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) != 2 {
		t.Fatalf("segments after one rotate: %v", segments)
	}
	stats, err := Scan(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Clean() || stats.Records != 2 {
		t.Fatalf("scan %+v", stats)
	}
}

// TestLedgerCrashRecovery truncates the active segment mid-record,
// reopens the ledger, and asserts the torn tail is dropped while every
// earlier record still verifies and sequence numbers continue without
// reuse of durable ones.
func TestLedgerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const before = 10
	for i := 0; i < before; i++ {
		if err := admitAppend(l, testRecord(true, fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segments, err := Segments(dir, "")
	if err != nil || len(segments) != 1 {
		t.Fatalf("segments %v err %v", segments, err)
	}
	path := segments[0]
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: cut 3 bytes off the file, simulating a
	// crash mid-append.
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	stats, err := Scan(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clean() || !stats.Acceptable() {
		t.Fatalf("torn final segment should be acceptable but not clean: %+v", stats)
	}
	if stats.Records != before-1 {
		t.Fatalf("scan after tear saw %d records, want %d", stats.Records, before-1)
	}

	// Reopen: recovery must truncate the torn tail and resume.
	l, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := admitAppend(l, testRecord(false, "post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	stats, err = Scan(dir, "", func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Clean() {
		t.Fatalf("post-recovery scan must be fully clean: %+v", stats)
	}
	if len(got) != before {
		t.Fatalf("post-recovery records %d, want %d", len(got), before)
	}
	for i := 0; i < before-1; i++ {
		if got[i].Seq != uint64(i) || got[i].TraceID != fmt.Sprintf("t%d", i) {
			t.Fatalf("prior record %d damaged: %+v", i, got[i])
		}
	}
	last := got[before-1]
	if last.TraceID != "post-crash" {
		t.Fatalf("resumed record = %+v", last)
	}
	if last.Seq != uint64(before-1) {
		// Seq before-1 was torn away, so it is free for reuse; what
		// matters is no durable seq is duplicated.
		t.Fatalf("resumed seq %d, want %d", last.Seq, before-1)
	}
}

// TestLedgerCorruptMiddleSegment flips a byte inside a sealed segment:
// Scan must report it torn and Acceptable must be false, because only
// the final segment may legitimately end short.
func TestLedgerCorruptMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := admitAppend(l, testRecord(true, "")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segments, err := Segments(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) < 2 {
		t.Fatalf("need ≥2 segments, got %v", segments)
	}
	data, err := os.ReadFile(segments[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segments[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := Scan(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Acceptable() {
		t.Fatalf("corrupt sealed segment must not be acceptable: %+v", stats)
	}
}

func TestLedgerRecentFilters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 12; i++ {
		if err := admitAppend(l, testRecord(i%3 == 0, fmt.Sprintf("tr-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Ring holds the last 8 (i = 4..11), newest first.
	all := l.Recent(100, "", "")
	if len(all) != 8 {
		t.Fatalf("recent len %d, want 8", len(all))
	}
	if all[0].TraceID != "tr-11" || all[7].TraceID != "tr-4" {
		t.Fatalf("recent order wrong: first %q last %q", all[0].TraceID, all[7].TraceID)
	}
	flagged := l.Recent(100, "flagged", "")
	for _, r := range flagged {
		if !r.Verdict.Flagged {
			t.Fatalf("flagged filter returned benign record %+v", r)
		}
	}
	if len(flagged) != 2 { // i=6, 9 within the ring window
		t.Fatalf("flagged count %d, want 2", len(flagged))
	}
	benign := l.Recent(3, "benign", "")
	if len(benign) != 3 {
		t.Fatalf("benign cap %d, want 3", len(benign))
	}
	one := l.Recent(100, "", "tr-7")
	if len(one) != 1 || one[0].TraceID != "tr-7" {
		t.Fatalf("trace filter got %+v", one)
	}
	// n comes off a query string: it bounds the answer, not an allocation.
	if huge := l.Recent(math.MaxInt, "", ""); len(huge) != 8 || cap(huge) > 8 {
		t.Fatalf("Recent(MaxInt): len %d cap %d, want the ring's 8", len(huge), cap(huge))
	}
}

// TestLedgerConcurrencyHammer races writers against rotation and ring
// reads; run with -race. Records are encoded outside the ledger lock and
// numbered inside it, so afterwards the ledger must scan clean (every
// checksum covers the sequence number it was framed with), the on-disk
// sequence must run 0, 1, 2, … without a gap across the segments, and
// every submitted record — the unencodable ones included — must be
// counted exactly once as recorded or dropped.
func TestLedgerConcurrencyHammer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, MaxBytes: 4096, SampleBenign: 3, RingSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := testRecord(i%2 == 0, fmt.Sprintf("w%d-%d", w, i))
				if i%50 == 0 {
					// Flagged, so admitted; fails in the encoder.
					rec.Vector = []float64{1, math.NaN()}
					if err := admitAppend(l, rec); err == nil {
						t.Errorf("NaN record appended")
					}
					continue
				}
				if err := admitAppend(l, rec); err != nil {
					t.Errorf("record: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := l.Rotate(); err != nil {
				t.Errorf("rotate: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = l.Recent(10, "flagged", "")
			_ = l.Counters()
		}
	}()
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	total := int64(writers * perWriter)
	c := l.Counters()
	if c.Records+c.Dropped != total {
		t.Fatalf("records %d + dropped %d != submitted %d", c.Records, c.Dropped, total)
	}
	stats, err := Scan(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Clean() {
		t.Fatalf("hammer ledger not clean: %+v", stats)
	}
	if int64(stats.Records) != c.Records {
		t.Fatalf("on-disk records %d, counter %d", stats.Records, c.Records)
	}
	if unencodable := int64(writers * perWriter / 50); c.Dropped < unencodable {
		t.Fatalf("dropped %d, below the %d unencodable records", c.Dropped, unencodable)
	}
	var next uint64
	if _, err := Scan(dir, "", func(r Record) error {
		if r.Seq != next {
			return fmt.Errorf("seq %d on disk where %d belongs", r.Seq, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with empty Dir should fail")
	}
}

func TestSegmentsOrder(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []int{2, 0, 1} {
		if err := os.WriteFile(segmentPath(dir, "decisions", seq), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segments, err := Segments(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "decisions.000000.audit"),
		filepath.Join(dir, "decisions.000001.audit"),
		filepath.Join(dir, "decisions.000002.audit"),
	}
	if len(segments) != len(want) {
		t.Fatalf("segments %v", segments)
	}
	for i := range want {
		if segments[i] != want[i] {
			t.Fatalf("segment %d = %q, want %q", i, segments[i], want[i])
		}
	}
}

// BenchmarkLedgerAppend is one admitted record of the serving tier's
// shape (28-feature vector, no explanation) encoded, framed and buffered:
//   - known-class: a record of a class its segment already defines
//     (≈ 60 B framed, packed; the common case);
//   - new-class: every record a fingerprint not seen before, so each
//     defines a class (class frame + record, ≈ 0.4 KB) — the segment is
//     rotated, untimed, whenever its table fills;
//   - past-cap: every record a fingerprint not seen before, in a segment
//     whose table is full, so each is hashed, looked up and written whole
//     (≈ 0.47 KB).
//
// The last two are a flood that never repeats a fingerprint (paper §2.2).
// scripts/benchgate.sh gates their allocs/op.
func BenchmarkLedgerAppend(b *testing.B) {
	open := func(b *testing.B) *Ledger {
		l, err := Open(Config{Dir: b.TempDir(), MaxBytes: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		return l
	}
	appendOne := func(b *testing.B, l *Ledger, rec Record) {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("known-class", func(b *testing.B) {
		l, rec := open(b), servingRecord()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			appendOne(b, l, rec)
		}
	})
	b.Run("new-class", func(b *testing.B) {
		l, rec := open(b), servingRecord()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%classCap == classCap-1 {
				b.StopTimer()
				if err := l.Rotate(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			rec.Vector[0] = float64(i + 1)
			appendOne(b, l, rec)
		}
		if l.records.Load() != int64(b.N) || l.classes.Load().n.Load() == 0 {
			b.Fatalf("%d records, the last segment defines %d classes", l.records.Load(), l.classes.Load().n.Load())
		}
	})
	b.Run("past-cap", func(b *testing.B) {
		l, rec := open(b), servingRecord()
		for i := 0; i < classCap; i++ {
			rec.Vector[0] = float64(-1 - i)
			appendOne(b, l, rec)
		}
		// The vectors below are new to the full table, so each record is
		// written whole: pin that the first takes an inline record's bytes.
		rec.Vector[0], rec.Seq = 1, classCap
		inline, err := encodeRecord(&rec)
		if err != nil {
			b.Fatal(err)
		}
		before := l.Counters().Bytes
		appendOne(b, l, rec)
		if got := l.Counters().Bytes - before; got != int64(8+len(inline)) {
			b.Fatalf("a record past the cap takes %d B, an inline record %d B", got, 8+len(inline))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Vector[0] = float64(i + 2)
			appendOne(b, l, rec)
		}
	})
}
