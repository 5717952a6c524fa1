package audit

import (
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polygraph/internal/seglog"
)

// segmentPath names a ledger segment as the segment log does.
func segmentPath(dir, prefix string, seq int) string {
	return seglog.Path(dir, prefix, segmentExt, seq)
}

// TestQuietLedgerWritesItsLastRecord: nothing in the daemon calls Sync,
// so a record appended to a ledger that then goes quiet must still reach
// the file — here read with polygraphctl audit's reader, without Sync or Close —
// through the segment log's idle flush. (The flush itself is driven from
// its timer seam in seglog.TestIdleFlush; this is the real one-second
// timer under the ledger.)
func TestQuietLedgerWritesItsLastRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := admitAppend(l, testRecord(true, "last-words")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var got []Record
		stats, err := Scan(dir, "", func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 1 && stats.Clean() && got[0].TraceID == "last-words" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("record not in the file without Sync or Close: %+v", stats)
		}
	}
}

// disk is the ledger's write seam as the tests use it: it notes the size
// of every write and fails them (writing nothing) while failing is set.
type disk struct {
	mu      sync.Mutex
	writes  []int
	failing error
}

func (d *disk) tap(w io.Writer) io.Writer { return diskFile{d, w} }

type diskFile struct {
	d *disk
	w io.Writer
}

func (f diskFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.failing != nil {
		return 0, f.d.failing
	}
	f.d.writes = append(f.d.writes, len(p))
	return f.w.Write(p)
}

// TestFailedFlushMovesRecordsToDropped injects a write failure under the
// ledger. Records + Dropped must equal the admitted decisions before, at
// and after the fault; the records the failed flush lost must leave
// Records (and their bytes Bytes) — they were counted when Append
// accepted them; later appends must fail and count as dropped; and what
// did reach the file must verify.
func TestFailedFlushMovesRecordsToDropped(t *testing.T) {
	dir := t.TempDir()
	d := &disk{}
	l, err := open(Config{Dir: dir, SampleBenign: 2}, d.tap)
	if err != nil {
		t.Fatal(err)
	}
	var admitted int64
	record := func(flagged bool) error {
		admitted++
		return admitAppend(l, testRecord(flagged, fmt.Sprint("r", admitted)))
	}
	identity := func(when string) Counters {
		t.Helper()
		c := l.Counters()
		if c.Records+c.Dropped != admitted {
			t.Fatalf("%s: records %d + dropped %d != admitted %d", when, c.Records, c.Dropped, admitted)
		}
		return c
	}

	// Before: 40 decisions, every second benign one sampled out, written.
	for i := 0; i < 40; i++ {
		if err := record(i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before := identity("before the fault")
	if before.Records != 30 || before.Dropped != 10 {
		t.Fatalf("before the fault: %+v", before)
	}

	// At: seven more records are accepted into the buffer, then the disk
	// fails their flush.
	for i := 0; i < 7; i++ {
		if err := record(true); err != nil {
			t.Fatal(err)
		}
	}
	if c := identity("with records buffered"); c.Records != 37 {
		t.Fatalf("buffered records not counted: %+v", c)
	}
	diskFull := errors.New("no space left on device")
	d.mu.Lock()
	d.failing = diskFull
	d.mu.Unlock()
	if err := l.Sync(); !errors.Is(err, diskFull) {
		t.Fatalf("Sync over a failing disk: %v", err)
	}
	at := identity("at the fault")
	if at.Records != before.Records || at.Dropped != before.Dropped+7 || at.Bytes != before.Bytes {
		t.Fatalf("at the fault: %+v, want the 7 lost records moved to dropped from %+v", at, before)
	}

	// After: the failure is sticky, even with the disk back.
	d.mu.Lock()
	d.failing = nil
	d.mu.Unlock()
	for i := 0; i < 5; i++ {
		if err := record(true); !errors.Is(err, seglog.ErrWriteFailed) || !errors.Is(err, diskFull) {
			t.Fatalf("append after the fault: %v", err)
		}
	}
	after := identity("after the fault")
	if after.Records != before.Records || after.Dropped != at.Dropped+5 {
		t.Fatalf("after the fault: %+v", after)
	}
	if err := l.Close(); !errors.Is(err, diskFull) {
		t.Fatalf("Close after the fault: %v", err)
	}
	identity("after Close")

	// polygraphctl audit verify over what reached the file.
	stats, err := Scan(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Acceptable() || int64(stats.Records) != after.Records {
		t.Fatalf("ledger after the fault: %+v, want %d verifiable records", stats, after.Records)
	}
}

// TestCountersIdentityUnderConcurrentAppends holds Records + Dropped to
// the number of decisions while appenders run and the disk fails under
// them: Admit counts a sampled-out verdict nowhere but in the benign
// count, so Counters must derive it, at every sampling rate. A decision
// between Admit and Append is in neither counter, hence the two bounds;
// at rest the sum is exact, and sampling dropped exactly b − b/N.
func TestCountersIdentityUnderConcurrentAppends(t *testing.T) {
	for _, sample := range []int{1, 100} {
		t.Run(fmt.Sprint("sample", sample), func(t *testing.T) {
			dir := t.TempDir()
			d := &disk{}
			l, err := open(Config{Dir: dir, SampleBenign: sample}, d.tap)
			if err != nil {
				t.Fatal(err)
			}
			// Enough records of a class (≈ 60 B framed) that some leave the
			// two 32 KiB buffers for the disk before it fills, at 1 in 100.
			const writers, each = 4, 12000
			var started, finished atomic.Int64
			var diskFills sync.Once // half-way through, however the writers are scheduled
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if finished.Load() >= writers*each/2 {
							diskFills.Do(func() {
								d.mu.Lock()
								d.failing = errors.New("no space left on device")
								d.mu.Unlock()
							})
						}
						started.Add(1)
						rec := servingRecord()
						rec.Verdict.Flagged = i%10 == 0
						_ = admitAppend(l, rec) // fails once the disk has
						finished.Add(1)
					}
				}(w)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for finished.Load() < writers*each {
					lo := finished.Load()
					c := l.Counters()
					if hi := started.Load(); c.Records+c.Dropped < lo || c.Records+c.Dropped > hi {
						t.Errorf("records %d + dropped %d outside the %d finished and %d started decisions", c.Records, c.Dropped, lo, hi)
						return
					}
				}
			}()
			wg.Wait()
			<-done
			if err := l.Close(); err == nil {
				t.Fatal("Close over a failed disk reported nothing")
			}
			c := l.Counters()
			if c.Records+c.Dropped != writers*each {
				t.Fatalf("at rest: records %d + dropped %d != %d decisions", c.Records, c.Dropped, writers*each)
			}
			benign := int64(writers * each * 9 / 10)
			sampledOut := int64(0)
			if sample > 1 {
				sampledOut = benign - benign/int64(sample)
			}
			if c.Dropped < sampledOut || c.Records == 0 {
				t.Fatalf("at rest: %+v, with %d benign verdicts sampled out", c, sampledOut)
			}
			if stats, err := Scan(dir, "", nil); err != nil || !stats.Acceptable() || int64(stats.Records) != c.Records {
				t.Fatalf("ledger holds %+v (%v), counters say %d records", stats, err, c.Records)
			}
		})
	}
}

// TestCrashRecoveryAtEveryOffset cuts the newest segment at every byte
// offset inside its last two writes — every state a crash between or
// inside those writes can leave, given that writes carry whole frames —
// and reopens the ledger: every surviving frame must be whole, the torn
// one dropped, and numbering must continue without a gap. The records
// are of four classes, two of them first seen inside the cut writes, so
// cuts fall before, inside and after class frames; a resumed ledger must
// rebuild the segment's class table and refer to it.
func TestCrashRecoveryAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	d := &disk{}
	l, err := open(Config{Dir: dir}, d.tap)
	if err != nil {
		t.Fatal(err)
	}
	classOf := []int{0, 0, 1, 0, 1, 2, 0, 2, 3, 1, 3, 0}
	var frameEnds []int64 // offset each record's frame ends at
	for _, batch := range []int{5, 3, 4} {
		for i := 0; i < batch; i++ {
			k := len(frameEnds)
			if err := admitAppend(l, classRecord(classOf[k], fmt.Sprint("t", k))); err != nil {
				t.Fatal(err)
			}
			frameEnds = append(frameEnds, l.Counters().Bytes)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// One write per Sync (the idle flush may have split one on a stalled
	// box); the cuts start where the second-to-last write did.
	if len(d.writes) < 3 {
		t.Fatalf("writes %v, want one per Sync", d.writes)
	}
	var firstCut int64
	for _, n := range d.writes[:len(d.writes)-2] {
		firstCut += int64(n)
	}
	segment, err := os.ReadFile(segmentPath(dir, "decisions", 0))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(segment)) != frameEnds[len(frameEnds)-1] {
		t.Fatalf("segment is %d bytes, frames end at %d", len(segment), frameEnds[len(frameEnds)-1])
	}

	for cut := firstCut; cut <= int64(len(segment)); cut++ {
		whole := 0
		for whole < len(frameEnds) && frameEnds[whole] <= cut {
			whole++
		}
		crashed := t.TempDir()
		if err := os.WriteFile(segmentPath(crashed, "decisions", 0), segment[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Config{Dir: crashed})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		// Class 0 is defined in the first write, which no cut reaches: the
		// resumed ledger refers to it by its id, 1, and writes no class frame.
		for _, class := range []int{0, 3} {
			if err := admitAppend(l, classRecord(class, fmt.Sprint("post-crash-", class))); err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if class == 0 {
				rec := withSeq(classRecord(0, "post-crash-0"), uint64(whole))
				ref := appendProvenance(appendPackedLead(nil, rec.Seq, 1), &rec)
				if got := l.Counters().Bytes; got != int64(8+len(ref)) {
					t.Fatalf("cut at %d: the post-crash record of class 0 took %d B, want the %d of a packed record of class 1", cut, got, 8+len(ref))
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		var next uint64
		stats, err := Scan(crashed, "", func(r Record) error {
			want, class := fmt.Sprint("t", next), 0
			switch {
			case int(next) < whole:
				class = classOf[next]
			case int(next) == whole+1:
				want, class = "post-crash-3", 3
			default:
				want = "post-crash-0"
			}
			if r.Seq != next || r.TraceID != want || !reflect.DeepEqual(r, withSeq(classRecord(class, want), next)) {
				return fmt.Errorf("record %d reads %+v, want trace %q of class %d", next, r, want, class)
			}
			next++
			return nil
		})
		if err != nil || !stats.Clean() || stats.Records != whole+2 {
			t.Fatalf("cut at %d (%d whole frames): %+v, err %v", cut, whole, stats, err)
		}
	}
}

func withSeq(rec Record, seq uint64) Record {
	rec.Seq = seq
	return rec
}

// slowDisk is a write seam that sleeps 200 µs in every write (on a
// coarse-timer VM the sleep really takes about a millisecond).
type slowDisk struct{ w io.Writer }

func (s slowDisk) Write(p []byte) (int, error) {
	time.Sleep(200 * time.Microsecond)
	return s.w.Write(p)
}

// BenchmarkLedgerAppendSlowDisk is BenchmarkLedgerAppend from parallel
// appenders over a disk that sleeps in every write — one write per ~14
// records. Appenders this eager outrun such a disk, so the run is bound
// by it and by backpressure: ns/op reads about flush-ns/op, the time the
// flusher spent in write per record, and nowhere near the sleep. With
// the write under the ledger lock it read their sum, and every appender
// queued behind each sleep.
func BenchmarkLedgerAppendSlowDisk(b *testing.B) {
	l, err := open(Config{Dir: b.TempDir(), MaxBytes: 1 << 40}, func(w io.Writer) io.Writer { return slowDisk{w} })
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := servingRecord()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Append(rec); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(l.FlushMetrics().Durations.Sum().Nanoseconds())/float64(b.N), "flush-ns/op")
}
