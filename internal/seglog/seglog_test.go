package seglog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// refLog is the rotating file this package replaced, kept as the
// differential reference: a bufio.Writer over an O_EXCL segment, flushed
// on rotation, Sync and Close.
type refLog struct {
	dir      string
	maxBytes int64
	file     *os.File
	writer   *bufio.Writer
	size     int64
	seq      int
}

func openRef(t *testing.T, dir string, maxBytes int64) *refLog {
	t.Helper()
	r := &refLog{dir: dir, maxBytes: maxBytes}
	segments, err := Segments(dir, "ref", "log")
	if err != nil {
		t.Fatal(err)
	}
	r.seq = len(segments)
	r.open(t)
	return r
}

func (r *refLog) open(t *testing.T) {
	t.Helper()
	f, err := os.OpenFile(Path(r.dir, "ref", "log", r.seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	r.file, r.writer, r.size = f, bufio.NewWriterSize(f, bufSize), 0
}

func (r *refLog) seal(t *testing.T) {
	t.Helper()
	if err := r.writer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.file.Close(); err != nil {
		t.Fatal(err)
	}
}

func (r *refLog) append(t *testing.T, frame []byte) {
	t.Helper()
	if r.size+int64(len(frame)) > r.maxBytes && r.size > 0 {
		r.rotate(t)
	}
	if _, err := r.writer.Write(frame); err != nil {
		t.Fatal(err)
	}
	r.size += int64(len(frame))
}

func (r *refLog) rotate(t *testing.T) {
	t.Helper()
	if r.size == 0 {
		return
	}
	r.seal(t)
	r.seq++
	r.open(t)
}

func (r *refLog) sync(t *testing.T) {
	t.Helper()
	if err := r.writer.Flush(); err != nil {
		t.Fatal(err)
	}
}

// writeLog records, per segment file, the end offset of every write the
// flusher made — the Tap seam used as an observer.
type writeLog struct {
	mu   sync.Mutex
	ends map[string][]int64
}

func (l *writeLog) tap(w io.Writer) io.Writer {
	return &tappedFile{log: l, name: filepath.Base(w.(*os.File).Name()), w: w}
}

type tappedFile struct {
	log  *writeLog
	name string
	w    io.Writer
	off  int64
}

func (f *tappedFile) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.off += int64(n)
	f.log.mu.Lock()
	f.log.ends[f.name] = append(f.log.ends[f.name], f.off)
	f.log.mu.Unlock()
	return n, err
}

func readSegments(t *testing.T, dir, prefix, ext string) [][]byte {
	t.Helper()
	paths, err := Segments(dir, prefix, ext)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(paths))
	for i, p := range paths {
		if out[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMatchesBufioReference drives the writer and the bufio reference
// with the same random script — frames of 1 B to 40 KiB (so some are
// larger than a buffer), small and large rotation thresholds, Sync,
// Rotate and Close-and-reopen interleaved — and demands identical
// segments, byte for byte. Every write the files saw must also end on a
// frame boundary.
func TestMatchesBufioReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			maxBytes := []int64{300, 5 << 10, 100 << 10, 1 << 30}[rng.Intn(4)]
			dir, refDir := t.TempDir(), t.TempDir()
			writes := &writeLog{ends: map[string][]int64{}}
			cfg := Config{Dir: dir, Prefix: "ref", Ext: "log", MaxBytes: maxBytes, Tap: writes.tap}
			w, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := openRef(t, refDir, maxBytes)
			// boundaries[segment] holds every offset a frame ends at.
			boundaries := map[string]map[int64]bool{}
			mark := func() {
				name := filepath.Base(ref.file.Name())
				if boundaries[name] == nil {
					boundaries[name] = map[int64]bool{}
				}
				boundaries[name][ref.size] = true
			}
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(100); {
				case op < 90:
					var n int
					switch rng.Intn(10) {
					case 0:
						n = 1 + rng.Intn(40<<10)
					case 1:
						n = 1 + rng.Intn(16)
					default:
						n = 1 + rng.Intn(3000)
					}
					frame := make([]byte, n)
					rng.Read(frame)
					cut := rng.Intn(n + 1)
					if err := w.Append(frame[:cut], frame[cut:]); err != nil {
						t.Fatal(err)
					}
					ref.append(t, frame)
					mark()
				case op < 94:
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
					ref.sync(t)
				case op < 98:
					if err := w.Rotate(); err != nil {
						t.Fatal(err)
					}
					ref.rotate(t)
				default:
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					ref.seal(t)
					if w, err = Open(cfg); err != nil {
						t.Fatal(err)
					}
					ref = openRef(t, refDir, maxBytes)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			ref.seal(t)

			got, want := readSegments(t, dir, "ref", "log"), readSegments(t, refDir, "ref", "log")
			if len(got) != len(want) {
				t.Fatalf("%d segments, reference has %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("segment %d differs from the reference (%d vs %d bytes)", i, len(got[i]), len(want[i]))
				}
			}
			for name, ends := range writes.ends {
				for _, end := range ends {
					if !boundaries[name][end] {
						t.Fatalf("a write to %s ended at offset %d, inside a frame", name, end)
					}
				}
			}
		})
	}
}

// TestResumePolicy pins the two things Open can do with existing
// segments: start after the newest, or resume it at the offset Recover
// returns.
func TestResumePolicy(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Prefix: "p", Ext: "log", MaxBytes: 1 << 20}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("intact|"), []byte("torn")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Recover = func(f *os.File) (int64, error) { return int64(len("intact|")), nil }
	if w, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("resumed"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := readSegments(t, dir, "p", "log"); len(segs) != 1 || string(segs[0]) != "intact|resumed" {
		t.Fatalf("after resume: %q", segs)
	}

	cfg.Recover = nil
	if w, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(nil, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := readSegments(t, dir, "p", "log"); len(segs) != 2 || string(segs[1]) != "next" {
		t.Fatalf("after start-after-newest: %q", segs)
	}

	cfg.Recover = func(*os.File) (int64, error) { return 0, errors.New("unreadable") }
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open succeeded though Recover failed")
	}
}

// gate is a Tap whose writes block until released.
type gate struct {
	release chan struct{}
	entered chan struct{}
}

func (g *gate) tap(w io.Writer) io.Writer { return gatedFile{g, w} }

type gatedFile struct {
	g *gate
	w io.Writer
}

func (f gatedFile) Write(p []byte) (int, error) {
	select {
	case f.g.entered <- struct{}{}:
	default:
	}
	<-f.g.release
	return f.w.Write(p)
}

// waitFor polls cond, which must become true because of an event the
// test has already caused.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressure blocks the disk: two buffers' worth of appends must
// be accepted without it, the first append of a third buffer's worth
// must wait — not fail, not drop — and releasing the disk must complete
// everything in order.
func TestBackpressure(t *testing.T) {
	g := &gate{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, Prefix: "bp", Ext: "log", MaxBytes: 1 << 30, Tap: g.tap})
	if err != nil {
		t.Fatal(err)
	}
	const frameSize, perBuffer = bufSize / 4, 4
	frame := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, frameSize) }
	var want []byte
	// The first buffer fills, the fifth frame hands it to the flusher
	// (which blocks in the gate), frames five to eight fill the second.
	for i := 0; i < 2*perBuffer; i++ {
		if err := w.Append(frame(i), nil); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame(i)...)
	}
	<-g.entered
	if m := w.FlushMetrics(); m.Waits != 0 {
		t.Fatalf("%d flush waits while a buffer was still free", m.Waits)
	}

	const extra = 3
	accepted := make(chan int, extra)
	go func() {
		for i := 2 * perBuffer; i < 2*perBuffer+extra; i++ {
			if err := w.Append(frame(i), nil); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
			accepted <- i
		}
	}()
	for i := 2 * perBuffer; i < 2*perBuffer+extra; i++ {
		want = append(want, frame(i)...)
	}
	waitFor(t, "the ninth append to wait for the flusher", func() bool { return w.FlushMetrics().Waits == 1 })
	select {
	case i := <-accepted:
		t.Fatalf("append %d returned with both buffers full and the disk blocked", i)
	default:
	}
	if data, err := os.ReadFile(Path(dir, "bp", "log", 0)); err != nil || len(data) != 0 {
		t.Fatalf("file holds %d bytes (err %v) while the disk is blocked", len(data), err)
	}

	close(g.release)
	for i := 0; i < extra; i++ {
		<-accepted
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := readSegments(t, dir, "bp", "log"); len(segs) != 1 || !bytes.Equal(segs[0], want) {
		t.Fatalf("segments after release do not hold the %d appended frames in order", 2*perBuffer+extra)
	}
	if m := w.FlushMetrics(); m.Durations.Count() == 0 {
		t.Fatal("flush durations not recorded")
	}
}

// TestIdleFlush fires the idle timer's function by hand: one frame in a
// quiet log must reach the file without Sync or Close.
func TestIdleFlush(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, Prefix: "idle", Ext: "log", MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("last words\n"), nil); err != nil {
		t.Fatal(err)
	}
	if w.idle == nil {
		t.Fatal("a buffer's first frame did not arm the idle timer")
	}
	path := Path(dir, "idle", "log", 0)
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("frame written before any flush: %q", data)
	}
	w.flushIdle()
	if data, err := os.ReadFile(path); err != nil || string(data) != "last words\n" {
		t.Fatalf("after the idle flush the file holds %q (err %v)", data, err)
	}
	w.flushIdle() // nothing buffered: a no-op
	if n := w.FlushMetrics().Durations.Count(); n != 1 {
		t.Fatalf("%d writes, want 1", n)
	}
}

// failAfter is a Tap whose writes fail, writing nothing, once ok of them
// have succeeded. The first failing write waits for hold to be closed.
type failAfter struct {
	ok   int
	err  error
	hold chan struct{}
}

func (f *failAfter) tap(w io.Writer) io.Writer { return failingFile{f, w} }

type failingFile struct {
	f *failAfter
	w io.Writer
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.f.ok == 0 {
		<-f.f.hold
		return 0, f.f.err
	}
	f.f.ok--
	return f.w.Write(p)
}

// TestWriteFailureIsSticky fails the second write. The frames of the
// failed buffer and of the active one are reported lost, every later
// operation returns the error, and the file holds exactly the first
// write.
func TestWriteFailureIsSticky(t *testing.T) {
	diskFull := errors.New("no space left on device")
	dir := t.TempDir()
	disk := &failAfter{ok: 1, err: diskFull, hold: make(chan struct{})}
	w, err := Open(Config{Dir: dir, Prefix: "f", Ext: "log", MaxBytes: 1 << 30, Tap: disk.tap})
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte("x"), bufSize/4)
	// Four frames fill the first buffer and the fifth hands it off (that
	// write succeeds); five to eight fill the second, the ninth hands it
	// off (that write is held, then fails) and lands in the active
	// buffer with the tenth.
	for i := 0; i < 10; i++ {
		if err := w.Append(frame, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if frames, _ := w.Lost(); frames != 0 {
		t.Fatalf("%d frames lost before the failure", frames)
	}
	close(disk.hold)
	waitFor(t, "the failed write", func() bool { frames, _ := w.Lost(); return frames > 0 })
	if frames, lost := w.Lost(); frames != 6 || lost != int64(6*len(frame)) {
		t.Fatalf("lost %d frames / %d bytes, want 6 / %d", frames, lost, 6*len(frame))
	}
	for name, err := range map[string]error{
		"Append": w.Append(frame, nil), "Sync": w.Sync(), "Rotate": w.Rotate(), "Close": w.Close(),
	} {
		if !errors.Is(err, ErrWriteFailed) || !errors.Is(err, diskFull) {
			t.Errorf("%s after the failure returned %v", name, err)
		}
	}
	if frames, _ := w.Lost(); frames != 6 {
		t.Fatalf("lost count moved to %d after the failure", frames)
	}
	if segs := readSegments(t, dir, "f", "log"); len(segs) != 1 || len(segs[0]) != 4*len(frame) {
		t.Fatalf("file does not hold exactly the first write: %d segments", len(segs))
	}
}

// TestClosed pins what a closed writer answers.
func TestClosed(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir(), Prefix: "c", Ext: "log", MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on a closed writer: %v", err)
	}
	if err := w.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate on a closed writer: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync on a closed writer: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestHammer races appenders against Sync, Rotate and size rotation; run
// with -race. Afterwards every frame must be on disk exactly once, whole,
// and each appender's frames in the order it appended them.
func TestHammer(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, Prefix: "h", Ext: "log", MaxBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perAppender = 8, 400
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(a)))
			for i := 0; i < perAppender; i++ {
				// length | appender | index | filler
				body := make([]byte, 8+rng.Intn(2000))
				binary.BigEndian.PutUint32(body, uint32(a))
				binary.BigEndian.PutUint32(body[4:], uint32(i))
				var head [4]byte
				binary.BigEndian.PutUint32(head[:], uint32(len(body)))
				if err := w.Append(head[:], body); err != nil {
					t.Errorf("appender %d: %v", a, err)
					return
				}
			}
		}(a)
	}
	stop := make(chan struct{})
	var ops sync.WaitGroup
	for _, op := range []func() error{w.Sync, w.Rotate} {
		ops.Add(1)
		go func(op func() error) {
			defer ops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(); err != nil {
					t.Errorf("concurrent op: %v", err)
					return
				}
			}
		}(op)
	}
	wg.Wait()
	close(stop)
	ops.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	next := make([]uint32, appenders)
	segs := readSegments(t, dir, "h", "log")
	for s, seg := range segs {
		// Only the active segment may be empty: a Rotate just before Close.
		if len(seg) == 0 && s != len(segs)-1 {
			t.Fatalf("sealed segment %d is empty", s)
		}
		for len(seg) > 0 {
			if len(seg) < 4 || len(seg) < 4+int(binary.BigEndian.Uint32(seg)) {
				t.Fatalf("segment %d ends inside a frame", s)
			}
			body := seg[4 : 4+binary.BigEndian.Uint32(seg)]
			a, i := binary.BigEndian.Uint32(body), binary.BigEndian.Uint32(body[4:])
			if a >= appenders || i != next[a] {
				t.Fatalf("appender %d: frame %d on disk where %d belongs", a, i, next[a])
			}
			next[a]++
			seg = seg[4+len(body):]
		}
	}
	for a, n := range next {
		if n != perAppender {
			t.Fatalf("appender %d: %d of %d frames on disk", a, n, perAppender)
		}
	}
}

// flushers counts the live flusher goroutines in the process.
func flushers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("seglog.(*Writer).flusher"))
}

// TestNoGoroutineLeak: a writer is one goroutine, however often it
// rotates, and none once Close has returned.
func TestNoGoroutineLeak(t *testing.T) {
	// Flushers of earlier tests' writers have been waited for, but may
	// not have left the scheduler yet.
	waitFor(t, "earlier tests' flushers to be gone", func() bool { return flushers() == 0 })
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, Prefix: "g", Ext: "log", MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append([]byte("frame"), nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := Segments(dir, "g", "log"); len(segs) != 101 {
		t.Fatalf("%d segments after 100 rotations", len(segs))
	}
	if n := flushers(); n != 1 {
		t.Fatalf("%d flusher goroutines for one writer after 100 rotations", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return flushers() == 0 && runtime.NumGoroutine() <= base
	})
}

// TestNextNamesTheFramesSegment: Next says which segment a frame of n
// bytes goes to, starting it first when the frame would not fit, so an
// Append of those n bytes that follows lands there and rotates nothing;
// a resumed log's Seq is the resumed segment's.
func TestNextNamesTheFramesSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Prefix: "n", Ext: "log", MaxBytes: 100}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 40)
	for i, want := range []int{0, 0, 1, 1, 2} {
		seq, err := w.Next(len(frame))
		if err != nil || seq != want || w.Seq() != want {
			t.Fatalf("frame %d: Next %d (Seq %d), %v; want segment %d", i, seq, w.Seq(), err, want)
		}
		if err := w.Append(frame[:10], frame[10:]); err != nil {
			t.Fatal(err)
		}
		if w.Seq() != want {
			t.Fatalf("frame %d: Append moved to segment %d after Next said %d", i, w.Seq(), want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readSegments(t, dir, "n", "log"); len(got) != 3 || len(got[0]) != 80 || len(got[2]) != 40 {
		t.Fatalf("segments of %d files", len(got))
	}
	cfg.Recover = func(f *os.File) (int64, error) { return 40, nil }
	w, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Seq() != 2 {
		t.Fatalf("resumed segment %d, want 2", w.Seq())
	}
	if seq, err := w.Next(80); err != nil || seq != 3 {
		t.Fatalf("a frame past the resumed segment's room: Next %d, %v; want 3", seq, err)
	}
}
