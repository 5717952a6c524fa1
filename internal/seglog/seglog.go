// Package seglog is the one rotating segment file under the audit ledger
// and the decision journal: files named <prefix>.<seq>.<ext> in one
// directory, created O_EXCL so history is never overwritten, rotated
// once the active one would pass a size, and written by a single
// flusher goroutine so that no appender ever performs a write(2).
//
// A frame is whatever bytes one Append is given — the ledger's
// length-prefixed record, the journal's JSON line. The writer never
// looks inside one and never splits one.
//
// Buffering is double. Append copies its frame into the active
// in-memory buffer. When the next frame would take that buffer past
// bufSize it is handed to the flusher and the spare becomes active; if
// the flusher still holds the spare — both buffers full, the disk is
// behind — the appender waits for it. That is backpressure, not a
// queue: memory stays at two buffers (a frame larger than a buffer
// stretches one), and a disk that cannot keep up slows appenders down
// instead of growing a backlog. Every write(2) carries whole frames.
//
// Durability contract. Append returning nil means the frame is in
// process memory and will be written in order; it is in the file at the
// latest idleFlush after it was appended (a quiet log's buffer is handed
// off by a timer), or once Sync, Rotate or Close return, which drain the
// flusher first. A crash of the process can lose at most the two
// buffers; a crash of the machine can also lose what the OS had not
// written back since the last Sync. A failed write is sticky, as
// bufio.Writer's is: the frames of the failed buffer and of the active
// one are counted lost (Lost), and every later Append, Sync, Rotate and
// Close returns an error wrapping ErrWriteFailed.
package seglog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/obs"
)

const (
	// bufSize is where a buffer is handed to the flusher — the size of
	// the bufio.Writer this package replaced, so write(2) sizes are what
	// they were.
	bufSize = 32 << 10
	// idleFlush bounds how long a frame sits in a buffer that traffic is
	// not filling.
	idleFlush = time.Second
)

var (
	// ErrClosed is returned by operations on a closed Writer.
	ErrClosed = errors.New("seglog: closed")
	// ErrWriteFailed is wrapped by the sticky error a failed write(2)
	// leaves behind.
	ErrWriteFailed = errors.New("seglog: segment write failed")
)

// Config parameterizes Open.
type Config struct {
	// Dir holds the segments; created if missing.
	Dir string
	// Prefix and Ext name them: <Dir>/<Prefix>.<6-digit seq>.<Ext>.
	Prefix, Ext string
	// MaxBytes rotates the active segment before a frame would take it
	// past this size (a segment always holds at least one frame).
	MaxBytes int64
	// Recover selects what Open does with existing segments. Nil: start
	// a new segment after the newest, leaving history untouched. Set:
	// resume the newest — Recover is handed that file and returns the
	// length of its intact prefix, the file is truncated there and
	// appended to.
	Recover func(f *os.File) (intact int64, err error)
	// Tap, when set, wraps every segment file before the flusher writes
	// to it. It is the fault- and latency-injection seam of the tests
	// and benchmarks; production leaves it nil.
	Tap func(io.Writer) io.Writer
}

// FlushMetrics is what a Writer exports about its flusher.
type FlushMetrics struct {
	// Durations is the histogram of the flusher's write(2) calls.
	Durations *obs.Hist
	// Waits counts appends that found both buffers full and waited for
	// the flusher.
	Waits int64
}

// buffer is one of the two frame buffers.
type buffer struct {
	data   []byte
	frames int
}

func (b *buffer) reset() {
	// A frame far beyond bufSize stretched the buffer; do not keep that.
	if cap(b.data) > 4*bufSize {
		b.data = make([]byte, 0, bufSize)
	}
	b.data, b.frames = b.data[:0], 0
}

// Writer appends frames to the active segment. It is safe for
// concurrent use; frames reach the file in Append order.
type Writer struct {
	cfg Config

	flushes    obs.Hist
	waits      atomic.Int64
	lostFrames atomic.Int64
	lostBytes  atomic.Int64

	mu sync.Mutex
	// cond is broadcast whenever flushing or stop changes: the flusher
	// waits on it for work, everyone else for the flusher.
	cond sync.Cond
	// bufs[cur] is the active buffer. While flushing is set the other one
	// belongs to the flusher, and neither cur nor file changes.
	bufs     [2]buffer
	cur      int
	flushing bool
	file     *os.File
	out      io.Writer     // file, or Tap(file)
	seq      int           // of the active segment
	size     int64         // of the active segment, buffered frames included
	err      error         // sticky write error
	closed   bool          // no more frames; set when Close begins
	stop     bool          // tells the flusher to exit; set when Close has drained
	idle     *time.Timer   // flushes a quiet active buffer; nil until the first frame
	done     chan struct{} // closed when the flusher has exited
}

// Open creates or resumes the log described by cfg and starts its
// flusher; Close stops it.
func Open(cfg Config) (*Writer, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: dir: %w", err)
	}
	w := &Writer{cfg: cfg, done: make(chan struct{})}
	w.cond.L = &w.mu
	for i := range w.bufs {
		w.bufs[i].data = make([]byte, 0, bufSize)
	}
	segments, err := Segments(cfg.Dir, cfg.Prefix, cfg.Ext)
	if err != nil {
		return nil, err
	}
	var newest string
	if n := len(segments); n > 0 {
		newest = segments[n-1]
		fmt.Sscanf(filepath.Base(newest), cfg.Prefix+".%06d."+cfg.Ext, &w.seq)
	}
	switch {
	case newest == "":
		err = w.create()
	case cfg.Recover != nil:
		err = w.resume(newest)
	default:
		w.seq++
		err = w.create()
	}
	if err != nil {
		return nil, err
	}
	go w.flusher()
	return w, nil
}

// Path names segment seq of a log.
func Path(dir, prefix, ext string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%06d.%s", prefix, seq, ext))
}

// Segments lists a log's segment files in sequence order.
func Segments(dir, prefix, ext string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, prefix+".*."+ext))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// Segments lists this log's segment files in sequence order.
func (w *Writer) Segments() ([]string, error) {
	return Segments(w.cfg.Dir, w.cfg.Prefix, w.cfg.Ext)
}

// create opens segment w.seq, which must not exist yet.
func (w *Writer) create() error {
	f, err := os.OpenFile(Path(w.cfg.Dir, w.cfg.Prefix, w.cfg.Ext, w.seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: segment: %w", err)
	}
	w.setFile(f, 0)
	return nil
}

// resume reopens an existing segment for append at the end of the
// prefix cfg.Recover vouches for.
func (w *Writer) resume(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: recover: %w", err)
	}
	intact, err := w.cfg.Recover(f)
	if err == nil {
		err = f.Truncate(intact)
	}
	if err == nil {
		_, err = f.Seek(intact, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("seglog: recover %s: %w", path, err)
	}
	w.setFile(f, intact)
	return nil
}

func (w *Writer) setFile(f *os.File, size int64) {
	w.file, w.out, w.size = f, f, size
	if w.cfg.Tap != nil {
		w.out = w.cfg.Tap(f)
	}
}

// Append adds one frame, the concatenation of parts, rotating first if
// the active segment is full. It copies the bytes and returns without
// touching the file.
//
// Every wait below releases mu, so each turn of the loop re-reads the
// state it acts on: another caller may have rotated, swapped the
// buffers, closed the writer, or the flusher may have failed.
func (w *Writer) Append(parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	waited := false
	for {
		if err := w.fit(n); err != nil {
			return err
		}
		b := &w.bufs[w.cur]
		if len(b.data)+n > bufSize && len(b.data) > 0 {
			if !w.flushing {
				w.swap()
			} else {
				if !waited {
					waited = true
					w.waits.Add(1)
				}
				w.cond.Wait()
			}
			continue
		}
		if len(b.data) == 0 {
			w.armIdle()
		}
		for _, p := range parts {
			b.data = append(b.data, p...)
		}
		b.frames++
		w.size += int64(n)
		return nil
	}
}

// Next returns the number of the segment a frame of n bytes appended
// now goes to, starting that segment first when the frame would take the
// active one past MaxBytes. A caller whose frames refer to what earlier
// frames of the same segment defined asks before it builds a frame, and
// appends that frame before anything else can: nothing but Append and
// Rotate starts a segment.
func (w *Writer) Next(n int) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.fit(n); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// Seq returns the number of the active segment.
func (w *Writer) Seq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// fit makes the active segment one a frame of n bytes may go to: when
// the frame would take a segment that holds frames past MaxBytes, it
// waits for those frames to be written, seals it and starts the next.
// Holds mu, releasing it while it waits.
func (w *Writer) fit(n int) error {
	for {
		if err := w.usable(); err != nil {
			return err
		}
		if w.size+int64(n) <= w.cfg.MaxBytes || w.size == 0 {
			return nil
		}
		if w.flushing || len(w.bufs[w.cur].data) > 0 {
			w.drain()
		} else if err := w.next(); err != nil {
			return err
		}
	}
}

// usable reports why the writer takes no more frames, if it does not.
func (w *Writer) usable() error {
	if w.closed {
		return ErrClosed
	}
	return w.err
}

// swap gives the active buffer to the flusher, which must not be holding
// the other one, and makes that one active. Holds mu.
func (w *Writer) swap() {
	w.cur = 1 - w.cur
	w.flushing = true
	w.cond.Broadcast()
}

// drain returns once every appended frame has been written or lost to a
// failed write: the active buffer is empty and the flusher idle (at once,
// on a closed writer). Holds mu, releasing it while it waits; callers
// re-check closed and err.
func (w *Writer) drain() {
	for {
		switch {
		case w.flushing:
			w.cond.Wait()
		case len(w.bufs[w.cur].data) > 0:
			w.swap()
		default:
			return
		}
	}
}

// armIdle starts the clock on a buffer's first frame.
func (w *Writer) armIdle() {
	if w.idle == nil {
		w.idle = time.AfterFunc(idleFlush, w.flushIdle)
	} else {
		w.idle.Reset(idleFlush)
	}
}

// flushIdle is what the idle timer runs: a buffer that traffic has not
// filled within idleFlush of its first frame is written as it is, so a
// quiet daemon's last records reach the file without a shutdown.
func (w *Writer) flushIdle() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drain()
}

// flusher owns every write to a segment file.
func (w *Writer) flusher() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for !w.flushing && !w.stop {
			w.cond.Wait()
		}
		if !w.flushing {
			return // Close drained before it set stop
		}
		b, out := &w.bufs[1-w.cur], w.out
		w.mu.Unlock()
		start := time.Now()
		_, err := out.Write(b.data)
		w.flushes.Record(time.Since(start))
		w.mu.Lock()
		if err != nil {
			w.fail(b, err)
		}
		b.reset()
		w.flushing = false
		w.cond.Broadcast()
	}
}

// fail makes a failed write of b sticky. b's frames are lost, and so are
// the active buffer's, which no later write will carry. Holds mu.
func (w *Writer) fail(b *buffer, err error) {
	active := &w.bufs[w.cur]
	frames, bytes := b.frames+active.frames, len(b.data)+len(active.data)
	active.reset()
	w.lostFrames.Add(int64(frames))
	w.lostBytes.Add(int64(bytes))
	w.err = fmt.Errorf("%w: %d buffered frames (%d bytes) lost: %w", ErrWriteFailed, frames, bytes, err)
}

// next seals the active segment, which must be drained, and starts the
// following one. Holds mu.
func (w *Writer) next() error {
	if err := w.file.Close(); err != nil {
		return fmt.Errorf("seglog: seal segment: %w", err)
	}
	w.seq++
	return w.create()
}

// Rotate seals the active segment and starts a fresh one, unless the
// active one is still empty.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drain()
	if err := w.usable(); err != nil {
		return err
	}
	if w.size == 0 {
		return nil
	}
	return w.next()
}

// Sync writes every appended frame to the file and fsyncs it. On a
// closed writer it does nothing.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drain()
	if w.closed {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return w.file.Sync()
}

// Close writes every appended frame, stops the flusher and closes the
// active segment; further Appends fail. Closing twice is harmless.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.drain()
	err := w.err
	w.stop = true
	w.cond.Broadcast()
	if w.idle != nil {
		w.idle.Stop()
	}
	w.mu.Unlock()
	<-w.done
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// FlushMetrics snapshots the flusher's metrics.
func (w *Writer) FlushMetrics() FlushMetrics {
	return FlushMetrics{Durations: &w.flushes, Waits: w.waits.Load()}
}

// Lost reports the frames, and their bytes, that Append accepted and a
// failed write then lost.
func (w *Writer) Lost() (frames, bytes int64) {
	return w.lostFrames.Load(), w.lostBytes.Load()
}
