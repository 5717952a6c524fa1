package collect

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"polygraph/internal/seglog"
)

// Journal is an append-only, size-rotated JSONL log of scoring decisions.
// The in-memory store bounds what the fraud team can query live; the
// journal is the durable record the risk pipeline replays (e.g. to
// re-score history after a retrain, or to audit a flagged session weeks
// later).
//
// Files are named <prefix>.000000.jsonl, <prefix>.000001.jsonl, ... in
// the journal directory; the active file rotates once it passes
// maxBytes. They are written by internal/seglog, which the audit ledger
// shares: Append copies the encoded line into one of two 32 KiB buffers
// and a flusher goroutine performs every write(2), whole lines only. A
// line is in the file within a second of Append, or when Sync or Close
// return; a process crash can lose at most the two buffers, a machine
// crash also what the OS had not written back. A disk that falls behind
// blocks Append once both buffers are full; a failed write is sticky and
// fails every later Append.
type Journal struct {
	log *seglog.Writer
}

// OpenJournal creates or resumes a journal in dir. maxBytes ≤ 0 selects
// 16 MiB per segment. Resuming continues after the highest existing
// segment, keeping history immutable.
func OpenJournal(dir, prefix string, maxBytes int64) (*Journal, error) {
	if prefix == "" {
		prefix = "decisions"
	}
	if maxBytes <= 0 {
		maxBytes = 16 << 20
	}
	log, err := seglog.Open(seglog.Config{Dir: dir, Prefix: prefix, Ext: "jsonl", MaxBytes: maxBytes})
	if err != nil {
		return nil, fmt.Errorf("collect: journal: %w", err)
	}
	return &Journal{log: log}, nil
}

// lineBufs recycles the buffers journal lines are encoded into.
var lineBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// Append writes one decision as a JSON line, rotating first if the active
// segment is full. The line is encoded before any lock is taken.
func (j *Journal) Append(d Decision) error {
	buf := lineBufs.Get().(*[]byte)
	line := append(d.AppendJSON((*buf)[:0]), '\n')
	err := j.log.Append(line, nil)
	*buf = line
	lineBufs.Put(buf)
	if err != nil {
		return fmt.Errorf("collect: journal write: %w", err)
	}
	return nil
}

// Sync returns once every appended line is in its segment file and the
// file is fsynced.
func (j *Journal) Sync() error { return j.log.Sync() }

// Close writes out and closes the active segment. Further Appends fail.
func (j *Journal) Close() error { return j.log.Close() }

// Segments lists the journal's files in sequence order.
func (j *Journal) Segments() ([]string, error) { return j.log.Segments() }

// FlushMetrics reports on the segment log's flusher.
func (j *Journal) FlushMetrics() seglog.FlushMetrics { return j.log.FlushMetrics() }

// Replay streams every journaled decision, oldest first, to fn; a false
// return stops early. The journal should be Synced (or Closed) first so
// buffered lines are visible. Corrupted lines (torn writes after a
// crash) are skipped, counted, and reported.
func (j *Journal) Replay(fn func(Decision) bool) (corrupted int, err error) {
	segments, err := j.Segments()
	if err != nil {
		return 0, err
	}
	for _, seg := range segments {
		f, err := os.Open(seg)
		if err != nil {
			return corrupted, fmt.Errorf("collect: journal open %s: %w", seg, err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var d Decision
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				corrupted++
				continue
			}
			if !fn(d) {
				f.Close()
				return corrupted, nil
			}
		}
		scanErr := sc.Err()
		f.Close()
		if scanErr != nil {
			return corrupted, fmt.Errorf("collect: journal scan %s: %w", seg, scanErr)
		}
	}
	return corrupted, nil
}
