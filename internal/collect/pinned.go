// pinned by bench/seam.go; ROADMAP item 1 deletes

package collect

import (
	"fmt"
	"sync"

	"polygraph/internal/seglog"
)

// Nothing that serves calls these: the audit ledger is the one evidence
// log. The benchmark module still compiles against them, and sets the
// ignored Config.Store and serving's Config.JournalDir.

// Store returns nil: the server keeps no flagged-decision store.
func (s *Server) Store() *MemoryStore { return nil }

// Journal is an append-only, size-rotated JSONL log of decisions,
// written through internal/seglog. Files are named
// <prefix>.000000.jsonl, <prefix>.000001.jsonl, ... in its directory.
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

// Close writes out and closes the active segment. Further Appends fail.
func (j *Journal) Close() error { return j.log.Close() }

// MemoryStore retains the most recent decisions it is given in a
// sharded ring, safe for concurrent use.
type MemoryStore struct {
	shards [16]storeShard
	cap    int
}

type storeShard struct {
	mu      sync.Mutex
	entries []Decision
	next    int
}

// NewMemoryStore bounds the total retained decisions (rounded up to a
// multiple of the shard count).
func NewMemoryStore(capacity int) *MemoryStore {
	if capacity < 16 {
		capacity = 16
	}
	return &MemoryStore{cap: (capacity + 15) / 16}
}

func (m *MemoryStore) shardFor(sessionID string) *storeShard {
	h := uint32(2166136261)
	for i := 0; i < len(sessionID); i++ {
		h = (h ^ uint32(sessionID[i])) * 16777619
	}
	return &m.shards[h%16]
}

// Record stores a decision.
func (m *MemoryStore) Record(d Decision) {
	sh := m.shardFor(d.SessionID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.entries) < m.cap {
		sh.entries = append(sh.entries, d)
		return
	}
	sh.entries[sh.next] = d
	sh.next = (sh.next + 1) % m.cap
}
