package collect

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The shims of pinned.go, tested as the benchmark module uses them.

// readJournal decodes every line of the journal's segments in dir,
// oldest segment first, and returns them with the segment count.
func readJournal(t *testing.T, dir, prefix string) ([]Decision, int) {
	t.Helper()
	segments, err := filepath.Glob(filepath.Join(dir, prefix+".*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []Decision
	for _, seg := range segments {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var d Decision
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				t.Fatalf("%s: %v in %q", seg, err, sc.Text())
			}
			out = append(out, d)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return out, len(segments)
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Decision, 100)
	for i := range want {
		want[i] = Decision{SessionID: fmt.Sprintf("s%03d", i), Cluster: i % 11, RiskFactor: i % 21, Flagged: i%3 == 0}
		if err := j.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := readJournal(t, dir, "test")
	if len(got) != len(want) {
		t.Fatalf("read back %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
	if err := j.Append(Decision{}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatal("double close failed")
	}
}

func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, "rot", 200) // tiny segments
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := j.Append(Decision{SessionID: fmt.Sprintf("session-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, segments := readJournal(t, dir, "rot")
	if segments < 3 {
		t.Fatalf("only %d segments; rotation not happening", segments)
	}
	// Order holds across segments.
	if len(got) != 50 {
		t.Fatalf("read back %d of 50", len(got))
	}
	for i, d := range got {
		if d.SessionID != fmt.Sprintf("session-%d", i) {
			t.Fatalf("order broken at %d: %s", i, d.SessionID)
		}
	}
}

func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	j1, err := OpenJournal(dir, "res", 0)
	if err != nil {
		t.Fatal(err)
	}
	j1.Append(Decision{SessionID: "first"})
	j1.Close()

	j2, err := OpenJournal(dir, "res", 0)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(Decision{SessionID: "second"})
	j2.Close()

	got, segments := readJournal(t, dir, "res")
	if len(got) != 2 || got[0].SessionID != "first" || got[1].SessionID != "second" {
		t.Fatalf("resume lost history: %+v", got)
	}
	if segments != 2 {
		t.Fatalf("%d segments after resume, want 2", segments)
	}
}

func TestJournalConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, "conc", 4096)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(Decision{SessionID: fmt.Sprintf("w%d-%d", w, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := readJournal(t, dir, "conc"); len(got) != workers*per {
		t.Fatalf("read back %d of %d", len(got), workers*per)
	}
}

func TestMemoryStoreRing(t *testing.T) {
	st := NewMemoryStore(16) // 1 per shard
	for i := 0; i < 100; i++ {
		st.Record(Decision{SessionID: string(rune('a' + i%26)), RiskFactor: i})
	}
	n := 0
	for i := range st.shards {
		if len(st.shards[i].entries) > st.cap {
			t.Fatalf("shard %d holds %d entries, over its %d", i, len(st.shards[i].entries), st.cap)
		}
		n += len(st.shards[i].entries)
	}
	if n == 0 || n > 16 {
		t.Fatalf("store len = %d", n)
	}
}

func TestServerStoreIsNil(t *testing.T) {
	m, _ := testModel(t)
	srv, err := NewServer(Config{Model: m, Store: NewMemoryStore(64)})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Store() != nil {
		t.Fatal("Server.Store() returned a store; the server keeps none")
	}
}
