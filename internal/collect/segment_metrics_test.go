package collect

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/obs"
	"polygraph/internal/seglog"
)

// TestSegmentFlushMetrics: the flusher's write durations and the waits
// for it are exported for both logs, as zero series when a log is not
// configured, and the exposition still lints.
func TestSegmentFlushMetrics(t *testing.T) {
	const durations, waits = "polygraph_segment_flush_duration_microseconds", "polygraph_segment_flush_waits_total"
	m, _ := testModel(t)
	bare, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	text := bare.MetricsText()
	for _, series := range []string{
		durations + `_count{log="audit"} 0`, durations + `_count{log="journal"} 0`,
		waits + `{log="audit"} 0`, waits + `{log="journal"} 0`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Fatalf("exposition without ledger or journal lacks %q", series)
		}
	}

	led, err := audit.Open(audit.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	journal, err := OpenJournal(t.TempDir(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Model: m, Audit: led, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Record(audit.Record{UserAgent: "Chrome 112"}); err != nil {
		t.Fatal(err)
	}
	if err := journal.Append(Decision{SessionID: "s"}); err != nil {
		t.Fatal(err)
	}
	// Sync drains the flusher: one write each.
	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := journal.Sync(); err != nil {
		t.Fatal(err)
	}
	text = srv.MetricsText()
	for _, log := range []string{"audit", "journal"} {
		if series := fmt.Sprintf("%s_count{log=%q} 1\n", durations, log); !strings.Contains(text, series) {
			t.Fatalf("exposition lacks %q after one flush", series)
		}
	}
	problems, err := obs.Lint(strings.NewReader(text), durations, waits)
	if err != nil || len(problems) != 0 {
		t.Fatalf("lint: %v %v", err, problems)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStickyWriteFailureIsLoggedOnce: a failed segment write fails every
// later append the same way, so it is one warning, not one per request;
// any other append failure is still logged each time.
func TestStickyWriteFailureIsLoggedOnce(t *testing.T) {
	var logBuf bytes.Buffer
	in := &ingest{logger: obs.NewLogger(&logBuf, false)}
	sticky := fmt.Errorf("audit: write frame: %w", fmt.Errorf("%w: 14 buffered frames lost: disk full", seglog.ErrWriteFailed))
	for i := 0; i < 3; i++ {
		in.warnAppend(nil, "collect: audit record failed", sticky, &in.ledgerFailed)
		in.warnAppend(nil, "collect: journal append failed", sticky, &in.journalFailed)
		in.warnAppend(nil, "collect: audit record failed", seglog.ErrClosed, &in.ledgerFailed)
	}
	logged := logBuf.String()
	for msg, want := range map[string]int{
		"collect: audit record failed":   1 + 3,
		"collect: journal append failed": 1,
		"14 buffered frames lost":        2,
	} {
		if got := strings.Count(logged, msg); got != want {
			t.Errorf("%q logged %d times, want %d:\n%s", msg, got, want, logged)
		}
	}
}
