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
// for it are exported for the ledger's log, as zero series when no
// ledger is configured, and the exposition still lints. The ledger is
// the one log: no other series appears.
func TestSegmentFlushMetrics(t *testing.T) {
	const durations, waits = "polygraph_segment_flush_duration_microseconds", "polygraph_segment_flush_waits_total"
	m, _ := testModel(t)
	bare, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	text := bare.MetricsText()
	for _, series := range []string{
		durations + `_count{log="audit"} 0`, waits + `{log="audit"} 0`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Fatalf("exposition without a ledger lacks %q", series)
		}
	}
	if strings.Contains(text, `log="journal"`) {
		t.Fatal(`exposition carries a log="journal" series`)
	}

	led, err := audit.Open(audit.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Record(audit.Record{UserAgent: "Chrome 112"}); err != nil {
		t.Fatal(err)
	}
	// Sync drains the flusher: one write.
	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	text = srv.MetricsText()
	if series := durations + `_count{log="audit"} 1` + "\n"; !strings.Contains(text, series) {
		t.Fatalf("exposition lacks %q after one flush", series)
	}
	problems, err := obs.Lint(strings.NewReader(text), durations, waits)
	if err != nil || len(problems) != 0 {
		t.Fatalf("lint: %v %v", err, problems)
	}
	if err := led.Close(); err != nil {
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
		in.warnAppend(nil, "collect: audit record failed", sticky)
		in.warnAppend(nil, "collect: audit record failed", seglog.ErrClosed)
	}
	logged := logBuf.String()
	for msg, want := range map[string]int{
		"collect: audit record failed": 1 + 3,
		"14 buffered frames lost":      1,
	} {
		if got := strings.Count(logged, msg); got != want {
			t.Errorf("%q logged %d times, want %d:\n%s", msg, got, want, logged)
		}
	}
}
