package audit_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/browser"
	"polygraph/internal/collect"
	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// failingDisk fails every write while err is set.
type failingDisk struct {
	mu  sync.Mutex
	err error
}

func (d *failingDisk) set(err error) {
	d.mu.Lock()
	d.err = err
	d.mu.Unlock()
}

func (d *failingDisk) tap(w io.Writer) io.Writer { return diskWriter{d, w} }

type diskWriter struct {
	d *failingDisk
	w io.Writer
}

func (f diskWriter) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	err := f.d.err
	f.d.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return f.w.Write(p)
}

// TestFlaggedQueueShowsOnlyWrittenVerdicts: /v1/flagged shows what the
// evidence log holds. Under a failing disk, neither the flagged verdict
// the failed flush lost nor the one whose append failed after it, on
// the sticky write error, appears in the queue; the one written before
// the fault stays.
func TestFlaggedQueueShowsOnlyWrittenVerdicts(t *testing.T) {
	m, ext := trainModel(t, 30, false)
	disk := &failingDisk{}
	led, err := audit.OpenTapped(audit.Config{Dir: t.TempDir()}, disk.tap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collect.NewServer(collect.Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	lie := func(id string) {
		t.Helper()
		p := &fingerprint.Payload{
			UserAgent: ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Windows10),
			Values: fingerprint.VectorToValues(ext.Extract(browser.Profile{
				Release: ua.Release{Vendor: ua.Chrome, Version: 114}, OS: ua.Windows10})),
		}
		copy(p.SessionID[:], id)
		body, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, collect.EndpointBinary, bytes.NewReader(body)))
		var d collect.Decision
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil || !d.Flagged {
			t.Fatalf("%s: %d %s, want a flagged verdict", id, rec.Code, rec.Body.String())
		}
	}

	lie("written.........")
	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("no space left on device")
	disk.set(diskFull)
	lie("lost-in-flush...") // accepted into the buffer the failing flush loses
	if err := led.Sync(); !errors.Is(err, diskFull) {
		t.Fatalf("Sync over a failing disk: %v", err)
	}
	disk.set(nil)
	lie("append-failed...") // the failure is sticky: Append refuses it

	if c := led.Counters(); c.Records != 1 || c.Dropped != 2 {
		t.Fatalf("counters %+v, want 1 record and 2 dropped", c)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/flagged", nil))
	var queue []audit.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &queue); err != nil {
		t.Fatal(err)
	}
	if len(queue) != 1 || queue[0].SessionID != hex.EncodeToString([]byte("written.........")) {
		t.Fatalf("/v1/flagged under a failed disk: %+v, want only the written verdict", queue)
	}
	if err := led.Close(); !errors.Is(err, diskFull) {
		t.Fatalf("Close after the fault: %v", err)
	}
}
