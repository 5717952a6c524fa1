package collect

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// TestSwapModelUnderConcurrentScoring hammers SwapModel while scoring
// requests are in flight. Run under -race this proves the hot-swap path
// publishes models safely: every request scores against a complete model
// (the one loaded at request start), never a torn one.
func TestSwapModelUnderConcurrentScoring(t *testing.T) {
	m, d := testModel(t)
	m2, _ := testModel(t)
	srv, err := NewServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}

	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	payload := payloadFor(d, rel, rel)
	body, err := json.Marshal(jsonPayload{
		SessionID: "30313233343536373839616263646566",
		UserAgent: payload.UserAgent,
		Values:    payload.Values,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Swapper: flip between two (identical-content) models as fast as
	// possible.
	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		models := [2]*core.Model{m, m2}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.SwapModel(models[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Scorers: concurrent collect-json requests plus metric scrapes.
	const scorers = 4
	var wg sync.WaitGroup
	for g := 0; g < scorers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/collect-json", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("collect status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var dec Decision
				if err := json.Unmarshal(rec.Body.Bytes(), &dec); err != nil {
					t.Errorf("decode decision: %v", err)
					return
				}
				if dec.Flagged {
					t.Errorf("honest session flagged mid-swap: %+v", dec)
					return
				}
				if i%20 == 0 {
					mrec := httptest.NewRecorder()
					srv.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
					if mrec.Code != http.StatusOK {
						t.Errorf("metrics status %d", mrec.Code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapperDone
}

// TestIngestVsStatsUnderConcurrentHammer hammers the ingest endpoints
// while other goroutines scrape /metrics and /v1/flagged. Under -race
// this proves the counter reads are not torn; the invariant checks prove
// each scrape is a coherent view: received never decreases between
// successive scrapes, and flagged never exceeds received.
func TestIngestVsStatsUnderConcurrentHammer(t *testing.T) {
	m, d := testModel(t)
	// /v1/flagged reads the ledger's ring while the ingesters append.
	led, err := audit.Open(audit.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	srv, err := NewServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	honestBody, err := honest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	lyingBody, err := lying.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte("garbage")

	const ingesters = 4
	const perIngester = 300
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bodies := [3][]byte{honestBody, lyingBody, bad}
			for i := 0; i < perIngester; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/collect", bytes.NewReader(bodies[(g+i)%3]))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
			}
		}(g)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastReceived float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/metrics status %d", rec.Code)
					return
				}
				ex := obs.ParseExpositionString(rec.Body.String())
				received, flagged := ex.Sum(obs.FamCollections.Name), ex.Sum(obs.FamFlagged.Name)
				if received < lastReceived {
					t.Errorf("received went backwards: %g -> %g", lastReceived, received)
					return
				}
				lastReceived = received
				if flagged > received {
					t.Errorf("flagged %g exceeds received %g", flagged, received)
					return
				}
				rec = httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/flagged", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/v1/flagged status %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// The hammer sent equal thirds of honest / lying / garbage bodies.
	ex := obs.ParseExpositionString(srv.MetricsText())
	received, rejected := ex.Sum(obs.FamCollections.Name), ex.Sum(obs.FamRejected.Name)
	const total = ingesters * perIngester
	if received+rejected != total {
		t.Fatalf("received %g + rejected %g != %d sent", received, rejected, total)
	}
	if received != 2*total/3 || rejected != total/3 {
		t.Fatalf("received %g rejected %g, want %d/%d", received, rejected, 2*total/3, total/3)
	}
	if flagged := ex.Sum(obs.FamFlagged.Name); flagged != total/3 {
		t.Fatalf("flagged %g, want %d", flagged, total/3)
	}
}
