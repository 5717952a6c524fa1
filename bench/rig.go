package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"
)

// rig is the program under load: one serving.Replica for the HTTP and
// direct workloads, collect.TCPServer plus the collect.Server that
// exports its counters for replay-tcp. Everything listens on loopback.
type rig struct {
	// dir holds the rig's journal and audit ledger and nothing else, so
	// its size after close is the disk the run wrote.
	dir string

	replica *replica
	handler *httpIngest // what an embedder would mount; the direct workload's target
	baseURL string      // serves /metrics on every workload

	tcp     *tcpRig
	tcpAddr string
	servers sync.WaitGroup
	metrics *http.Server
}

func startRig(wl workload, m *model, dir string) (*rig, error) {
	r := &rig{dir: dir}
	if wl.transport != transportTCP {
		rep, err := seamStartReplica(replicaOptions{
			name:        wl.name,
			model:       m,
			journalDir:  filepath.Join(dir, "journal"),
			auditDir:    filepath.Join(dir, "audit"),
			auditSample: wl.auditSample,
		})
		if err != nil {
			return nil, err
		}
		r.replica, r.handler, r.baseURL = rep, seamReplicaHandler(rep), seamReplicaURL(rep)
		return r, nil
	}

	t, err := seamNewTCPRig(m, filepath.Join(dir, "audit"), wl.auditSample)
	if err != nil {
		return nil, err
	}
	r.tcp, r.handler = t, t.http
	frames, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.tcpAddr = frames.Addr().String()
	r.servers.Add(1)
	go func() {
		defer r.servers.Done()
		seamTCPServe(t.tcp, frames)
	}()
	pages, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.baseURL = "http://" + pages.Addr().String()
	r.metrics = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seamServeHTTP(t.http, w, req)
	})}
	r.servers.Add(1)
	go func() {
		defer r.servers.Done()
		r.metrics.Serve(pages)
	}()
	return r, nil
}

// close stops every listener and goroutine of the rig and flushes the
// journal and the ledger, so dirBytes(r.dir) is final afterwards.
func (r *rig) close() error {
	if r.replica != nil {
		return seamReplicaClose(r.replica)
	}
	err := seamTCPClose(r.tcp.tcp)
	if r.metrics != nil {
		err = errors.Join(err, r.metrics.Close())
	}
	r.servers.Wait()
	r.tcp.stop()
	return errors.Join(err, r.tcp.ledger.Close())
}

// scraper reads the rig's /metrics page the way a Prometheus server
// would, over its own keep-alive connection.
type scraper struct {
	url    string
	client *http.Client
}

func newScraper(baseURL string) *scraper {
	return &scraper{
		url:    baseURL + "/metrics",
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
}

func (s *scraper) page() (string, error) {
	resp, err := s.client.Get(s.url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("scrape: %s", resp.Status)
	}
	return string(body), nil
}

func (s *scraper) counters() (counters, error) {
	page, err := s.page()
	if err != nil {
		return counters{}, err
	}
	return seamParseCounters(page), nil
}

// background scrapes once per interval, as a Prometheus server would,
// until stop is called; stop waits for the loop and returns how many
// scrapes failed. It may be called more than once.
func (s *scraper) background(interval time.Duration) (stop func() (failed int)) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	failed := 0
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := s.page(); err != nil {
					failed++
				}
			}
		}
	}()
	return func() int {
		cancel()
		<-done
		return failed
	}
}

func (s *scraper) close() { s.client.CloseIdleConnections() }
