package collect

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// startTCP boots a TCP server on a loopback port and returns its address
// plus a shutdown func.
func startTCP(t *testing.T) (*TCPServer, string, func()) {
	t.Helper()
	m, d := testModel(t)
	_ = d
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	cleanup := func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("server did not stop")
		}
	}
	return srv, l.Addr().String(), cleanup
}

func TestNewTCPServerRequiresModel(t *testing.T) {
	if _, err := NewTCPServer(Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestTCPBatchRoundtrip(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	client, err := DialTCP(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	honest := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112})
	lying := payloadFor(d, ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Firefox, Version: 110})
	tooWide := &fingerprint.Payload{UserAgent: "x", Values: []int64{1, 2, 3}}

	batch := []*fingerprint.Payload{honest, lying, tooWide}
	decisions, err := client.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 3 {
		t.Fatalf("%d decisions", len(decisions))
	}
	if decisions[0].Flagged || !decisions[0].Matched || decisions[0].Err {
		t.Fatalf("honest decision: %+v", decisions[0])
	}
	if !decisions[1].Flagged || decisions[1].RiskFactor != ua.MaxDistance {
		t.Fatalf("lying decision: %+v", decisions[1])
	}
	if !decisions[2].Err {
		t.Fatalf("wrong-width payload not errored: %+v", decisions[2])
	}
	if decisions[0].SessionID != honest.SessionID {
		t.Fatal("session id not echoed")
	}
	if srv.Flagged() != 1 {
		t.Fatalf("flagged counter %d, want 1", srv.Flagged())
	}
}

func TestTCPLargeBatchPipelined(t *testing.T) {
	m, d := testModel(t)
	srv, _ := NewTCPServer(Config{Model: m})
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(l)
	defer srv.Close()

	client, err := DialTCP(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 2000
	batch := make([]*fingerprint.Payload, n)
	for i := range batch {
		rel := ua.Release{Vendor: ua.Chrome, Version: 110 + i%4}
		batch[i] = payloadFor(d, rel, rel)
	}
	decisions, err := client.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, dec := range decisions {
		if dec.Err || dec.Flagged {
			t.Fatalf("decision %d: %+v", i, dec)
		}
	}
}

func TestTCPConcurrentConnections(t *testing.T) {
	m, d := testModel(t)
	srv, _ := NewTCPServer(Config{Model: m})
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(l)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := DialTCP(l.Addr().String(), 0)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			rel := ua.Release{Vendor: ua.Firefox, Version: 110}
			batch := []*fingerprint.Payload{payloadFor(d, rel, rel)}
			for i := 0; i < 50; i++ {
				if _, err := client.SubmitBatch(batch); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// writeCounter is a net.Conn that counts its writes.
type writeCounter struct {
	net.Conn
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// A 64-frame login batch (about 10.5 KB) leaves SubmitBatch in one
// write, the hello riding on the first, and the listener, which is
// handed it in one read, answers it as one coalesced batch.
func TestTCPClientSubmitsBatchInOneWrite(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	server, pipe := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handleConn(server)
	}()
	conn := &writeCounter{Conn: pipe}
	c := newTCPClient(conn)
	// net.Pipe has no buffer: a batch split over several writes stalls
	// once the listener answers its first part, so fail fast.
	c.ReadTimeout, c.WriteTimeout = 5*time.Second, 5*time.Second
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	batch := make([]*fingerprint.Payload, tcpBlockFrames)
	for i := range batch {
		batch[i] = payloadFor(d, rel, rel)
		batch[i].SessionID[0] = byte(i)
	}
	for round := 1; round <= 3; round++ {
		writes := conn.writes
		out, err := c.SubmitBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, dec := range out {
			if dec.Err || dec.SessionID != batch[i].SessionID {
				t.Fatalf("round %d, frame %d answered %+v", round, i, dec)
			}
		}
		if got := conn.writes - writes; got != 1 {
			t.Fatalf("round %d: the batch left in %d writes, want 1", round, got)
		}
		if h := srv.BatchHist(); h.Count() != uint64(round) || h.Sum() != time.Duration(round*tcpBlockFrames)*time.Microsecond {
			t.Fatalf("round %d: the listener served %d batches of %v frames in all, want %d of %d each", round, h.Count(), h.Sum(), round, tcpBlockFrames)
		}
	}
	c.Close()
	<-served
}

// A batch of many listener batches over net.Pipe, which buffers
// nothing: SubmitBatch reads the replies of each tcpMaxBatch frames
// before it writes more, so the listener never blocks flushing replies
// the client is not reading while the client blocks writing frames the
// listener is not reading, and every reply arrives well inside the
// deadline.
func TestTCPClientSubmitsLargeBatch(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	server, pipe := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handleConn(server)
	}()
	c := newTCPClient(pipe)
	const deadline = 5 * time.Second
	c.ReadTimeout, c.WriteTimeout = deadline, deadline
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	batch := make([]*fingerprint.Payload, 4*tcpMaxBatch+1)
	for i := range batch {
		batch[i] = payloadFor(d, rel, rel)
		batch[i].SessionID[0], batch[i].SessionID[1] = byte(i), byte(i>>8)
	}
	start := time.Now()
	out, err := c.SubmitBatch(batch)
	if took := time.Since(start); err != nil || took > deadline/2 {
		t.Fatalf("%d frames answered in %v: %v", len(batch), took, err)
	}
	for i, dec := range out {
		if dec.Err || dec.SessionID != batch[i].SessionID {
			t.Fatalf("frame %d answered %+v", i, dec)
		}
	}
	if h := srv.BatchHist(); h.Sum() != time.Duration(len(batch))*time.Microsecond {
		t.Fatalf("the listener served %v frames in %d batches, want %d", h.Sum(), h.Count(), len(batch))
	}
	c.Close()
	<-served
}

func TestTCPRejectsBadHello(t *testing.T) {
	_, addr, cleanup := startTCP(t)
	defer cleanup()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("EVIL"))
	// Server drops the connection: the next read sees EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept talking after bad hello")
	}
}

func TestTCPRejectsOversizedFrame(t *testing.T) {
	_, addr, cleanup := startTCP(t)
	defer cleanup()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(tcpHello))
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], 1<<20) // over tcpMaxFrame
	conn.Write(lenBuf[:])
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept talking after oversized frame")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	srv, _, cleanup := startTCP(t)
	cleanup()
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func BenchmarkTCPBatchScore(b *testing.B) {
	m, d := testModel(b)
	srv, _ := NewTCPServer(Config{Model: m})
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(l)
	defer srv.Close()
	client, err := DialTCP(l.Addr().String(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	batch := make([]*fingerprint.Payload, 100)
	for i := range batch {
		batch[i] = payloadFor(d, rel, rel)
	}
	_ = browser.Blink // keep import symmetry with helpers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.SubmitBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPBatchScoreParallel is the listener as replay traffic loads
// it: two connections, each pipelining the same 64-frame block from its
// own goroutine, behind a replica's ingest core — drift monitor on,
// ledger sampling one benign verdict in a hundred. What two connections
// share (the drift sampler, the ledger's and the listener's counters) is
// what this measures and a one-connection benchmark cannot; frames/s is
// the figure to compare, ns/op is per block. After the first block every
// verdict is a hit in the model's verdict memo.
func BenchmarkTCPBatchScoreParallel(b *testing.B) {
	m, d := testModel(b)
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, rel, rel)
	benchTCPParallel(b, m, [][]byte{frameBlock(b, func(int) *fingerprint.Payload { return p })})
}

// BenchmarkTCPBatchScoreParallelDistinct is its twin on traffic that does
// not repeat: 4 096 blocks of 64 frames, cycled, each frame the same
// honest Chrome 112 session under its own build number
// (Chrome/112.0.<block>.<frame>), so every (vector, user-agent) pair
// returns only after 262 144 others and every verdict is a memo miss the
// doorkeeper keeps out. It stands in for a population without the
// repetition the coarse fingerprint gives real traffic.
func BenchmarkTCPBatchScoreParallelDistinct(b *testing.B) {
	m, d := testModel(b)
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, rel, rel)
	honest := p.UserAgent
	blocks := make([][]byte, 4096)
	for i := range blocks {
		blocks[i] = frameBlock(b, func(f int) *fingerprint.Payload {
			p.UserAgent = strings.Replace(honest, "/112.0.0.0", fmt.Sprintf("/112.0.%d.%d", i, f), 1)
			return p
		})
	}
	benchTCPParallel(b, m, blocks)
}

// tcpBlockFrames is how many frames a benchmark block pipelines, as
// bench/'s replay-tcp does.
const tcpBlockFrames = 64

// frameBlock is tcpBlockFrames length-prefixed frames, frame f encoding
// payload(f).
func frameBlock(b testing.TB, payload func(f int) *fingerprint.Payload) []byte {
	var wire []byte
	for f := 0; f < tcpBlockFrames; f++ {
		enc, err := payload(f).MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		wire = binary.BigEndian.AppendUint32(wire, uint32(len(enc)))
		wire = append(wire, enc...)
	}
	return wire
}

// benchTCPParallel pipelines blocks over two connections, each starting
// half-way round the list from the other and cycling through it, and
// reports frames/s.
func benchTCPParallel(b *testing.B, m *core.Model, blocks [][]byte) {
	led, err := audit.Open(audit.Config{Dir: b.TempDir(), SampleBenign: 100})
	if err != nil {
		b.Fatal(err)
	}
	defer led.Close()
	drift, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(m.Features), Reservoir: 512, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewTCPServer(Config{Model: m, Drift: drift, Audit: led})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	const conns = 2
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < conns; c++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(tcpHello)); err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			replies := make([]byte, tcpBlockFrames*tcpReplySize)
			<-start
			for i := 0; i < n; i++ {
				if _, err := conn.Write(blocks[(c*len(blocks)/conns+i)%len(blocks)]); err != nil {
					b.Error(err)
					return
				}
				if _, err := io.ReadFull(conn, replies); err != nil {
					b.Error(err)
					return
				}
			}
		}((b.N + c) / conns)
	}
	b.ResetTimer()
	close(start)
	wg.Wait()
	b.StopTimer()
	if got := srv.Scored(); got != int64(b.N)*tcpBlockFrames {
		b.Fatalf("scored %d frames, sent %d", got, b.N*tcpBlockFrames)
	}
	b.ReportMetric(float64(b.N)*tcpBlockFrames/b.Elapsed().Seconds(), "frames/s")
}
