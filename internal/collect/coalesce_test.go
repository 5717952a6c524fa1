package collect

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// pipeServe runs handleConn over an in-memory pipe, which makes batch
// boundaries deterministic: net.Pipe delivers each client Write as one
// unit, so every byte written in a single call is buffered before the
// coalescer's read-ahead runs.
func pipeServe(s *TCPServer) (net.Conn, func()) {
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleConn(server)
	}()
	cleanup := func() {
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
	return client, cleanup
}

// frameBytes encodes payloads as a hello-prefixed pipelined frame burst.
func frameBytes(t *testing.T, withHello bool, payloads ...*fingerprint.Payload) []byte {
	t.Helper()
	var out []byte
	if withHello {
		out = append(out, tcpHello...)
	}
	var lenBuf [4]byte
	for _, p := range payloads {
		enc, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(enc)))
		out = append(out, lenBuf[:]...)
		out = append(out, enc...)
	}
	return out
}

func readReplies(t *testing.T, conn net.Conn, n int) [][tcpReplySize]byte {
	t.Helper()
	out := make([][tcpReplySize]byte, n)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(conn, out[i][:]); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	return out
}

// TestTCPCoalescedParity is the tentpole's bit-identity contract: the
// same stream scored through pipelined coalesced batches and through
// one-frame-at-a-time submissions must produce identical decisions.
func TestTCPCoalescedParity(t *testing.T) {
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

	const n = 600
	stream := make([]*fingerprint.Payload, n)
	for i := range stream {
		switch i % 4 {
		case 0, 1:
			rel := ua.Release{Vendor: ua.Chrome, Version: 110 + i%4}
			stream[i] = payloadFor(d, rel, rel)
		case 2: // fraud shape: Firefox engine claiming Chrome
			stream[i] = payloadFor(d, ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Release{Vendor: ua.Chrome, Version: 112})
		default: // wrong feature width: error-flag reply
			stream[i] = &fingerprint.Payload{UserAgent: "x", Values: []int64{1, 2, 3}}
		}
	}

	batched, err := DialTCP(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	got, err := batched.SubmitBatch(stream)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := DialTCP(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for i, p := range stream {
		want, err := serial.SubmitBatch([]*fingerprint.Payload{p})
		if err != nil {
			t.Fatalf("serial frame %d: %v", i, err)
		}
		if got[i] != want[0] {
			t.Fatalf("frame %d: batched %+v != serial %+v", i, got[i], want[0])
		}
	}
	if srv.BatchHist().Count() == 0 {
		t.Fatal("batch-size histogram never recorded")
	}
}

// TestTCPCoalescerBatchOfOne covers the empty-read-ahead flush boundary:
// an interactive client sending one frame and waiting must get its reply
// immediately (immediate flush) and be recorded as a batch of one.
func TestTCPCoalescerBatchOfOne(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	conn, cleanup := pipeServe(srv)
	defer cleanup()

	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, rel, rel)
	if _, err := conn.Write(frameBytes(t, true, p)); err != nil {
		t.Fatal(err)
	}
	replies := readReplies(t, conn, 1)
	if replies[0][tcpReplySize-1]&tcpErrorFlag != 0 {
		t.Fatalf("error reply: %v", replies[0])
	}
	h := srv.BatchHist()
	if h.Count() != 1 {
		t.Fatalf("batch count %d, want 1", h.Count())
	}
	if h.Max() != time.Microsecond {
		t.Fatalf("batch-of-one recorded as %v, want 1µs (= 1 frame)", h.Max())
	}
}

// TestTCPCoalescerExactlyMaxBatch covers the tcpMaxBatch flush boundary:
// a burst of exactly tcpMaxBatch frames coalesces into one batch, and a
// burst one frame longer splits at the cap without losing the extra
// frame.
func TestTCPCoalescerExactlyMaxBatch(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	conn, cleanup := pipeServe(srv)
	defer cleanup()

	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	burst := make([]*fingerprint.Payload, tcpMaxBatch+1)
	for i := range burst {
		burst[i] = payloadFor(d, rel, rel)
	}
	over := frameBytes(t, false, burst...)
	if len(over) > tcpReadBufSize {
		t.Fatalf("burst of %d bytes does not fit one %d-byte read: batch boundaries would not be deterministic", len(over), tcpReadBufSize)
	}

	// First burst: exactly tcpMaxBatch frames in one write → one batch.
	if _, err := conn.Write(frameBytes(t, true, burst[:tcpMaxBatch]...)); err != nil {
		t.Fatal(err)
	}
	readReplies(t, conn, tcpMaxBatch)
	h := srv.BatchHist()
	if h.Count() != 1 || h.Max() != tcpMaxBatch*time.Microsecond {
		t.Fatalf("after %d-frame burst: %d batches, max %v (want 1 batch of %d)", tcpMaxBatch, h.Count(), h.Max(), tcpMaxBatch)
	}

	// Second burst: one frame over the cap → a full batch, then a batch
	// of one; every frame replied.
	if _, err := conn.Write(over); err != nil {
		t.Fatal(err)
	}
	readReplies(t, conn, tcpMaxBatch+1)
	if h.Count() != 3 {
		t.Fatalf("after %d-frame burst: %d batches recorded, want 3", tcpMaxBatch+1, h.Count())
	}
	if h.Max() != tcpMaxBatch*time.Microsecond {
		t.Fatalf("a batch exceeded tcpMaxBatch: max %v", h.Max())
	}
	if got := srv.Scored(); got != 2*tcpMaxBatch+1 {
		t.Fatalf("scored %d frames, want %d", got, 2*tcpMaxBatch+1)
	}
}

// TestTCPCoalescerOversizedFrameMidBatch covers the violation flush
// boundary: a protocol-violating length prefix after valid pipelined
// frames must not sink them — the gathered batch is served, every valid
// frame gets its reply, then the connection drops.
func TestTCPCoalescerOversizedFrameMidBatch(t *testing.T) {
	m, d := testModel(t)
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	conn, cleanup := pipeServe(srv)
	defer cleanup()

	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	valid := []*fingerprint.Payload{payloadFor(d, rel, rel), payloadFor(d, rel, rel), payloadFor(d, rel, rel)}
	burst := frameBytes(t, true, valid...)
	var bad [4]byte
	binary.BigEndian.PutUint32(bad[:], 1<<20) // over tcpMaxFrame
	burst = append(burst, bad[:]...)

	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	replies := readReplies(t, conn, 3)
	for i, r := range replies {
		if r[tcpReplySize-1]&tcpErrorFlag != 0 {
			t.Fatalf("valid frame %d got error reply", i)
		}
	}
	// The violating prefix drops the connection after the batch flushes.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server kept talking after oversized frame mid-batch")
	}
	if got := srv.Scored(); got != 3 {
		t.Fatalf("scored %d frames, want 3", got)
	}
}

// TestTCPServerFragmentedClientWrites drives the server with a frame
// split mid-length-prefix and mid-payload across delayed writes — the
// reassembly path a congested client exercises.
func TestTCPServerFragmentedClientWrites(t *testing.T) {
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

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	raw := frameBytes(t, true, payloadFor(d, rel, rel))
	// Hello, then 2 bytes of the length prefix, then the rest in
	// 7-byte fragments with pauses between writes.
	splits := []int{4, 6}
	for at := 13; at < len(raw); at += 7 {
		splits = append(splits, at)
	}
	prev := 0
	for _, at := range append(splits, len(raw)) {
		if _, err := conn.Write(raw[prev:at]); err != nil {
			t.Fatal(err)
		}
		prev = at
		time.Sleep(2 * time.Millisecond)
	}
	var reply [tcpReplySize]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatal(err)
	}
	if reply[tcpReplySize-1]&tcpErrorFlag != 0 {
		t.Fatalf("fragmented frame got error reply: %v", reply)
	}
}

// TestTCPSubmitBatchFragmentedReplies exercises the client against a
// fake server that fragments every reply mid-frame — SubmitBatch must
// reassemble replies byte by byte.
func TestTCPSubmitBatchFragmentedReplies(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 3
	serverErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		defer conn.Close()
		hello := make([]byte, len(tcpHello))
		if _, err := io.ReadFull(conn, hello); err != nil {
			serverErr <- err
			return
		}
		var lenBuf [4]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
				serverErr <- err
				return
			}
			frame := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
			if _, err := io.ReadFull(conn, frame); err != nil {
				serverErr <- err
				return
			}
		}
		// Reply with synthetic decisions, dribbled out one byte at a
		// time so every reply splits mid-frame on the client side.
		for i := 0; i < n; i++ {
			var reply [tcpReplySize]byte
			reply[0] = byte(i + 1) // distinguishable session prefix
			binary.BigEndian.PutUint16(reply[fingerprint.SessionIDSize:], uint16(i))
			reply[tcpReplySize-1] = tcpMatched
			for _, b := range reply {
				if _, err := conn.Write([]byte{b}); err != nil {
					serverErr <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
		serverErr <- nil
	}()

	client, err := DialTCP(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	batch := make([]*fingerprint.Payload, n)
	for i := range batch {
		batch[i] = &fingerprint.Payload{UserAgent: "ua", Values: []int64{1, 2, 3}}
	}
	decs, err := client.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, dec := range decs {
		if dec.SessionID[0] != byte(i+1) || dec.Cluster != i || !dec.Matched || dec.Err {
			t.Fatalf("decision %d reassembled wrong: %+v", i, dec)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

// TestTCPSubmitBatchServerStallsMidBatch: the client arms its read
// deadline only before a read that can block. A server that sends its
// replies in bursts, each pause shorter than ReadTimeout but the batch
// longer, must not time the client out while it is still answering; once
// it goes quiet — between two replies, or inside one — the client must
// surface FailDown within ReadTimeout of the last byte, however many
// replies were buffered when it did.
func TestTCPSubmitBatchServerStallsMidBatch(t *testing.T) {
	const n, bursts, perBurst = 8, 3, 2
	const readTimeout, pause = 400 * time.Millisecond, 250 * time.Millisecond
	for _, tail := range []int{0, tcpReplySize / 2} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			for i := 0; i < bursts; i++ {
				if i > 0 {
					time.Sleep(pause)
				}
				size := perBurst * tcpReplySize
				if i == bursts-1 {
					size += tail
				}
				conn.Write(make([]byte, size))
			}
			select { // silence; the deferred Close bounds a client that never times out
			case <-done:
			case <-time.After(10 * time.Second):
			}
		}()
		client, err := DialTCP(l.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		client.ReadTimeout = readTimeout
		batch := make([]*fingerprint.Payload, n)
		for i := range batch {
			batch[i] = &fingerprint.Payload{UserAgent: "ua", Values: []int64{1, 2, 3}}
		}
		start := time.Now()
		_, err = client.SubmitBatch(batch)
		took := time.Since(start)
		if !IsDown(err) || !strings.Contains(err.Error(), fmt.Sprintf("read reply %d:", bursts*perBurst)) {
			t.Fatalf("tail %d: %v after %v, want FailDown at reply %d", tail, err, took, bursts*perBurst)
		}
		if took < (bursts-1)*pause+readTimeout || took > 5*time.Second {
			t.Fatalf("tail %d: gave up after %v, want ReadTimeout after the last burst", tail, took)
		}
		close(done)
		client.Close()
		l.Close()
	}
}

// TestTCPCoalescerCountsFlaggedAndBadFrames pins the new listener
// counters the /metrics exposition exports.
func TestTCPCoalescerCountsFlaggedAndBadFrames(t *testing.T) {
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
	lying := payloadFor(d, ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Release{Vendor: ua.Chrome, Version: 112})
	bad := &fingerprint.Payload{UserAgent: "x", Values: []int64{1}}
	decs, err := client.SubmitBatch([]*fingerprint.Payload{lying, bad, lying})
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Flagged || !decs[1].Err || !decs[2].Flagged {
		t.Fatalf("unexpected decisions: %+v", decs)
	}
	if got := srv.Flagged(); got != 2 {
		t.Fatalf("flagged counter %d, want 2", got)
	}
	if got := srv.BadFrames(); got != 1 {
		t.Fatalf("bad-frames counter %d, want 1", got)
	}
}
