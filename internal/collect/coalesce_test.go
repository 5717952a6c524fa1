package collect

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// pipeServe runs handleConn over an in-memory pipe, which makes batch
// boundaries deterministic: net.Pipe delivers each client Write as one
// unit, so every byte written in a single call is buffered before the
// coalescer takes a batch's further frames.
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
	if srv.batchHist.Count() == 0 {
		t.Fatal("batch-size histogram never recorded")
	}
}

// TestTCPCoalescerBatchOfOne covers the lone-frame flush boundary:
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
	h := &srv.batchHist
	if h.Count() != 1 {
		t.Fatalf("batch count %d, want 1", h.Count())
	}
	if h.Summary().Max != time.Microsecond {
		t.Fatalf("batch-of-one recorded as %v, want 1µs (= 1 frame)", h.Summary().Max)
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
	h := &srv.batchHist
	if h.Count() != 1 || h.Summary().Max != tcpMaxBatch*time.Microsecond {
		t.Fatalf("after %d-frame burst: %d batches, max %v (want 1 batch of %d)", tcpMaxBatch, h.Count(), h.Summary().Max, tcpMaxBatch)
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
	if h.Summary().Max != tcpMaxBatch*time.Microsecond {
		t.Fatalf("a batch exceeded tcpMaxBatch: max %v", h.Summary().Max)
	}
	if got := srv.scored.Load(); got != 2*tcpMaxBatch+1 {
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
	if got := srv.scored.Load(); got != 3 {
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
	if got := srv.flagged.Load(); got != 2 {
		t.Fatalf("flagged counter %d, want 2", got)
	}
	if got := srv.badFrames.Load(); got != 1 {
		t.Fatalf("bad-frames counter %d, want 1", got)
	}
}

// TestTCPBlockSettleDeterminism: a connection's frames are settled as
// one block per batch, and that must not change what a fixed-seed stream
// leaves behind. The stream — honest sessions, lying ones and frames of
// the wrong width — follows a primer of benign frames on another
// connection, so the ledger's benign count does not start at zero. Sent
// as 64-frame blocks and frame at a time, it must leave the same ledger
// records (time and trace ID masked) and the same drift window, and both
// must be what one sampling decision and one drift observation per
// verdict, in stream order, give.
func TestTCPBlockSettleDeterminism(t *testing.T) {
	m, d := testModel(t)
	const sampleBenign, blocks = 3, 4
	payload := func(i int) *fingerprint.Payload {
		var p *fingerprint.Payload
		switch i % 5 {
		case 0, 1, 2:
			rel := ua.Release{Vendor: ua.Chrome, Version: 108 + i%7}
			p = payloadFor(d, rel, rel)
		case 3: // a Firefox engine claiming Chrome: flagged
			p = payloadFor(d, ua.Release{Vendor: ua.Firefox, Version: 110}, ua.Release{Vendor: ua.Chrome, Version: 112})
		default: // the wrong width: rejected, neither sampled nor observed
			p = &fingerprint.Payload{UserAgent: "x", Values: []int64{1, 2, 3}}
		}
		binary.BigEndian.PutUint32(p.SessionID[:], uint32(i))
		return p
	}
	primer := make([]*fingerprint.Payload, 7)
	for i := range primer {
		rel := ua.Release{Vendor: ua.Chrome, Version: 112}
		primer[i] = payloadFor(d, rel, rel)
		primer[i].SessionID[15] = byte(i)
	}
	stream := make([]*fingerprint.Payload, blocks*tcpBlockFrames)
	for i := range stream {
		stream[i] = payload(i)
	}
	hash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	newDrift := func() *obs.DriftMonitor {
		mon, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(m.Features), Reservoir: 32, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.SetBaseline(m.Baseline); err != nil {
			t.Fatal(err)
		}
		return mon
	}
	type outcome struct {
		records []audit.Record
		seen    uint64
		window  any
	}
	window := func(mon *obs.DriftMonitor) any {
		psi, err := mon.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		return psi
	}

	// One sampling decision and one drift observation per verdict.
	var want outcome
	mon, benign := newDrift(), 0
	for _, p := range append(slices.Clip(primer), stream...) {
		vec := fingerprint.ValuesToVector(p.Values)
		res, err := m.ScoreString(vec, p.UserAgent)
		if err != nil {
			continue
		}
		mon.Observe(vec)
		if !res.Flagged() {
			if benign++; benign%sampleBenign != 0 {
				continue
			}
		}
		want.records = append(want.records, audit.Record{
			Seq: uint64(len(want.records)), ModelHash: hash, SessionID: hexSessionID(&p.SessionID),
			UserAgent: p.UserAgent, Endpoint: EndpointTCP, Vector: vec, Verdict: core.VerdictOf(res),
		})
	}
	want.seen, want.window = mon.Seen(), window(mon)

	run := func(perWrite int) outcome {
		dir := t.TempDir()
		led, err := audit.Open(audit.Config{Dir: dir, SampleBenign: sampleBenign})
		if err != nil {
			t.Fatal(err)
		}
		mon := newDrift()
		srv, err := NewTCPServer(Config{Model: m, Drift: mon, Audit: led})
		if err != nil {
			t.Fatal(err)
		}
		send := func(frames []*fingerprint.Payload, perWrite int) {
			conn, cleanup := pipeServe(srv)
			defer cleanup()
			if _, err := conn.Write([]byte(tcpHello)); err != nil {
				t.Fatal(err)
			}
			for len(frames) > 0 {
				block := frames[:min(perWrite, len(frames))]
				frames = frames[len(block):]
				if _, err := conn.Write(frameBytes(t, false, block...)); err != nil {
					t.Fatal(err)
				}
				readReplies(t, conn, len(block))
			}
		}
		send(primer, 1)
		send(stream, perWrite)
		if got, want := srv.batchHist.Count(), uint64(len(primer)+(len(stream)+perWrite-1)/perWrite); got != want {
			t.Fatalf("%d frames a write: %d batches, want %d", perWrite, got, want)
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		var got outcome
		if _, err := audit.Scan(dir, "", func(rec audit.Record) error {
			rec.TimeNs, rec.TraceID = 0, ""
			got.records = append(got.records, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got.seen, got.window = mon.Seen(), window(mon)
		return got
	}
	for _, perWrite := range []int{tcpBlockFrames, 1} {
		got := run(perWrite)
		if len(got.records) != len(want.records) {
			t.Fatalf("%d frames a write: %d ledger records, want %d", perWrite, len(got.records), len(want.records))
		}
		for i := range want.records {
			if !reflect.DeepEqual(got.records[i], want.records[i]) {
				t.Fatalf("%d frames a write: record %d is %+v, want %+v", perWrite, i, got.records[i], want.records[i])
			}
		}
		if got.seen != want.seen || !reflect.DeepEqual(got.window, want.window) {
			t.Fatalf("%d frames a write: drift saw %d with window %v, want %d with %v", perWrite, got.seen, got.window, want.seen, want.window)
		}
	}
}

// TestTCPPooledStateIsolation is TestCollectPooledStateIsolation's twin
// for the framed transport, whose frames the verdict memo answers by
// their bytes: four batches on one connection, each carrying five
// classes with long user agents of different lengths in a different
// order, so every batch lands other bytes in the connection's read
// buffer, and the frame views of each batch are poisoned after it. A class is first
// sighted in batch one, stored in the memo in batch two and answered
// from it after that. Every verdict is audited, and every record must
// hold the user agent and the vector its own frame carried.
func TestTCPPooledStateIsolation(t *testing.T) {
	m, d := testModel(t)
	dir := t.TempDir()
	led, err := audit.Open(audit.Config{Dir: dir, SampleBenign: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	tcp, err := NewTCPServer(Config{Model: m, Audit: led})
	if err != nil {
		t.Fatal(err)
	}
	releases := []ua.Release{
		{Vendor: ua.Chrome, Version: 112}, {Vendor: ua.Firefox, Version: 110}, {Vendor: ua.Chrome, Version: 95},
		{Vendor: ua.Edge, Version: 105}, {Vendor: ua.Firefox, Version: 78},
	}
	const batches = 4
	type sent struct {
		ua  string
		vec []float64
	}
	want := map[string]sent{}
	wire := make([][]byte, batches)
	for b := range wire {
		var batch []*fingerprint.Payload
		for i := range releases {
			k := (i + b) % len(releases)
			// Claim the next release, so some classes are flagged.
			p := payloadFor(d, releases[k], releases[(k+k%2)%len(releases)])
			p.UserAgent += strings.Repeat(fmt.Sprintf(" class-%d", k), 10+15*k)
			p.SessionID[0], p.SessionID[1] = byte(b), byte(k)
			want[hexSessionID(&p.SessionID)] = sent{p.UserAgent, fingerprint.ValuesToVector(p.Values)}
			batch = append(batch, p)
		}
		wire[b] = frameBytes(t, false, batch...)
	}

	server, client := net.Pipe()
	defer client.Close()
	c := &coalescer{s: tcp, conn: server, buf: tcp.newScoreBuf(),
		br: bufio.NewReaderSize(server, tcpReadBufSize), bw: bufio.NewWriterSize(server, tcpMaxBatch*tcpReplySize)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		for c.serveBatch() {
			poison(c.batch)
		}
	}()
	for b := range wire {
		if _, err := client.Write(wire[b]); err != nil {
			t.Fatal(err)
		}
		for i, r := range readReplies(t, client, len(releases)) {
			if r[tcpReplySize-1]&tcpErrorFlag != 0 {
				t.Fatalf("batch %d, frame %d rejected", b, i)
			}
		}
	}
	client.Close()
	<-served

	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	records := 0
	stats, err := audit.Scan(dir, "", func(rec audit.Record) error {
		records++
		w, ok := want[rec.SessionID]
		if !ok || rec.UserAgent != w.ua || !slices.Equal(rec.Vector, w.vec) {
			t.Errorf("session %s recorded with user agent %q and vector %v; its frame carried %q and %v", rec.SessionID, rec.UserAgent, rec.Vector, w.ua, w.vec)
		}
		return nil
	})
	if err != nil || !stats.Clean() || records != len(want) {
		t.Fatalf("ledger scan: %+v, %v; %d records, want %d", stats, err, records, len(want))
	}
}

// streamConn is a net.Conn whose reads play back a fixed stream and then
// end in io.EOF, and whose writes are kept: a connection handleConn
// serves to its end with no socket and no goroutine. Only the methods
// below are called; the nil embedded Conn would panic on any other.
type streamConn struct {
	net.Conn
	r   *bytes.Reader
	out bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error)     { return c.out.Write(p) }
func (c *streamConn) Close() error                    { return nil }
func (c *streamConn) SetReadDeadline(time.Time) error { return nil }

// wantReply is the 21-byte answer to one accepted frame, derived without
// the listener: the allocating decoder, then ScoreString.
func wantReply(m *core.Model, frame []byte) [tcpReplySize]byte {
	var r [tcpReplySize]byte
	p, err := fingerprint.UnmarshalBinary(frame)
	if err != nil {
		r[tcpReplySize-1] = tcpErrorFlag
		return r
	}
	copy(r[:], p.SessionID[:])
	res, err := m.ScoreString(fingerprint.ValuesToVector(p.Values), p.UserAgent)
	if err != nil {
		r[tcpReplySize-1] = tcpErrorFlag
		return r
	}
	binary.BigEndian.PutUint16(r[fingerprint.SessionIDSize:], uint16(res.Cluster))
	binary.BigEndian.PutUint16(r[fingerprint.SessionIDSize+2:], uint16(res.RiskFactor))
	if res.Flagged() {
		r[tcpReplySize-1] |= tcpFlagged
	}
	if res.Matched {
		r[tcpReplySize-1] |= tcpMatched
	}
	return r
}

// FuzzTCPStream feeds arbitrary bytes after the hello to one TCPServer
// connection. The connection must end without panicking or hanging, and
// answer every length-prefixed frame it accepted — every one before the
// first zero or over-size length or the first frame cut short — with
// exactly one reply, in order, the one the frame gets scored alone; the
// listener counts each of them as scored or bad. Seeds are the first
// eight frames of frameBlock blocks — the mutator's minimiser crawls
// over a whole 64-frame block — of repeated and distinct classes, one
// cut mid-frame, one with a bad length inside, one with frames that do
// not decode.
func FuzzTCPStream(f *testing.F) {
	m, d := testModel(f)
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	p := payloadFor(d, rel, rel)
	honest := p.UserAgent
	seed := func(payload func(f int) *fingerprint.Payload) []byte {
		block := frameBlock(f, payload)
		end := 0
		for i := 0; i < 8; i++ {
			end += 4 + int(binary.BigEndian.Uint32(block[end:]))
		}
		return block[:end]
	}
	same := seed(func(int) *fingerprint.Payload { return p })
	f.Add(same)
	f.Add(seed(func(i int) *fingerprint.Payload {
		q := *p
		q.UserAgent = strings.Replace(honest, "/112.0.0.0", fmt.Sprintf("/112.0.%d.0", i%3), 1)
		q.Values = q.Values[:len(q.Values)-i%2]
		return &q
	}))
	f.Add(same[:len(same)/2+3])
	bad := append([]byte(nil), same...)
	binary.BigEndian.PutUint32(bad[len(same)/2:], tcpMaxFrame+1)
	f.Add(bad)
	f.Add(seed(func(i int) *fingerprint.Payload {
		q := *p
		q.UserAgent = honest[:i%len(honest)]
		q.Values = append(q.Values[:len(q.Values):len(q.Values)], int64(i))
		return &q
	}))
	srv, err := NewTCPServer(Config{Model: m})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []byte
		for rest := data; len(rest) >= 4; {
			n := binary.BigEndian.Uint32(rest)
			if n == 0 || n > tcpMaxFrame || uint32(len(rest)-4) < n {
				break
			}
			r := wantReply(m, rest[4:4+n])
			want = append(want, r[:]...)
			rest = rest[4+n:]
		}
		scored, bad := srv.scored.Load(), srv.badFrames.Load()
		conn := &streamConn{r: bytes.NewReader(append([]byte(tcpHello), data...))}
		srv.handleConn(conn)
		if !bytes.Equal(conn.out.Bytes(), want) {
			t.Fatalf("replies %x, want %x", conn.out.Bytes(), want)
		}
		if got := srv.scored.Load() - scored + srv.badFrames.Load() - bad; got != int64(len(want)/tcpReplySize) {
			t.Fatalf("scored + bad moved by %d, %d frames accepted", got, len(want)/tcpReplySize)
		}
	})
}
