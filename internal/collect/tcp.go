package collect

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
)

// The TCP batch path serves backend replay: risk systems that re-score
// large session archives (after a retrain, for backfills) keep a single
// connection open and stream framed payloads instead of paying per-HTTP
// overheads.
//
// Protocol (all integers big-endian):
//
//	client hello:  "bPT1" (4 bytes)
//	request frame: uint32 length | payload (fingerprint wire format)
//	reply frame:   sessionID[16] | uint16 cluster | uint16 riskFactor | uint8 flags
//
// flags bit 0 = flagged, bit 1 = matched, bit 7 = error (cluster and
// riskFactor are zero and the payload was rejected).

const (
	tcpHello      = "bPT1"
	tcpReplySize  = fingerprint.SessionIDSize + 2 + 2 + 1
	tcpFlagged    = 1 << 0
	tcpMatched    = 1 << 1
	tcpErrorFlag  = 1 << 7
	tcpMaxFrame   = fingerprint.MaxPayloadSize
	tcpIdleExpiry = 30 * time.Second
)

// TCPServer is the framed batch-scoring listener.
type TCPServer struct {
	*ingest
	idle   time.Duration
	tracer *obs.Tracer

	// hist records per-frame handling latency of scored frames; an
	// HTTP server with this listener attached (Server.AttachTCP)
	// exports it as the endpoint="tcp" histogram series.
	hist obs.Hist

	// batchHist records coalesced batch sizes on the histogram's
	// microsecond scale: a batch of n frames is recorded as n µs, so
	// the power-of-two bucket bounds read directly as frame counts and
	// the _sum is the total number of coalesced frames.
	batchHist obs.Hist

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// scored, flagged, badConn, and badFrames are bumped from
	// concurrent connection goroutines; they must be atomic. The frame
	// counters are added to once per batch (coalescer.serve).
	scored    atomic.Int64
	flagged   atomic.Int64
	badConn   atomic.Int64
	badFrames atomic.Int64
}

// NewTCPServer builds the batch listener from the same config as the
// HTTP service. Pass the HTTP server's Tracer in cfg.Tracer to
// interleave TCP frames into the same /debug/traces ring, then
// Server.AttachTCP the listener so both transports score through one
// ingest core (a standalone listener keeps the one built from cfg).
func NewTCPServer(cfg Config) (*TCPServer, error) {
	in, err := newIngest(cfg)
	if err != nil {
		return nil, err
	}
	return &TCPServer{
		ingest: in,
		idle:   tcpIdleExpiry,
		tracer: tracerFor(cfg),
		conns:  map[net.Conn]struct{}{},
	}, nil
}

// Serve accepts connections until the listener closes (via Close).
func (s *TCPServer) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close raced ahead of Serve: treat as a clean shutdown.
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("collect: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting, closes live connections, and waits for handler
// goroutines to drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

func (s *TCPServer) handleConn(conn net.Conn) {
	defer s.dropConn(conn)
	// The read buffer must hold at least one full frame plus its length
	// prefix so serveBatch can Peek a whole frame; the write buffer
	// holds a full batch of replies, so a batch flushes in one syscall.
	br := bufio.NewReaderSize(conn, tcpReadBufSize)
	bw := bufio.NewWriterSize(conn, tcpMaxBatch*tcpReplySize)

	conn.SetReadDeadline(time.Now().Add(s.idle))
	hello := make([]byte, len(tcpHello))
	if _, err := io.ReadFull(br, hello); err != nil || string(hello) != tcpHello {
		s.badConn.Add(1)
		return
	}

	c := &coalescer{s: s, conn: conn, br: br, bw: bw, buf: s.newScoreBuf()}
	for c.serveBatch() {
	}
}

// BatchDecision is one TCP reply, decoded.
type BatchDecision struct {
	SessionID  [fingerprint.SessionIDSize]byte
	Cluster    int
	RiskFactor int
	Flagged    bool
	Matched    bool
	Err        bool
}

// TCPClient streams payload batches over one connection.
type TCPClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// ReadTimeout and WriteTimeout bound each SubmitBatch's network
	// operations (0 = the 30-second fleet default). A stalled replica
	// then surfaces as a FailDown ClientError instead of a goroutine
	// pinned forever mid-read.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// DialTCP connects and performs the hello handshake.
func DialTCP(addr string, timeout time.Duration) (*TCPClient, error) {
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, &ClientError{Kind: FailDown, Op: "dial", Err: err}
	}
	return newTCPClient(conn), nil
}

// newTCPClient wraps a connection and buffers the hello, which leaves
// with the first batch. The writer holds tcpReadBufSize bytes, as the
// listener's reader does, so a batch that fits the listener's read
// buffer leaves in one write and can be coalesced as one batch.
func newTCPClient(conn net.Conn) *TCPClient {
	c := &TCPClient{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriterSize(conn, tcpReadBufSize),
	}
	// A fresh writer with room for the hello cannot fail.
	_, _ = c.bw.WriteString(tcpHello)
	return c
}

// deadlines arms the per-batch read/write deadlines.
func (c *TCPClient) deadlines() (read, write time.Duration) {
	read, write = c.ReadTimeout, c.WriteTimeout
	if read <= 0 {
		read = 30 * time.Second
	}
	if write <= 0 {
		write = 30 * time.Second
	}
	return read, write
}

// Close terminates the connection.
func (c *TCPClient) Close() error { return c.conn.Close() }

// SubmitBatch pipelines the payloads — in one write when their frames
// fit tcpReadBufSize — and reads all replies. It writes at most
// tcpMaxBatch frames before it reads their replies, so the replies it
// has not read, at most one full listener batch of them, never outgrow
// what the connection buffers: a listener blocked on flushing them would
// stop reading the frames still being written. Payloads that fail to
// encode locally are reported as Err entries without being sent.
func (c *TCPClient) SubmitBatch(payloads []*fingerprint.Payload) ([]BatchDecision, error) {
	readTO, writeTO := c.deadlines()
	out := make([]BatchDecision, len(payloads))
	sent := make([]int, 0, min(len(payloads), tcpMaxBatch)) // indices on the wire, replies unread
	var lenBuf [4]byte
	c.conn.SetWriteDeadline(time.Now().Add(writeTO))
	for i, p := range payloads {
		enc, err := p.MarshalBinary()
		if err != nil {
			out[i] = BatchDecision{SessionID: p.SessionID, Err: true}
			continue
		}
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(enc)))
		if _, err := c.bw.Write(lenBuf[:]); err != nil {
			return nil, &ClientError{Kind: FailDown, Op: "write frame", Err: err}
		}
		if _, err := c.bw.Write(enc); err != nil {
			return nil, &ClientError{Kind: FailDown, Op: "write frame", Err: err}
		}
		if sent = append(sent, i); len(sent) == tcpMaxBatch {
			if err := c.readReplies(out, sent, readTO); err != nil {
				return nil, err
			}
			sent = sent[:0]
			c.conn.SetWriteDeadline(time.Now().Add(writeTO))
		}
	}
	if err := c.readReplies(out, sent, readTO); err != nil {
		return nil, err
	}
	return out, nil
}

// readReplies flushes the frames written so far and reads the reply of
// each, out[i] for every i in sent, in order.
func (c *TCPClient) readReplies(out []BatchDecision, sent []int, readTO time.Duration) error {
	if err := c.bw.Flush(); err != nil {
		return &ClientError{Kind: FailDown, Op: "flush", Err: err}
	}
	var reply [tcpReplySize]byte
	for _, i := range sent {
		// Only a read that can block needs its deadline armed: replies
		// arrive many to a segment, so most are already buffered.
		if c.br.Buffered() < tcpReplySize {
			c.conn.SetReadDeadline(time.Now().Add(readTO))
		}
		if _, err := io.ReadFull(c.br, reply[:]); err != nil {
			return &ClientError{Kind: FailDown, Op: fmt.Sprintf("read reply %d", i), Err: err}
		}
		d := BatchDecision{}
		copy(d.SessionID[:], reply[:fingerprint.SessionIDSize])
		d.Cluster = int(binary.BigEndian.Uint16(reply[fingerprint.SessionIDSize:]))
		d.RiskFactor = int(binary.BigEndian.Uint16(reply[fingerprint.SessionIDSize+2:]))
		flags := reply[tcpReplySize-1]
		d.Flagged = flags&tcpFlagged != 0
		d.Matched = flags&tcpMatched != 0
		d.Err = flags&tcpErrorFlag != 0
		out[i] = d
	}
	return nil
}
