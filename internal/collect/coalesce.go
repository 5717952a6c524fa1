package collect

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"time"

	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
)

// The coalescer is the edge-batching layer of the framed TCP protocol. A
// pipelining client (one that writes many frames before reading any
// reply) lands all of its frames in the connection's read buffer at
// once; the coalescer drains every frame already buffered — up to
// tcpMaxBatch — runs them through the ingest core in frame order on the
// connection's one scoreBuf, and writes all replies with one flush. What
// a batch amortises is the trace, the clock reads and the write
// syscall; every frame still takes the same path as an HTTP request.
//
// The latency contract for interactive clients is preserved by
// construction: read-ahead only consumes frames whose bytes are already
// buffered and never blocks mid-batch, so a client that sends one frame
// and waits for the reply always sees a batch of one, flushed
// immediately.

const (
	// tcpMaxBatch caps a coalesced batch. 256 frames × ≤1 KiB is at most
	// 256 KiB of payload per flush — deep enough to amortise the
	// syscall, shallow enough that reply latency for the first frame
	// stays bounded.
	tcpMaxBatch = 256

	// tcpReadBufSize sizes the per-connection read buffer. It must hold
	// at least one maximum frame plus its length prefix so Peek can see
	// a whole frame without the reader refusing (bufio.ErrBufferFull);
	// 64 KiB also lets read-ahead see many small pipelined frames per
	// syscall.
	tcpReadBufSize = 64 << 10
)

// coalescer owns one connection's framing state and its reusable
// buffers, so a steady-state batch allocates only what decoding and the
// audit retention boundary demand.
type coalescer struct {
	s    *TCPServer
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// frameBuf holds the raw bytes of every frame in the current batch
	// back-to-back; ends[i] is the exclusive end offset of frame i.
	// Offsets, not subslices: frameBuf grows by copy and would
	// invalidate earlier views.
	frameBuf []byte
	ends     []int

	// buf holds the scratch and the payload every frame of the
	// connection is decoded into; reply is the frame's encoded answer.
	// lenBuf and reply are fields because the reader and the writer
	// they are handed to would move a local to the heap, once per frame.
	buf    *scoreBuf
	lenBuf [4]byte
	reply  [tcpReplySize]byte
}

// frame returns the byte view of frame i in the current batch.
func (c *coalescer) frame(i int) []byte {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.frameBuf[start:c.ends[i]]
}

func (c *coalescer) reset() {
	c.frameBuf = c.frameBuf[:0]
	c.ends = c.ends[:0]
}

// appendFrame reads n frame bytes from the connection into frameBuf.
func (c *coalescer) appendFrame(n int) error {
	off := len(c.frameBuf)
	need := off + n
	if cap(c.frameBuf) < need {
		grown := make([]byte, off, need+tcpMaxFrame)
		copy(grown, c.frameBuf)
		c.frameBuf = grown
	}
	c.frameBuf = c.frameBuf[:need]
	if _, err := io.ReadFull(c.br, c.frameBuf[off:need]); err != nil {
		return err
	}
	c.ends = append(c.ends, need)
	return nil
}

// serveBatch reads one batch (blocking for the first frame, draining
// buffered pipelined frames after it), scores it, and writes the
// replies. It reports whether the connection should keep serving.
func (c *coalescer) serveBatch() bool {
	c.conn.SetReadDeadline(time.Now().Add(c.s.idle))
	if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
		return false // clean EOF or idle timeout
	}
	n := binary.BigEndian.Uint32(c.lenBuf[:])
	if n == 0 || n > tcpMaxFrame {
		return false // protocol violation: drop the connection
	}
	c.reset()
	if err := c.appendFrame(int(n)); err != nil {
		return false
	}
	keep := c.readAhead()
	c.s.batchHist.Record(time.Duration(len(c.ends)) * time.Microsecond)
	return c.serve() && keep
}

// readAhead drains pipelined frames already sitting in the read buffer,
// up to tcpMaxBatch. It never blocks: a frame is consumed only when its
// length prefix and full body are already buffered. It reports false
// when the stream hits a protocol violation — the batch gathered so far
// is still served, then the connection drops.
func (c *coalescer) readAhead() bool {
	for len(c.ends) < tcpMaxBatch {
		if c.br.Buffered() < 4 {
			return true
		}
		prefix, err := c.br.Peek(4)
		if err != nil {
			return true
		}
		n := binary.BigEndian.Uint32(prefix)
		if n == 0 || n > tcpMaxFrame {
			return false // violation mid-batch: serve, then drop
		}
		if c.br.Buffered() < 4+int(n) {
			return true
		}
		c.br.Discard(4)
		if err := c.appendFrame(int(n)); err != nil {
			return true
		}
	}
	return true
}

// serve answers the gathered batch: one trace, every frame through
// serveFrame in frame order, one flush. Per-frame latency under
// coalescing is the batch's wall time — that is what each client frame
// actually waited — so the clock is read once per batch, not per frame,
// and the listener's counters, which every connection shares, are
// added to once per batch, before the replies leave. The batch's
// latency is the duration Finish measured: its one clock read.
func (c *coalescer) serve() bool {
	tr := c.s.tracer.Open(EndpointTCP, c.buf.shard)
	status, scored, flagged := "ok", 0, 0
	for i := range c.ends {
		st := c.serveFrame(tr, c.frame(i))
		switch {
		case st == "ok":
			scored++
			if c.reply[tcpReplySize-1]&tcpFlagged != 0 {
				flagged++
			}
		case len(c.ends) == 1:
			status = st
		default:
			status = "partial"
		}
		// bufio errors are sticky: Flush below reports a failed write.
		_, _ = c.bw.Write(c.reply[:])
	}
	c.s.scored.Add(int64(scored))
	c.s.flagged.Add(int64(flagged))
	c.s.badFrames.Add(int64(len(c.ends) - scored))
	c.s.hist.RecordN(c.s.tracer.Finish(tr, status), scored)
	return c.bw.Flush() == nil
}

// serveFrame is the TCP transport's share of one frame: decode, hand
// the payload to the ingest core, and encode the 21-byte answer into
// c.reply. It reports the trace status ("ok" or the reject reason). The
// payload's user agent is a view of data, which the batch holds until it
// is answered.
func (c *coalescer) serveFrame(tr *obs.Trace, data []byte) (status string) {
	p, reply := &c.buf.payload, &c.reply
	*reply = [tcpReplySize]byte{}
	reason, err := decodeBinaryPayload(p, data)
	var res core.Result
	if err == nil {
		copy(reply[:fingerprint.SessionIDSize], p.SessionID[:])
		res, _, reason, err = c.s.score(tr, c.buf, p, untimed)
	}
	if err != nil {
		reply[tcpReplySize-1] = tcpErrorFlag
		return reasonNames[reason]
	}
	binary.BigEndian.PutUint16(reply[fingerprint.SessionIDSize:], uint16(res.Cluster))
	binary.BigEndian.PutUint16(reply[fingerprint.SessionIDSize+2:], uint16(res.RiskFactor))
	var flags byte
	if res.Flagged() {
		flags |= tcpFlagged
	}
	if res.Matched {
		flags |= tcpMatched
	}
	reply[tcpReplySize-1] = flags
	return "ok"
}
