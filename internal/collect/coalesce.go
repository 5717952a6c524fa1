package collect

import (
	"bufio"
	"encoding/binary"
	"net"
	"time"

	"polygraph/internal/fingerprint"
)

// The coalescer is the edge-batching layer of the framed TCP protocol. A
// pipelining client (one that writes many frames before reading any
// reply) lands all of its frames in the connection's read buffer at
// once; the coalescer takes every whole frame already buffered — up to
// tcpMaxBatch — as a view of that buffer, scores them in frame order on
// the connection's one scoreBuf, settles them as one block, and writes
// all replies with one flush. What a batch amortises is the trace, the
// clock reads, the model load, the shared drift and ledger counts and
// the write syscall; every frame still takes the same path as an HTTP
// request, which is a block of one.
//
// The latency contract for interactive clients is preserved by
// construction: only the first frame of a batch is waited for, so a
// client that sends one frame and waits for the reply always sees a
// batch of one, flushed immediately.

const (
	// tcpMaxBatch caps a coalesced batch. 256 frames × ≤1 KiB is at most
	// 256 KiB of payload per flush — deep enough to amortise the
	// syscall, shallow enough that reply latency for the first frame
	// stays bounded.
	tcpMaxBatch = 256

	// tcpReadBufSize sizes the per-connection read buffer. It must hold
	// at least one maximum frame plus its length prefix so Peek can see
	// a whole frame without the reader refusing (bufio.ErrBufferFull);
	// 64 KiB also lets a batch see many small pipelined frames per
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

	// batch is the current batch's frames, length prefixes included: a
	// view of br's buffer from the Peek that finds them to the Discard
	// after their replies are flushed. Nothing reads from br in between,
	// so the view, and the payloads' user agents borrowed from it, hold.
	batch []byte

	// buf holds the scratch, the payload every frame of the connection
	// is decoded into and the batch's block; reply is a frame's encoded
	// answer, a field because the writer it is handed to would move a
	// local to the heap, once per frame.
	buf   *scoreBuf
	reply [tcpReplySize]byte
}

// serveBatch serves one batch: it waits until one whole frame is
// buffered, takes it and every further whole frame already buffered as
// c.batch, answers them, and only then consumes their bytes. It reports
// whether the connection should keep serving.
func (c *coalescer) serveBatch() bool {
	c.conn.SetReadDeadline(time.Now().Add(c.s.idle))
	prefix, err := c.br.Peek(4)
	if err != nil {
		return false // clean EOF or idle timeout
	}
	n := binary.BigEndian.Uint32(prefix)
	if n == 0 || n > tcpMaxFrame {
		return false // protocol violation: drop the connection
	}
	if _, err := c.br.Peek(4 + int(n)); err != nil {
		return false
	}
	buffered, _ := c.br.Peek(c.br.Buffered())
	end, frames, keep := 0, 0, true
	for frames < tcpMaxBatch && end+4 <= len(buffered) {
		n := binary.BigEndian.Uint32(buffered[end:])
		if n == 0 || n > tcpMaxFrame {
			keep = false // violation mid-batch: serve, then drop
			break
		}
		if end+4+int(n) > len(buffered) {
			break
		}
		end += 4 + int(n)
		frames++
	}
	c.batch = buffered[:end]
	c.s.batchHist.Record(time.Duration(frames) * time.Microsecond)
	served := c.serve()
	// The batch is answered, so its bytes may go; they are buffered, so
	// Discard cannot fail.
	_, _ = c.br.Discard(end)
	return served && keep
}

// serve answers c.batch: one trace, the buffer's, and one model load,
// every frame scored in frame order, one settle of the block, one reply
// per frame, one flush. Per-frame latency under coalescing is the
// batch's wall time — that is what each client frame actually waited —
// so the clock is read once per batch, not per frame, and the listener's
// counters, which every connection shares, are added to once per batch,
// before the replies leave. The batch's latency is the duration Finish measured:
// its one clock read.
func (c *coalescer) serve() bool {
	tr := &c.buf.trace
	c.s.tracer.Open(tr, EndpointTCP, c.buf.shard)
	dep := c.s.model.loadDeployed()
	c.buf.newBlock()
	for rest := c.batch; len(rest) > 0; {
		n := 4 + int(binary.BigEndian.Uint32(rest))
		c.s.scoreFrame(dep, c.buf, rest[4:n])
		rest = rest[n:]
	}
	c.s.settle(tr, dep, c.buf, untimed)
	block := c.buf.block
	status, scored, flagged := "ok", 0, 0
	for i := range block {
		v := &block[i]
		c.encodeReply(v)
		switch {
		case v.err == nil:
			scored++
			if v.res.Flagged() {
				flagged++
			}
		case len(block) == 1:
			status = reasonNames[v.reason]
		default:
			status = "partial"
		}
		// bufio errors are sticky: Flush below reports a failed write.
		_, _ = c.bw.Write(c.reply[:])
	}
	c.s.scored.Add(int64(scored))
	c.s.flagged.Add(int64(flagged))
	c.s.badFrames.Add(int64(len(block) - scored))
	c.s.hist.RecordN(c.s.tracer.Finish(tr, status), scored)
	return c.bw.Flush() == nil
}

// encodeReply encodes v's 21-byte answer into c.reply. It carries the
// session ID of a frame that decodes, and zeros for one that does not,
// whose payload the core leaves empty.
func (c *coalescer) encodeReply(v *verdict) {
	reply := &c.reply
	*reply = [tcpReplySize]byte{}
	copy(reply[:fingerprint.SessionIDSize], v.sessionID[:])
	if v.err != nil {
		reply[tcpReplySize-1] = tcpErrorFlag
		return
	}
	binary.BigEndian.PutUint16(reply[fingerprint.SessionIDSize:], uint16(v.res.Cluster))
	binary.BigEndian.PutUint16(reply[fingerprint.SessionIDSize+2:], uint16(v.res.RiskFactor))
	var flags byte
	if v.res.Flagged() {
		flags |= tcpFlagged
	}
	if v.res.Matched {
		flags |= tcpMatched
	}
	reply[tcpReplySize-1] = flags
}
