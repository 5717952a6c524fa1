package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

const (
	transportHTTP   = "http"
	transportTCP    = "tcp"
	transportDirect = "direct"

	// tcpBlock is how many frames one replay-tcp call pipelines.
	tcpBlock     = 64
	tcpHello     = "bPT1"
	tcpReplySize = sessionIDSize + 2 + 2 + 1
)

// workload is one traffic mix. The names are final: later issues cite
// them.
type workload struct {
	name      string
	transport string
	fraudRate float64
	// flaggedShare pins the share of oracle-flagged sessions in the
	// stream exactly, so disk bytes per op and the flagged path's weight
	// do not wander with the seed.
	flaggedShare float64
	// auditSample is the ledger's 1-in-N benign sampling.
	auditSample int
	// malformedEvery makes every Nth body malformed (0 = none).
	malformedEvery int
	why            string
}

var workloads = []workload{
	{
		name: "login-http", transport: transportHTTP, fraudRate: 0.01, flaggedShare: 0.01, auditSample: 100,
		why: "FinOrg login mix over loopback HTTP through a production-configured replica; net/http and the kernel dominate, the handler is about a tenth",
	},
	{
		name: "attack-audit-http", transport: transportHTTP, fraudRate: 0.5, flaggedShare: 0.44, auditSample: 1, malformedEvery: 50,
		why: "same transport with 44% flagged, every verdict audited and 2% malformed bodies; store, journal, explain and ledger append dominate",
	},
	{
		name: "replay-tcp", transport: transportTCP, fraudRate: 0.01, flaggedShare: 0.01, auditSample: 100,
		why: "login sessions pipelined in 64-frame blocks over framed TCP; net/http is bypassed, so decode and the score kernel are a large share",
	},
	{
		name: "ingest-direct", transport: transportDirect, fraudRate: 0.01, flaggedShare: 0.01, auditSample: 100,
		why: "login stream handed straight to collect.Server.ServeHTTP with no sockets; the collect handler is all of the work",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one request of the live stream with everything the client needs
// computed at set-up: the program only ever sees bytes.
type op struct {
	json      bool
	malformed bool
	flagged   bool
	body      []byte // HTTP body (malformed when malformed is set)
	frame     []byte // valid binary wire payload of the session
	sid       string // hex session ID
	ua        string
	vec       []float64
	want      result
	// wantPrefix is the expected HTTP answer up to the server-side
	// elapsed_us field, the only part that is not a function of the input.
	wantPrefix []byte
}

// block is tcpBlock consecutive ops framed for one pipelined write, with
// the replies the program must send back.
type block struct {
	wire []byte
	want []byte
}

type stream struct {
	ops    []op
	blocks []block

	digest        uint64 // FNV-1a 64 of all bodies in order, top 48 bits: a float64 holds it exactly
	distinctPairs int
	flagged       int
	malformed     int
	jsonOps       int
	reqBytes      int64
}

// buildStream draws the live sessions (seed 1000+seed), asks the oracle
// (Model.ScoreString) for every verdict and encodes every body, frame
// and expected answer.
func buildStream(wl workload, m *model, seed uint64, n int) (*stream, error) {
	// Twice the sessions needed, so both the flagged and the benign side
	// of the pinned mix can be filled on any seed.
	pool, err := seamSessions(2*n, 1000+seed, wl.fraudRate)
	if err != nil {
		return nil, err
	}
	wantFlagged := int(math.Round(wl.flaggedShare * float64(n)))
	results := make([]result, len(pool))
	var flagged, benign []int
	for i, s := range pool {
		res, err := seamScoreString(m, s.vector, s.ua)
		if err != nil {
			return nil, fmt.Errorf("oracle: session %d: %w", i, err)
		}
		results[i] = res
		if res.Flagged() {
			flagged = append(flagged, i)
		} else {
			benign = append(benign, i)
		}
	}
	if len(flagged) < wantFlagged || len(benign) < n-wantFlagged {
		return nil, fmt.Errorf("stream: pool of %d has %d flagged and %d benign, need %d and %d",
			len(pool), len(flagged), len(benign), wantFlagged, n-wantFlagged)
	}
	picked := append(append([]int(nil), flagged[:wantFlagged]...), benign[:n-wantFlagged]...)
	shuffle(picked, seed)

	st := &stream{ops: make([]op, n), flagged: wantFlagged}
	pairs := map[string]struct{}{}
	sum := fnv.New64a()
	for i, pi := range picked {
		s, res := pool[pi], results[pi]
		values := seamToValues(s.vector)
		o := &st.ops[i]
		o.json = i%4 == 3
		o.flagged = res.Flagged()
		o.want = res
		o.sid = hex.EncodeToString(s.id[:])
		o.ua = s.ua
		o.vec = seamToVector(nil, values)
		o.frame = encodePayload(s.id, s.ua, values)
		if err := checkFrame(o.frame, s, values); err != nil {
			return nil, err
		}
		pairs[string(o.frame[3+sessionIDSize:])] = struct{}{}
		if o.json {
			o.body = encodeJSON(o.sid, s.ua, values)
			st.jsonOps++
		} else {
			o.body = o.frame
		}
		if wl.malformedEvery > 0 && i%wl.malformedEvery == wl.malformedEvery-1 {
			o.malformed = true
			o.body = malform(o, s.id, values, st.malformed)
			st.malformed++
		}
		o.wantPrefix = []byte(fmt.Sprintf(`{"session_id":"%s","cluster":%d,"matched":%t,"risk_factor":%d,"flagged":%t,"elapsed_us":`,
			o.sid, res.Cluster, res.Matched, res.RiskFactor, res.Flagged()))
		if wl.transport == transportTCP {
			sum.Write(o.frame)
			st.reqBytes += int64(4 + len(o.frame))
		} else {
			sum.Write(o.body)
			st.reqBytes += int64(len(o.body))
		}
	}
	st.digest = sum.Sum64() >> 16
	st.distinctPairs = len(pairs)
	st.buildBlocks()
	return st, nil
}

// buildBlocks frames the ops for the TCP listener: uint32 length prefix
// and payload per frame; the reply is sessionID[16] | uint16 cluster |
// uint16 riskFactor | flags (bit 0 flagged, bit 1 matched).
func (st *stream) buildBlocks() {
	for b := 0; b+tcpBlock <= len(st.ops); b += tcpBlock {
		var blk block
		for i := b; i < b+tcpBlock; i++ {
			o := &st.ops[i]
			blk.wire = binary.BigEndian.AppendUint32(blk.wire, uint32(len(o.frame)))
			blk.wire = append(blk.wire, o.frame...)
			blk.want = append(blk.want, o.frame[3:3+sessionIDSize]...)
			blk.want = binary.BigEndian.AppendUint16(blk.want, uint16(o.want.Cluster))
			blk.want = binary.BigEndian.AppendUint16(blk.want, uint16(o.want.RiskFactor))
			var flags byte
			if o.want.Flagged() {
				flags |= 1
			}
			if o.want.Matched {
				flags |= 2
			}
			blk.want = append(blk.want, flags)
		}
		st.blocks = append(st.blocks, blk)
	}
}

// encodePayload writes the documented wire format by hand:
// magic "bP", version 1, sessionID[16], uvarint len + user-agent,
// uvarint count + zig-zag varint values.
func encodePayload(id [sessionIDSize]byte, userAgent string, values []int64) []byte {
	buf := make([]byte, 0, 3+sessionIDSize+len(userAgent)+2*len(values)+8)
	buf = append(buf, 'b', 'P', 1)
	buf = append(buf, id[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(userAgent)))
	buf = append(buf, userAgent...)
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	for _, v := range values {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// checkFrame proves at set-up that the hand-written encoder and the
// program's decoder agree, so a decode failure during a run is the
// program's.
func checkFrame(frame []byte, s session, values []int64) error {
	p, err := seamUnmarshal(frame)
	if err != nil {
		return fmt.Errorf("stream: program rejects a hand-encoded frame: %w", err)
	}
	if p.SessionID != s.id || p.UserAgent != s.ua || len(p.Values) != len(values) {
		return fmt.Errorf("stream: frame round trip changed session %x", s.id)
	}
	for i := range values {
		if p.Values[i] != values[i] {
			return fmt.Errorf("stream: frame round trip changed value %d of session %x", i, s.id)
		}
	}
	return nil
}

func encodeJSON(sid, userAgent string, values []int64) []byte {
	body, err := json.Marshal(struct {
		SessionID string  `json:"sid"`
		UserAgent string  `json:"ua"`
		Values    []int64 `json:"v"`
	}{sid, userAgent, values})
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return body
}

// malform returns a body the program must answer with a 4xx: truncated,
// wrong feature width, or (JSON only) unbalanced.
func malform(o *op, id [sessionIDSize]byte, values []int64, k int) []byte {
	switch k % 3 {
	case 0:
		return append([]byte(nil), o.body[:len(o.body)*3/4]...)
	case 1:
		if o.json {
			return encodeJSON(o.sid, o.ua, values[:len(values)-1])
		}
		return encodePayload(id, o.ua, values[:len(values)-1])
	default:
		if o.json {
			return append([]byte(nil), o.body[:len(o.body)/2]...)
		}
		bad := append([]byte(nil), o.body...)
		bad[0], bad[1] = 'x', 'x'
		return bad
	}
}

// shuffle is a Fisher–Yates pass driven by splitmix64, so the order is
// the benchmark's own and does not move when the program's rng does.
func shuffle(a []int, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 + 0x1234567
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := len(a) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		a[i], a[j] = a[j], a[i]
	}
}

// answerOK checks one 200 answer against the oracle. The fast path is a
// byte comparison with the pre-computed prefix; an answer that encodes
// the same fields differently is still accepted.
func (o *op) answerOK(body []byte) bool {
	if bytes.HasPrefix(body, o.wantPrefix) {
		return true
	}
	var d decision
	if json.Unmarshal(body, &d) != nil {
		return false
	}
	return d.SessionID == o.sid && d.Cluster == o.want.Cluster && d.Matched == o.want.Matched &&
		d.RiskFactor == o.want.RiskFactor && d.Flagged == o.want.Flagged()
}

// pinnedDigest is the 48-bit stream digest of seed 1 per workload. A
// change to dataset, fraud or fingerprint that silently alters the
// benchmark's inputs makes a seed-1 run fail its correctness check.
var pinnedDigest = map[string]uint64{
	"login-http":        105969751197223,
	"attack-audit-http": 226075138482851,
	"replay-tcp":        133308312292083,
	"ingest-direct":     105969751197223,
}
