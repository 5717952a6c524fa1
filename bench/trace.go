package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The traced replay measures every layer from outside: after the closed
// phase one goroutine walks the same stream through the layers' public
// functions in pipeline order, and the benchmark wraps each call in a
// span. Spans inside the program are a later issue.

// Span names are module names, so a per-layer metric reads
// <module>.<what>_<unit>.
const (
	spOp = iota // one replayed op: parent of the per-op layer spans
	spRateLimit
	spHandlerBin
	spHandlerJSON
	spDecode
	spToVector
	spParseUA
	spScore
	spDrift
	spTrace
	spStore
	spJournal
	spExplain
	spAppend
	spPickFinish
	spTCPBlock   // 64 frames through TCPServer.Serve on an in-memory pipe
	spScoreBatch // the same 64 rows through ScoreStringBatchContext
	spScrape
	spSLOTick
	spRoundTrip // one loopback HTTP request, for net.http_stack_us
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "collect.ratelimit_allow", "collect.handler_bin", "collect.handler_json",
	"fingerprint.decode", "fingerprint.to_vector", "ua.parse", "core.score",
	"obs.drift_observe", "obs.trace", "collect.store_record", "collect.journal_append",
	"core.explain", "audit.append", "fleet.pick_finish", "collect.tcp_block",
	"core.score_batch", "obs.scrape", "slo.tick", "net.http_round_trip",
}

type span struct {
	name, op, parent int32
	start, end       int64 // ns since the recorder started
}

// recorder keeps spans in a slice allocated before timing starts and
// writes them out when the run ends.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name, op int, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: int32(name), op: int32(op), parent: parent, start: int64(time.Since(r.t0))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if id >= 0 {
		r.spans[id].end = int64(time.Since(r.t0))
	}
}

// layerTimes is the reduction of a recorder: per span name the number
// of spans, their total duration and their total self time (duration
// minus the part covered by child spans).
type layerTimes struct {
	count      [numSpanNames]int
	total      [numSpanNames]int64
	self       [numSpanNames]int64
	violations []string // spans that break the tree
}

func (r *recorder) reduce() *layerTimes {
	lt := &layerTimes{}
	children := make([]int64, len(r.spans))
	for i, s := range r.spans {
		if s.end < s.start {
			lt.violations = append(lt.violations, fmt.Sprintf("span %d (%s) ends before it starts", i, spanNames[s.name]))
		}
		if s.parent < 0 {
			continue
		}
		if int(s.parent) >= i {
			lt.violations = append(lt.violations, fmt.Sprintf("span %d (%s) names parent %d, which does not precede it", i, spanNames[s.name], s.parent))
			continue
		}
		p := r.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			lt.violations = append(lt.violations, fmt.Sprintf("span %d (%s) is not inside its parent %d", i, spanNames[s.name], s.parent))
		}
		children[s.parent] += s.end - s.start
	}
	for i, s := range r.spans {
		d := s.end - s.start
		lt.count[s.name]++
		lt.total[s.name] += d
		lt.self[s.name] += d - children[i]
		if d < children[i] {
			lt.violations = append(lt.violations, fmt.Sprintf("span %d (%s) has negative self time", i, spanNames[s.name]))
		}
	}
	return lt
}

func (lt *layerTimes) meanNs(name int) float64 {
	return ratio(float64(lt.total[name]), float64(lt.count[name]))
}

// durations returns the ascending durations of the spans called name
// whose op is below limit.
func (r *recorder) durations(limit int, names ...int) []int64 {
	var out []int64
	for _, s := range r.spans {
		if int(s.op) < limit && slices.Contains(names, int(s.name)) {
			out = append(out, s.end-s.start)
		}
	}
	slices.Sort(out)
	return out
}

// write stores the spans as
// {"names":[...],"columns":[...],"spans":[[name,op,parent,start_ns,end_ns],...]}.
func (r *recorder) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"names":[`, workload, seed)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString(`],"columns":["name","op","parent","start_ns","end_ns"],"spans":[` + "\n")
	var line []byte
	for i, s := range r.spans {
		line = line[:0]
		if i > 0 {
			line = append(line, ",\n"...)
		}
		line = append(line, '[')
		for j, v := range [...]int64{int64(s.name), int64(s.op), int64(s.parent), s.start, s.end} {
			if j > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, ']')
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pipeListener hands TCPServer.Serve the server ends of in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial connects and sends the hello, like dialFramed over a socket.
func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-l.done:
		return nil, net.ErrClosed
	}
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write([]byte(tcpHello)); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// layers is every instance the replay calls into. All of them are the
// replay's own, so the rig the closed phase measured is not touched.
type layers struct {
	m         *model
	modelHash string
	replica   *replica
	bootMs    float64
	direct    *directCaller
	http      *httpCaller
	scraper   *scraper
	limiter   *rateLimiter
	drift     *driftMonitor
	tracer    *tracer
	store     *memoryStore
	journal   *journal
	ledger    *ledger
	balancer  *balancer
	scratch   *scratch
	vec       []float64

	frames   *tcpRig
	listener *pipeListener
	served   sync.WaitGroup
	conn     net.Conn
	replyBuf []byte
}

func newLayers(cfg runConfig, tb *testbed, dir string) (_ *layers, err error) {
	ly := &layers{m: tb.trained.model, replyBuf: make([]byte, tcpBlock*tcpReplySize)}
	defer func() {
		if err != nil {
			ly.close()
		}
	}()
	if ly.modelHash, err = seamModelHash(ly.m); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if ly.replica, err = seamStartReplica(replicaOptions{
		name:        "replay",
		model:       ly.m,
		journalDir:  filepath.Join(dir, "replica-journal"),
		auditDir:    filepath.Join(dir, "replica-audit"),
		auditSample: cfg.workload.auditSample,
	}); err != nil {
		return nil, err
	}
	ly.bootMs = ms(time.Since(t0))
	one := cursor{st: tb.stream, w: 0, c: 1}
	if ly.direct, err = newDirectCaller(seamReplicaHandler(ly.replica), one); err != nil {
		return nil, err
	}
	if ly.http, err = newHTTPCaller(seamReplicaURL(ly.replica), one); err != nil {
		return nil, err
	}
	ly.scraper = newScraper(seamReplicaURL(ly.replica))
	ly.limiter = seamNewRateLimiter()
	if ly.drift, err = seamNewDrift(ly.m); err != nil {
		return nil, err
	}
	ly.tracer = seamNewTracer()
	ly.store = seamNewStore()
	if ly.journal, err = seamOpenJournal(filepath.Join(dir, "journal")); err != nil {
		return nil, err
	}
	// The replay decides itself which ops are audited, so its ledger
	// takes every record it is handed.
	if ly.ledger, err = seamOpenLedger(filepath.Join(dir, "audit"), 1); err != nil {
		return nil, err
	}
	if ly.balancer, err = seamNewBalancer(); err != nil {
		return nil, err
	}
	ly.scratch = seamNewScratch(ly.m)

	if ly.frames, err = seamNewTCPRig(ly.m, filepath.Join(dir, "tcp-audit"), cfg.workload.auditSample); err != nil {
		return nil, err
	}
	ly.listener = newPipeListener()
	ly.served.Add(1)
	go func() {
		defer ly.served.Done()
		seamTCPServe(ly.frames.tcp, ly.listener)
	}()
	if ly.conn, err = ly.listener.dial(); err != nil {
		return nil, err
	}
	return ly, nil
}

func (ly *layers) close() {
	if ly.conn != nil {
		ly.conn.Close()
	}
	if ly.frames != nil {
		seamTCPClose(ly.frames.tcp)
		if ly.listener != nil {
			ly.listener.Close()
			ly.served.Wait()
		}
		ly.frames.stop()
		ly.frames.ledger.Close()
	}
	if ly.ledger != nil {
		ly.ledger.Close()
	}
	if ly.journal != nil {
		ly.journal.Close()
	}
	if ly.scraper != nil {
		ly.scraper.close()
	}
	if ly.http != nil {
		ly.http.close()
	}
	if ly.replica != nil {
		seamReplicaClose(ly.replica)
	}
}

// replayer walks the stream through the layers.
type replayer struct {
	*layers
	rec         *recorder
	st          *stream
	auditSample int
	scrapeEvery int
	vecs        [][]float64
	uas         []string

	wrong       int // answers that differ from the oracle
	scrapeBytes int64
	scrapes     int
	err         error // first error of a layer that must not fail
}

func (rp *replayer) fail(err error) {
	if err != nil && rp.err == nil {
		rp.err = err
	}
}

// op replays one op through every per-op layer in pipeline order.
func (rp *replayer) op(i int) {
	rec, o := rp.rec, &rp.st.ops[i]
	root := rec.begin(spOp, i, -1)

	id := rec.begin(spRateLimit, i, root)
	allowed := seamRateAllow(rp.limiter, "127.0.0.1")
	rec.end(id)
	if !allowed {
		rp.wrong++
	}

	handler := spHandlerBin
	if o.json {
		handler = spHandlerJSON
	}
	id = rec.begin(handler, i, root)
	ok := rp.direct.serve(o)
	rec.end(id)
	if !ok {
		rp.wrong++
	}

	id = rec.begin(spDecode, i, root)
	p, err := seamUnmarshal(o.frame)
	rec.end(id)
	if err != nil {
		rp.fail(err)
		rec.end(root)
		return
	}

	id = rec.begin(spToVector, i, root)
	rp.vec = seamToVector(rp.vec, p.Values)
	rec.end(id)

	id = rec.begin(spParseUA, i, root)
	err = seamParseUA(p.UserAgent)
	rec.end(id)
	rp.fail(err)

	id = rec.begin(spScore, i, root)
	res, err := seamScoreStringWith(rp.m, rp.scratch, rp.vec, p.UserAgent)
	rec.end(id)
	rp.fail(err)
	if res.Cluster != o.want.Cluster || res.Matched != o.want.Matched || res.RiskFactor != o.want.RiskFactor || res.Flagged() != o.flagged {
		rp.wrong++
	}

	id = rec.begin(spDrift, i, root)
	seamDriftObserve(rp.drift, rp.vec)
	rec.end(id)

	id = rec.begin(spTrace, i, root)
	seamTraceRequest(rp.tracer)
	rec.end(id)

	if res.Flagged() {
		d := decision{SessionID: o.sid, Cluster: res.Cluster, Matched: res.Matched, RiskFactor: res.RiskFactor, Flagged: true, ElapsedMicros: 1}
		id = rec.begin(spStore, i, root)
		seamStoreRecord(rp.store, d)
		rec.end(id)
		id = rec.begin(spJournal, i, root)
		err = seamJournalAppend(rp.journal, d)
		rec.end(id)
		rp.fail(err)
	}

	// The workload's audit policy: every flagged verdict, every Nth other.
	if res.Flagged() || i%rp.auditSample == 0 {
		id = rec.begin(spExplain, i, root)
		ex, err := seamExplain(rp.m, rp.vec, p.UserAgent, res)
		rec.end(id)
		if err != nil {
			rp.fail(err)
		} else {
			owned := slices.Clone(rp.vec) // the record keeps its vector
			id = rec.begin(spAppend, i, root)
			err = seamAuditAppend(rp.ledger, rp.modelHash, o.sid, p.UserAgent, owned, ex)
			rec.end(id)
			rp.fail(err)
		}
	}

	id = rec.begin(spPickFinish, i, root)
	err = seamPickFinish(rp.balancer)
	rec.end(id)
	rp.fail(err)

	rec.end(root)
}

// block replays the 64 ops ending at i as one pipelined TCP block and as
// one batch-score call.
func (rp *replayer) block(i int) {
	first := i + 1 - tcpBlock
	id := rp.rec.begin(spTCPBlock, first, -1)
	rp.wrong += exchangeBlock(rp.conn, &rp.st.blocks[first/tcpBlock], rp.replyBuf)
	rp.rec.end(id)

	id = rp.rec.begin(spScoreBatch, first, -1)
	results, err := seamScoreBatch(rp.m, rp.vecs[first:i+1], rp.uas[first:i+1])
	rp.rec.end(id)
	rp.fail(err)
	for j, res := range results {
		if res.Cluster != rp.st.ops[first+j].want.Cluster || res.Flagged() != rp.st.ops[first+j].flagged {
			rp.wrong++
		}
	}
}

// periodic replays what happens once a second in production: a scrape
// and an SLO tick.
func (rp *replayer) periodic(i int) {
	id := rp.rec.begin(spScrape, i, -1)
	page, err := rp.scraper.page()
	rp.rec.end(id)
	rp.fail(err)
	rp.scrapeBytes += int64(len(page))
	rp.scrapes++

	id = rp.rec.begin(spSLOTick, i, -1)
	err = seamSLOTick(seamSLOEngine(rp.replica))
	rp.rec.end(id)
	rp.fail(err)
}

// pass replays ops [0, n) and returns how long it took.
func (rp *replayer) pass(n int) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rp.op(i)
		if (i+1)%tcpBlock == 0 {
			rp.block(i)
		}
		if (i+1)%rp.scrapeEvery == 0 {
			rp.periodic(i)
		}
	}
	return time.Since(t0)
}

// allocsPer is the mean number of heap allocations of f over n calls.
func allocsPer(n int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replay runs the traced replay and returns the per-layer metrics it
// yields, plus every disagreement with the oracle it saw.
func replay(cfg runConfig, tb *testbed, root string) (map[string]metric, []string, error) {
	n := min(cfg.replayOps, len(tb.stream.ops))
	ly, err := newLayers(cfg, tb, filepath.Join(root, "replay"))
	if err != nil {
		return nil, nil, err
	}
	defer ly.close()

	rp := &replayer{
		layers:      ly,
		st:          tb.stream,
		auditSample: cfg.workload.auditSample,
		scrapeEvery: max(n/20, 1),
		// Pre-allocated for the most spans a pass can record.
		rec: newRecorder(n*16 + 2*(n/tcpBlock) + 64 + n/10),
	}
	for i := range tb.stream.ops[:n] {
		rp.vecs = append(rp.vecs, tb.stream.ops[i].vec)
		rp.uas = append(rp.uas, tb.stream.ops[i].ua)
	}

	rp.pass(n / 10) // warm, discarded
	runtime.GC()
	records0, _, bytes0 := seamAuditCounters(ly.ledger)
	rp.wrong, rp.scrapeBytes, rp.scrapes = 0, 0, 0
	rp.rec.on = true
	rp.rec.t0 = time.Now()
	rp.pass(n)
	records1, _, bytes1 := seamAuditCounters(ly.ledger)
	perOp := float64(len(rp.rec.spans)) / float64(n)

	// Loopback HTTP round trips of the first ops, to set against the
	// same ops handled without a socket.
	trips := max(n/10, 1)
	for i := 0; i < trips; i++ {
		id := rp.rec.begin(spRoundTrip, i, -1)
		_, failed := ly.http.call(i)
		rp.rec.end(id)
		rp.wrong += failed
	}
	// What recording costs: spans around nothing. The difference of a
	// traced and an untraced pass would drown in disk and GC noise.
	const empties = 100_000
	calibration := newRecorder(empties)
	calibration.on = true
	t0 := time.Now()
	for i := 0; i < empties; i++ {
		calibration.end(calibration.begin(spOp, i, -1))
	}
	emptyCost := float64(time.Since(t0).Nanoseconds()) / empties
	rp.rec.on = false
	if rp.err != nil {
		return nil, nil, rp.err
	}

	var problems []string
	if rp.wrong > 0 {
		problems = append(problems, fmt.Sprintf("traced replay: %d answers differ from the oracle", rp.wrong))
	}
	lt := rp.rec.reduce()
	problems = append(problems, lt.violations...)
	if err := rp.rec.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload.name+".json"), cfg.workload.name, cfg.seed); err != nil {
		return nil, nil, err
	}

	few := min(500, n)
	ops := tb.stream.ops
	handlerAllocs := allocsPer(few, func(i int) { ly.direct.serve(&ops[i]) })
	decodeAllocs := allocsPer(few, func(i int) { seamUnmarshal(ops[i].frame) })
	scoreAllocs := allocsPer(few, func(i int) { seamScoreStringWith(ly.m, ly.scratch, ops[i].vec, ops[i].ua) })
	explained := make([]*explanation, few)
	explainAllocs := allocsPer(few, func(i int) { explained[i], _ = seamExplain(ly.m, ops[i].vec, ops[i].ua, ops[i].want) })
	appendAllocs := allocsPer(few, func(i int) {
		seamAuditAppend(ly.ledger, ly.modelHash, ops[i].sid, ops[i].ua, ops[i].vec, explained[i])
	})

	handlerCalls := float64(lt.count[spHandlerBin] + lt.count[spHandlerJSON])
	handlerNs := ratio(float64(lt.total[spHandlerBin]+lt.total[spHandlerJSON]), handlerCalls)
	valid := 1 - ratio(float64(tb.stream.malformed), float64(len(ops)))
	children := valid * (ratio(float64(lt.count[spHandlerBin]), handlerCalls)*lt.meanNs(spDecode) +
		lt.meanNs(spToVector) + lt.meanNs(spScore) + lt.meanNs(spDrift) + lt.meanNs(spTrace) +
		ratio(float64(lt.count[spStore]), float64(n))*(lt.meanNs(spStore)+lt.meanNs(spJournal)) +
		ratio(float64(lt.count[spExplain]), float64(n))*(lt.meanNs(spExplain)+lt.meanNs(spAppend)))
	roundTrip := rp.rec.durations(trips, spRoundTrip)
	handled := rp.rec.durations(trips, spHandlerBin, spHandlerJSON)

	return map[string]metric{
		"fingerprint.decode_ns":      {lt.meanNs(spDecode), "ns"},
		"fingerprint.decode_allocs":  {decodeAllocs, "1/op"},
		"fingerprint.to_vector_ns":   {lt.meanNs(spToVector), "ns"},
		"ua.parse_ns":                {lt.meanNs(spParseUA), "ns"},
		"core.score_ns":              {lt.meanNs(spScore), "ns"},
		"core.score_self_ns":         {lt.meanNs(spScore) - lt.meanNs(spParseUA), "ns"},
		"core.score_allocs":          {scoreAllocs, "1/op"},
		"core.score_batch_row_ns":    {lt.meanNs(spScoreBatch) / tcpBlock, "ns"},
		"core.explain_ns":            {lt.meanNs(spExplain), "ns"},
		"core.explain_allocs":        {explainAllocs, "1/op"},
		"obs.drift_observe_ns":       {lt.meanNs(spDrift), "ns"},
		"obs.trace_ns":               {lt.meanNs(spTrace), "ns"},
		"obs.scrape_us":              {lt.meanNs(spScrape) / 1e3, "us"},
		"obs.scrape_bytes":           {ratio(float64(rp.scrapeBytes), float64(rp.scrapes)), "B"},
		"audit.append_ns":            {lt.meanNs(spAppend), "ns"},
		"audit.append_allocs":        {appendAllocs, "1/op"},
		"audit.record_bytes":         {ratio(float64(bytes1-bytes0), float64(records1-records0)), "B"},
		"collect.journal_append_ns":  {lt.meanNs(spJournal), "ns"},
		"collect.store_record_ns":    {lt.meanNs(spStore), "ns"},
		"collect.ratelimit_allow_ns": {lt.meanNs(spRateLimit), "ns"},
		"collect.handler_bin_ns":     {lt.meanNs(spHandlerBin), "ns"},
		"collect.handler_json_ns":    {lt.meanNs(spHandlerJSON), "ns"},
		"collect.handler_allocs":     {handlerAllocs, "1/op"},
		"collect.handler_self_ns":    {handlerNs - children, "ns"},
		"collect.tcp_frame_ns":       {lt.meanNs(spTCPBlock) / tcpBlock, "ns"},
		"fleet.pick_finish_ns":       {lt.meanNs(spPickFinish), "ns"},
		"slo.tick_us":                {lt.meanNs(spSLOTick) / 1e3, "us"},
		"serving.boot_ms":            {ly.bootMs, "ms"},
		"bench.replay_glue_ns":       {ratio(float64(lt.self[spOp]), float64(lt.count[spOp])), "ns"},
		"bench.empty_span_ns":        {calibration.reduce().meanNs(spOp), "ns"},
		"bench.span_overhead_ns":     {emptyCost * perOp, "ns"},
		"net.http_stack_us":          {float64(quantileSorted(roundTrip, 0.5)-quantileSorted(handled, 0.5)) / 1e3, "us"},
	}, problems, nil
}
