package main

import (
	"fmt"
	"io"
	"maps"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one run of one workload. The defaults are the measured
// configuration; quick shrinks everything for the unit test.
type runConfig struct {
	workload workload
	seed     uint64
	closed   time.Duration // measured closed-loop phase
	warm     time.Duration // discarded phase before it
	window   time.Duration // throughput and p99 are medians over windows of this length
	// replay runs the traced replay after the closed phase and so
	// produces the per-layer metrics.
	replay        bool
	trainSessions int
	streamLen     int
	replayOps     int
	setups        int // set-up is repeated and setup_s is the median
	clients       int
	outDir        string    // where the trace file goes
	tmpDir        string    // journals and ledgers; the caller removes it
	info          io.Writer // human-readable progress
}

func defaultConfig(wl workload, seed uint64, seconds float64) runConfig {
	return runConfig{
		workload:      wl,
		seed:          seed,
		closed:        time.Duration(seconds * float64(time.Second)),
		warm:          2 * time.Second,
		window:        time.Second,
		trainSessions: 60000,
		streamLen:     20000,
		replayOps:     20000,
		setups:        5,
		clients:       min(2, runtime.NumCPU()),
		outDir:        filepath.Join("bench", "out"),
		info:          io.Discard,
	}
}

func (c runConfig) quick() runConfig {
	c.closed = 300 * time.Millisecond
	c.warm = 300 * time.Millisecond
	c.window = 100 * time.Millisecond
	c.trainSessions = 8000
	c.streamLen = 2000
	c.replayOps = 2000
	c.setups = 1
	return c
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports; the driver's result line is its JSON.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	endToEnd map[string]metric
	perLayer map[string]metric
}

// testbed is one complete set-up: model, live stream, rig and clients.
type testbed struct {
	trained     *trained
	stream      *stream
	rig         *rig
	clients     *clients
	poolBuildMs float64
	down        bool
}

func setUp(cfg runConfig, dir string) (*testbed, error) {
	tr, err := seamTrain(cfg.trainSessions)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	t0 := time.Now()
	st, err := buildStream(cfg.workload, tr.model, cfg.seed, cfg.streamLen)
	if err != nil {
		return nil, err
	}
	tb := &testbed{trained: tr, stream: st, poolBuildMs: ms(time.Since(t0))}
	if tb.rig, err = startRig(cfg.workload, tr.model, dir); err != nil {
		return nil, fmt.Errorf("rig: %w", err)
	}
	if tb.clients, err = newClients(cfg.workload, tb.rig, st, cfg.clients); err != nil {
		tb.rig.close()
		return nil, fmt.Errorf("clients: %w", err)
	}
	return tb, nil
}

// tearDown closes the clients and the rig; only the first call acts.
func (tb *testbed) tearDown() error {
	if tb.down {
		return nil
	}
	tb.down = true
	tb.clients.close()
	return tb.rig.close()
}

// runWorkload is one whole run: set-up (repeated), warm, closed,
// reconciliation, optional traced replay, tear-down.
func runWorkload(cfg runConfig) (*outcome, error) {
	var (
		tb      *testbed
		err     error
		root    = cfg.tmpDir
		setupS  []float64
		logf    = func(format string, a ...any) { fmt.Fprintf(cfg.info, format+"\n", a...) }
		wl      = cfg.workload
		started = time.Now()
	)
	for i := 0; i < cfg.setups; i++ {
		if tb != nil {
			if err := tb.tearDown(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		// Every set-up starts from a collected heap, so that the peak RSS
		// does not depend on where in the previous set-up's garbage the
		// collector happened to be.
		runtime.GC()
		t0 := time.Now()
		if tb, err = setUp(cfg, filepath.Join(root, fmt.Sprintf("rig%d", i))); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer tb.tearDown()
	logf("set-up: %d times, median %.3f s; stream of %d ops, %d distinct (vector, UA) pairs, %d flagged, %d malformed, digest %d",
		cfg.setups, median(setupS), len(tb.stream.ops), tb.stream.distinctPairs, tb.stream.flagged, tb.stream.malformed, tb.stream.digest)

	scr := newScraper(tb.rig.baseURL)
	defer scr.close()
	stopScrapes := scr.background(time.Second)
	defer stopScrapes()

	warm := tb.clients.run(cfg.warm, cfg.window, int(cfg.warm.Seconds()*500_000)+4096)
	logf("warm (discarded): %.2f s, attempted %d, failed %d", warm.elapsed.Seconds(), warm.attempted, warm.failed)
	runtime.GC()

	// Sample storage for the closed phase: four times what the busiest
	// client did per second while warm.
	busiest := 0
	for _, l := range warm.logs {
		busiest = max(busiest, l.n+l.dropped)
	}
	capacity := int(4*float64(busiest)/cfg.warm.Seconds()*cfg.closed.Seconds()) + 4096

	before, err := scr.counters()
	if err != nil {
		return nil, fmt.Errorf("scrape before closed: %w", err)
	}
	recv0 := tb.clients.received()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	closed := tb.clients.run(cfg.closed, cfg.window, capacity)
	runtime.ReadMemStats(&m1)
	after, err := scr.counters()
	if err != nil {
		return nil, fmt.Errorf("scrape after closed: %w", err)
	}
	respBytes := tb.clients.received() - recv0
	// Read before the benchmark sorts its samples, so that the high-water
	// mark is the rig's and the clients', not the post-processing's.
	peakRSS := peakRSSMB()
	failedScrapes := stopScrapes()

	st := closed.stats()
	logf("closed: %.2f s, attempted %d, failed %d, %d latency samples in %d windows of %v, at least %d samples beyond each window's p99",
		closed.elapsed.Seconds(), closed.attempted, closed.failed, st.samples, closed.windows, closed.window, st.tail)

	logf("closed, per window: ops/s %.0f; p50 us %.1f; p99 us %.1f", st.rates, st.p50s, st.p99s)

	out := &outcome{Attempted: closed.attempted, Failed: closed.failed}
	delta := after.since(before)
	problems := reconcile(wl, tb.stream, closed, delta)
	if st.dropped > 0 {
		problems = append(problems, fmt.Sprintf("latency storage exhausted: %d calls unsampled", st.dropped))
	}
	if failedScrapes > 0 {
		problems = append(problems, fmt.Sprintf("%d /metrics scrapes failed", failedScrapes))
	}
	if cfg.seed == 1 && cfg.streamLen == 20000 {
		if want := pinnedDigest[wl.name]; want != tb.stream.digest {
			problems = append(problems, fmt.Sprintf("stream digest %d differs from the pinned %d: dataset, fraud or fingerprint changed the inputs",
				tb.stream.digest, want))
		}
	}

	ops := float64(closed.attempted)
	layer := map[string]metric{
		"collect.server_handler_mean_us": {ratio(delta[cHandlerSumUs], delta[cHandlerCount]), "us"},
		"collect.flagged_share":          {ratio(delta[cFlagged]+delta[cTCPFlagged], ops), "ratio"},
		"collect.rejected_share":         {ratio(delta[cRejected]+delta[cTCPBad], ops), "ratio"},
		"collect.tcp_batch_mean":         {ratio(delta[cTCPBatchSum], delta[cTCPBatchCount]), "frames"},
		"audit.records_per_op":           {ratio(delta[cAuditRecords], ops), "1/op"},
		"audit.dropped_per_op":           {ratio(delta[cAuditDropped], ops), "1/op"},
		"proc.allocs_per_op":             {float64(m1.Mallocs-m0.Mallocs) / ops, "1/op"},
		"proc.alloc_bytes_per_op":        {float64(m1.TotalAlloc-m0.TotalAlloc) / ops, "B/op"},
		"proc.gc_cycles_per_kop":         {float64(m1.NumGC-m0.NumGC) / ops * 1e3, "1/kop"},
		"proc.gc_pause_us_per_op":        {float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3 / ops, "us/op"},
		"traffic.distinct_pairs":         {float64(tb.stream.distinctPairs), "count"},
		"traffic.json_share":             {ratio(float64(tb.stream.jsonOps), float64(len(tb.stream.ops))), "ratio"},
		"traffic.req_bytes_mean":         {ratio(float64(tb.stream.reqBytes), float64(len(tb.stream.ops))), "B"},
		"traffic.resp_bytes_mean":        {ratio(float64(respBytes), ops), "B"},
		"traffic.stream_digest":          {float64(tb.stream.digest), "hash48"},
		"dataset.generate_ms":            {tb.trained.generateMs, "ms"},
		"core.train_ms":                  {tb.trained.trainMs, "ms"},
		"core.train.scale_ms":            {tb.trained.stageMs["scale"], "ms"},
		"core.train.iforest_ms":          {tb.trained.stageMs["iforest-filter"], "ms"},
		"core.train.pca_ms":              {tb.trained.stageMs["pca"], "ms"},
		"core.train.kmeans_ms":           {tb.trained.stageMs["kmeans"], "ms"},
		"core.train.cluster_table_ms":    {tb.trained.stageMs["cluster-table"], "ms"},
		"bench.pool_build_ms":            {tb.poolBuildMs, "ms"},
	}

	if cfg.replay {
		replayed, replayProblems, err := replay(cfg, tb, root)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		problems = append(problems, replayProblems...)
		maps.Copy(layer, replayed)
	}

	// Closing the rig flushes the journal and the ledger, so the directory
	// now holds every byte the rig wrote since boot.
	if err := tb.tearDown(); err != nil {
		problems = append(problems, fmt.Sprintf("tear-down: %v", err))
	}
	disk, err := dirBytes(tb.rig.dir)
	if err != nil {
		return nil, err
	}

	for _, p := range problems {
		logf("MISMATCH: %s", p)
	}
	out.Failed += int64(len(problems))
	out.Correct = out.Failed == 0
	layer["fail_ratio"] = metric{ratio(float64(out.Failed), float64(out.Attempted)), "ratio"}
	// The tail is reported but not bounded: its spread between runs of one
	// commit is wider than any bound (see README).
	layer["p99_us"] = metric{st.p99us, "us"}
	out.perLayer = layer
	out.endToEnd = map[string]metric{
		"rps":               {st.rps, "1/s"},
		"p50_us":            {st.p50us, "us"},
		"cpu_us_per_op":     {float64(closed.cpu.Nanoseconds()) / 1e3 / ops, "us"},
		"disk_bytes_per_op": {float64(disk) / float64(warm.attempted+closed.attempted), "B"},
		"peak_rss_mb":       {peakRSS, "MB"},
		"setup_s":           {median(setupS), "s"},
	}
	logf("run took %.1f s", time.Since(started).Seconds())
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reconcile compares what the clients sent during the closed phase with
// what the rig's own counters say it did, and checks the audit identity
// records + dropped == scored.
func reconcile(wl workload, st *stream, closed *phaseResult, d counters) (problems []string) {
	var valid, flagged, malformed float64
	for w, span := range closed.calls {
		for k := span[0]; k < span[1]; k++ {
			unit := w + k*len(closed.calls)
			if wl.transport == transportTCP {
				first := unit % len(st.blocks) * tcpBlock
				for _, o := range st.ops[first : first+tcpBlock] {
					valid++
					if o.flagged {
						flagged++
					}
				}
				continue
			}
			o := &st.ops[unit%len(st.ops)]
			switch {
			case o.malformed:
				malformed++
			case o.flagged:
				valid++
				flagged++
			default:
				valid++
			}
		}
	}
	check := func(what string, got, want float64) {
		if got != want {
			problems = append(problems, fmt.Sprintf("%s: rig counted %.0f, clients sent %.0f", what, got, want))
		}
	}
	if wl.transport == transportTCP {
		check("tcp_scored", d[cTCPScored], valid)
		check("tcp_flagged", d[cTCPFlagged], flagged)
		check("tcp_bad_frames", d[cTCPBad], 0)
	} else {
		check("collections", d[cCollections], valid)
		check("flagged", d[cFlagged], flagged)
		check("rejected", d[cRejected], malformed)
	}
	check("audit records + dropped", d[cAuditRecords]+d[cAuditDropped], d[cCollections]+d[cTCPScored])
	return problems
}
