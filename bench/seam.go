package main

// seam.go is the only file of the benchmark that imports
// polygraph/internal/*. Every call into the program goes through one of
// the functions below, so the symbols the benchmark depends on are
// listed in one place (bench/README.md repeats the list): an API
// narrowing has to keep or wrap exactly these.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
	"polygraph/internal/serving"
	"polygraph/internal/slo"
	"polygraph/internal/ua"
)

type (
	model        = core.Model
	result       = core.Result
	scratch      = core.Scratch
	explanation  = core.Explanation
	payload      = fingerprint.Payload
	decision     = collect.Decision
	replica      = serving.Replica
	httpIngest   = collect.Server
	tcpIngest    = collect.TCPServer
	journal      = collect.Journal
	memoryStore  = collect.MemoryStore
	rateLimiter  = collect.RateLimiter
	ledger       = audit.Ledger
	driftMonitor = obs.DriftMonitor
	tracer       = obs.Tracer
	balancer     = fleet.Balancer
	sloEngine    = slo.Engine
)

const (
	pathBinary    = collect.EndpointBinary
	pathJSON      = collect.EndpointJSON
	sessionIDSize = fingerprint.SessionIDSize
)

// session is what the benchmark keeps of one generated session.
type session struct {
	id     [sessionIDSize]byte
	ua     string
	vector []float64
}

// trained is a model plus the cost of obtaining it.
type trained struct {
	model      *model
	generateMs float64
	trainMs    float64
	stageMs    map[string]float64
}

// seamGenerate draws sessions from the calibrated FinOrg population.
// seed 0 keeps the generator's default seed; fraudRate < 0 keeps the
// calibrated fraud rate.
func seamGenerate(sessions int, seed uint64, fraudRate float64) (*dataset.Dataset, error) {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = sessions
	cfg.MaxVersion = 114
	if seed != 0 {
		cfg.Seed = seed
	}
	if fraudRate >= 0 {
		cfg.FraudRate = fraudRate
	}
	return dataset.Generate(cfg)
}

// seamSessions is seamGenerate reduced to what the live stream needs.
func seamSessions(n int, seed uint64, fraudRate float64) ([]session, error) {
	ds, err := seamGenerate(n, seed, fraudRate)
	if err != nil {
		return nil, err
	}
	out := make([]session, len(ds.Sessions))
	for i, s := range ds.Sessions {
		out[i] = session{id: s.ID, ua: s.UAString, vector: s.Vector}
	}
	return out, nil
}

// seamTrain generates the training population (default seed) and fits
// the model the way cmd/loadgen does.
func seamTrain(sessions int) (*trained, error) {
	t0 := time.Now()
	ds, err := seamGenerate(sessions, 0, -1)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: ds.Extractor, OS: ua.Windows10}
	m, report, err := core.Train(ds.Samples(), tc)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	out := &trained{model: m, generateMs: ms(t1.Sub(t0)), trainMs: ms(t2.Sub(t1)), stageMs: map[string]float64{}}
	for _, st := range report.Stages {
		out.stageMs[st.Name] = ms(st.Duration)
	}
	return out, nil
}

func seamScoreString(m *model, vec []float64, userAgent string) (result, error) {
	return m.ScoreString(vec, userAgent)
}

func seamScoreStringWith(m *model, s *scratch, vec []float64, userAgent string) (result, error) {
	return m.ScoreStringWith(s, vec, userAgent)
}

func seamScoreBatch(m *model, vecs [][]float64, uas []string) ([]result, error) {
	return m.ScoreStringBatchContext(context.Background(), vecs, uas, 0)
}

func seamNewScratch(m *model) *scratch { return m.NewScratch() }

func seamExplain(m *model, vec []float64, userAgent string, res result) (*explanation, error) {
	return m.ExplainResult(vec, userAgent, res, 0)
}

func seamParseUA(userAgent string) error {
	_, err := ua.Parse(userAgent)
	return err
}

func seamUnmarshal(frame []byte) (*payload, error) { return fingerprint.UnmarshalBinary(frame) }

func seamToVector(dst []float64, values []int64) []float64 {
	return fingerprint.ValuesToVectorInto(dst, values)
}

func seamToValues(vec []float64) []int64 { return fingerprint.VectorToValues(vec) }

// replicaOptions is the part of serving.Config the workloads vary.
type replicaOptions struct {
	name        string
	model       *model
	journalDir  string
	auditDir    string
	auditSample int
}

// seamStartReplica boots one replica configured as production runs it:
// journal and audit ledger on, drift monitor on, SLO engine ticking at
// 1 s, rate limiter off, logger nil (the drift-alert WARN flood must not
// be timed).
func seamStartReplica(o replicaOptions) (*replica, error) {
	r, err := serving.New(context.Background(), serving.Config{
		Name:           o.name,
		Addr:           "127.0.0.1:0",
		Model:          o.model,
		JournalDir:     o.journalDir,
		AuditDir:       o.auditDir,
		AuditSample:    o.auditSample,
		DriftInterval:  time.Second,
		DriftReservoir: 512,
		TraceRingSize:  256,
		TraceSeed:      1,
		SLOSpec:        slo.DefaultSpec(),
		SLOInterval:    time.Second,
	})
	if err != nil {
		return nil, err
	}
	if err := r.Start(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func seamReplicaURL(r *replica) string          { return r.BaseURL() }
func seamReplicaHandler(r *replica) *httpIngest { return r.Server() }
func seamReplicaClose(r *replica) error         { return r.Close() }

func seamServeHTTP(s *httpIngest, w http.ResponseWriter, r *http.Request) { s.ServeHTTP(w, r) }

func seamSLOEngine(r *replica) *sloEngine { return r.SLO() }
func seamSLOTick(e *sloEngine) error      { return e.TickNow() }

// tcpRig is the framed-TCP listener with the collect.Server that
// exports its counters at /metrics.
type tcpRig struct {
	http   *httpIngest
	tcp    *tcpIngest
	drift  *driftMonitor
	ledger *ledger
	// stop ends the drift evaluation loop and waits for it.
	stop func()
}

// seamNewTCPRig wires collect.TCPServer the way cmd/loadgen -tcp does:
// one model, tracer, drift monitor and audit ledger shared with the
// HTTP server it is attached to.
func seamNewTCPRig(m *model, auditDir string, auditSample int) (*tcpRig, error) {
	led, err := seamOpenLedger(auditDir, auditSample)
	if err != nil {
		return nil, err
	}
	drift, err := seamNewDrift(m)
	if err != nil {
		led.Close()
		return nil, err
	}
	srv, err := collect.NewServer(collect.Config{Model: m, Drift: drift, Audit: led, TraceSeed: 1})
	if err != nil {
		led.Close()
		return nil, err
	}
	tcp, err := collect.NewTCPServer(collect.Config{Model: m, Store: srv.Store(), Tracer: srv.Tracer(), Drift: drift, Audit: led})
	if err != nil {
		led.Close()
		return nil, err
	}
	srv.AttachTCP(tcp)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		drift.Run(ctx, time.Second)
		close(done)
	}()
	stop := func() {
		cancel()
		<-done
	}
	return &tcpRig{http: srv, tcp: tcp, drift: drift, ledger: led, stop: stop}, nil
}

func seamTCPServe(t *tcpIngest, l net.Listener) error { return t.Serve(l) }
func seamTCPClose(t *tcpIngest) error                 { return t.Close() }

func seamOpenLedger(dir string, sampleBenign int) (*ledger, error) {
	return audit.Open(audit.Config{Dir: dir, SampleBenign: sampleBenign})
}

// seamAuditAppend appends one full explained record, as the serving
// tier's audit path builds it.
func seamAuditAppend(l *ledger, modelHash, sessionID, userAgent string, vec []float64, ex *explanation) error {
	return l.Append(audit.Record{
		TimeNs:      time.Now().UnixNano(),
		TraceID:     "0000000000000000",
		ModelHash:   modelHash,
		SessionID:   sessionID,
		UserAgent:   userAgent,
		Endpoint:    pathBinary,
		Vector:      vec,
		Verdict:     ex.Verdict,
		Explanation: ex,
	})
}

func seamAuditCounters(l *ledger) (records, dropped, bytes int64) {
	c := l.Counters()
	return c.Records, c.Dropped, c.Bytes
}

func seamModelHash(m *model) (string, error) { return m.Hash() }

func seamOpenJournal(dir string) (*journal, error)   { return collect.OpenJournal(dir, "decisions", 0) }
func seamJournalAppend(j *journal, d decision) error { return j.Append(d) }

func seamNewStore() *memoryStore                 { return collect.NewMemoryStore(4096) }
func seamStoreRecord(s *memoryStore, d decision) { s.Record(d) }

func seamNewRateLimiter() *rateLimiter               { return collect.NewRateLimiter(1e9, 1<<30) }
func seamRateAllow(rl *rateLimiter, key string) bool { return rl.Allow(key) }

func seamNewDrift(m *model) (*driftMonitor, error) {
	names := make([]string, m.Dim())
	for i := range names {
		names[i] = fmt.Sprintf("f%02d", i)
	}
	return obs.NewDriftMonitor(obs.DriftConfig{Features: names, Reservoir: 512, Seed: 1})
}

func seamDriftObserve(d *driftMonitor, vec []float64) { d.Observe(vec) }

func seamNewTracer() *tracer { return obs.NewTracer(obs.TracerConfig{RingSize: 256, Seed: 1}) }

// seamTraceRequest is what the ingest path spends on tracing one
// request: Start, four recorded spans, Finish.
func seamTraceRequest(t *tracer) {
	_, tr := t.Start(context.Background(), pathBinary)
	for _, name := range [...]string{"decode", "score", "record", "audit"} {
		start := time.Now()
		tr.RecordSpan(name, start, time.Since(start))
	}
	t.Finish(tr, "ok")
}

// counters is the subset of the rig's /metrics page the benchmark
// reconciles against, indexed by the constants below.
type counters [numCounters]float64

const (
	cCollections = iota
	cFlagged
	cRejected
	cTCPScored
	cTCPFlagged
	cTCPBad
	cAuditRecords
	cAuditDropped
	cHandlerSumUs
	cHandlerCount
	cTCPBatchSum
	cTCPBatchCount
	numCounters
)

// counterSamples names the sample each counter sums (over its labels).
var counterSamples = [numCounters]string{
	"polygraph_collections_total",
	"polygraph_flagged_total",
	"polygraph_rejected_total",
	"polygraph_tcp_scored_total",
	"polygraph_tcp_flagged_total",
	"polygraph_tcp_bad_frames_total",
	"polygraph_audit_records_total",
	"polygraph_audit_dropped_total",
	"polygraph_score_duration_microseconds_sum",
	"polygraph_score_duration_microseconds_count",
	"polygraph_tcp_batch_size_sum",
	"polygraph_tcp_batch_size_count",
}

func seamParseCounters(page string) (c counters) {
	ex := obs.ParseExpositionString(page)
	for i, name := range counterSamples {
		c[i] = ex.Sum(name)
	}
	return c
}

// since returns the growth of every counter from an earlier reading.
func (c counters) since(earlier counters) counters {
	for i := range c {
		c[i] -= earlier[i]
	}
	return c
}

// seamNewBalancer builds a balancer over three admitted members that are
// never dialled: Pick and Finish only touch in-memory state.
func seamNewBalancer() (*balancer, error) {
	members := make([]fleet.Member, 3)
	for i := range members {
		members[i] = fleet.Member{Name: fmt.Sprintf("r%d", i), BaseURL: fmt.Sprintf("http://127.0.0.1:%d", 1+i)}
	}
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1}, members...)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if err := b.Admit(m.Name, ""); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func seamPickFinish(b *balancer) error {
	p, err := b.Pick()
	if err != nil {
		return err
	}
	b.Finish(p, nil)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
