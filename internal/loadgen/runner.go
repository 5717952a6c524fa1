package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
)

// Options configures one harness run.
type Options struct {
	// Scenario scripts the run; required.
	Scenario *Scenario
	// Pool is the pre-generated request stream; required (build with
	// BuildPool against the deployed model's features).
	Pool *Pool
	// Fleet is the target: one member or many behind the balancer.
	// Every HTTP send picks a healthy member, reports the outcome
	// (ejecting on transport failure), and transparently retries on
	// another member when the picked one was down. The cross-check reads
	// every member through Member.FetchStats/FetchMetrics — in-process
	// where the member allows it, which keeps a drained replica's
	// counters readable — sums the per-member deltas before
	// reconciliation and itemizes them in CrossCheck.Replicas.
	Fleet *fleet.Balancer
	// Hook injects callbacks at deterministic points of the run — the
	// fleet drill uses Midpoint to drain a replica mid-phase.
	Hook *PhaseHook
	// TCPAddr, when set, drives the framed TCP listener at this address
	// instead of the HTTP endpoints: workers claim pool indices in
	// blocks of 64 and pipeline each block through one
	// TCPClient.SubmitBatch, which exercises the server-side frame
	// coalescer. The pool must be all binary (json_mix 0, invalid_mix 0)
	// so every entry carries a decoded Payload. Fleet then only serves
	// the cross-check: its members are the HTTP servers whose /metrics
	// carry the listener's counters.
	TCPAddr string
	// SkipCrossCheck disables the /v1/stats + /metrics reconciliation
	// (needed when other traffic shares the target).
	SkipCrossCheck bool
	// ExpectAudit extends the cross-check with the audit-ledger
	// invariant: every scored decision is either durably recorded or
	// counted as sampled/dropped, so the polygraph_audit_records_total +
	// polygraph_audit_dropped_total delta must equal the server's ingest
	// delta. Set it only when the harness itself enabled the ledger on
	// the target (a server without one legitimately reports zeros).
	ExpectAudit bool
}

// PhaseHook injects caller code at deterministic points of a run.
type PhaseHook struct {
	// Start fires synchronously as each phase begins.
	Start func(phase string)
	// Midpoint fires exactly once per fixed-count phase, on the worker
	// that claims the phase's halfway index and before that claim is
	// sent (it never fires for duration-bounded phases). The fleet drill
	// hangs the replica drain here so the failure lands at the same
	// request index every run.
	Midpoint func(phase string)
}

// PhaseLedger is the deterministic per-phase slice of the ledger.
type PhaseLedger struct {
	Name    string `json:"name"`
	Sent    int64  `json:"sent"`
	OK      int64  `json:"ok"`
	Flagged int64  `json:"flagged"`
}

// Ledger is the client-side record of what a run sent and how the server
// answered. Against a deterministic server, a fixed-seed, count-bounded
// scenario reproduces this struct exactly — it deliberately excludes
// anything wall-clock-dependent (latency, throughput), so CI can diff the
// ledgers of two runs byte for byte.
type Ledger struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Sent     int64  `json:"sent"`
	// StreamDigest is the FNV-1a 64 hash of all sent bodies in sequence
	// order (see Pool.StreamDigest).
	StreamDigest string `json:"stream_digest"`
	// ByStatus counts responses by HTTP status code (keys are decimal
	// strings so the JSON form is stable and diffable).
	ByStatus map[string]int64 `json:"by_status"`
	// Flagged counts 2xx decisions the model flagged.
	Flagged int64 `json:"flagged"`
	// Timeouts and ConnErrors taxonomize transport-level failures
	// (normally zero; any non-zero value already fails the CI gate).
	Timeouts   int64 `json:"timeouts"`
	ConnErrors int64 `json:"conn_errors"`
	// AuditRecords and AuditDropped are the server audit-ledger counter
	// deltas over the run, captured only when the harness enabled
	// auditing (Options.ExpectAudit). They are run-level totals, not
	// per-phase: the recorded count is floor(benign/N) + flagged, which
	// is deterministic for a fixed-seed run regardless of request
	// interleaving — per-phase membership would not be.
	AuditRecords int64         `json:"audit_records,omitempty"`
	AuditDropped int64         `json:"audit_dropped,omitempty"`
	Phases       []PhaseLedger `json:"phases"`
}

// Errors counts every response that was not a 2xx plus every transport
// failure — the smoke gate's "zero non-2xx" assertion.
func (l *Ledger) Errors() int64 {
	n := l.Timeouts + l.ConnErrors
	for code, c := range l.ByStatus {
		if !strings.HasPrefix(code, "2") {
			n += c
		}
	}
	return n
}

// PhaseResult is the full (wall-clock-aware) outcome of one phase.
type PhaseResult struct {
	Name        string           `json:"name"`
	Sent        int64            `json:"sent"`
	OK          int64            `json:"ok"`
	Flagged     int64            `json:"flagged"`
	ByStatus    map[string]int64 `json:"by_status,omitempty"`
	Timeouts    int64            `json:"timeouts,omitempty"`
	ConnErrors  int64            `json:"conn_errors,omitempty"`
	Elapsed     time.Duration    `json:"elapsed_ns"`
	AchievedRPS float64          `json:"achieved_rps"`
	// Latency holds per-endpoint histogram summaries.
	Latency map[string]obs.Quantiles `json:"latency"`
	// Truncated marks a phase cut short by the scenario budget.
	Truncated bool `json:"truncated,omitempty"`
}

// ReplicaDelta is one replica's contribution to a fleet run's counters.
type ReplicaDelta struct {
	Name          string `json:"name"`
	ReceivedDelta int64  `json:"received_delta"`
	FlaggedDelta  int64  `json:"flagged_delta"`
	RejectedDelta int64  `json:"rejected_delta"`
}

// CrossCheck reconciles the client-side ledger against the server's own
// /v1/stats counters and the /metrics exposition — the "do the two sides
// of the wire agree" audit. Against a fleet, the server-side deltas are
// the sums over every replica (including killed ones, whose counters
// the harness reads in-process), and Replicas itemizes the split.
type CrossCheck struct {
	OK bool `json:"ok"`
	// Details lists every mismatch in human terms (empty when OK).
	Details []string `json:"details,omitempty"`

	ClientOK            int64 `json:"client_ok"`
	ServerReceivedDelta int64 `json:"server_received_delta"`
	ClientErrors        int64 `json:"client_errors"`
	ServerRejectedDelta int64 `json:"server_rejected_delta"`
	ClientFlagged       int64 `json:"client_flagged"`
	ServerFlaggedDelta  int64 `json:"server_flagged_delta"`
	// Replicas itemizes the per-replica deltas behind the sums above
	// (fleet runs only).
	Replicas []ReplicaDelta `json:"replicas,omitempty"`
	// Retries counts requests transparently re-routed to another replica
	// after a transport failure. Retries live here, not in the Ledger:
	// they depend on failure timing, and the Ledger must stay
	// byte-identical across runs.
	Retries int64 `json:"retries,omitempty"`
	// MetricsReceived is polygraph_collections_total scraped from
	// /metrics after the run, cross-checking the exposition against the
	// JSON stats view.
	MetricsReceived float64 `json:"metrics_received"`
	// AuditRecordsDelta and AuditDroppedDelta are the audit-ledger
	// counter deltas over the run; with Options.ExpectAudit their sum
	// must equal ServerReceivedDelta (every scored decision recorded or
	// sampled out).
	AuditRecordsDelta int64 `json:"audit_records_delta,omitempty"`
	AuditDroppedDelta int64 `json:"audit_dropped_delta,omitempty"`
	// ServerP99Us maps endpoint → the upper bound (µs) of the bucket
	// holding the server-side p99, computed from the delta of the
	// polygraph_score_duration_microseconds exposition over the run.
	ServerP99Us map[string]float64 `json:"server_p99_us,omitempty"`
	// LatencyNotes carries informational latency-reconciliation detail
	// that does not flip OK (e.g. client-side queuing under burst
	// concurrency inflating the client p99 above the server's).
	LatencyNotes []string `json:"latency_notes,omitempty"`
}

// Report is the full outcome of a run.
type Report struct {
	Scenario string        `json:"scenario"`
	Seed     uint64        `json:"seed"`
	Ledger   Ledger        `json:"ledger"`
	Phases   []PhaseResult `json:"phases"`
	// Overall aggregates latency across all phases per endpoint.
	Overall map[string]obs.Quantiles `json:"overall"`
	Elapsed time.Duration            `json:"elapsed_ns"`
	// BudgetExceeded marks a run aborted by the scenario's wall budget.
	BudgetExceeded bool        `json:"budget_exceeded,omitempty"`
	CrossCheck     *CrossCheck `json:"cross_check,omitempty"`
}

// P99 returns the worst per-endpoint p99 across the whole run — the
// number the CI gate compares against its ceiling.
func (r *Report) P99() time.Duration {
	var worst time.Duration
	for _, q := range r.Overall {
		if q.P99 > worst {
			worst = q.P99
		}
	}
	return worst
}

// phaseState accumulates one phase's counters; statuses live behind a
// mutex (cheap next to a round trip), latency in atomic histograms.
type phaseState struct {
	sent    atomic.Int64
	ok      atomic.Int64
	flagged atomic.Int64
	timeout atomic.Int64
	connErr atomic.Int64
	retries atomic.Int64

	mu       sync.Mutex
	byStatus map[int]int64

	// hists are this phase's latency series and overall the whole run's,
	// both keyed by transport endpoint.
	hists, overall map[string]*obs.Hist
}

func newHists(endpoints []string) map[string]*obs.Hist {
	m := make(map[string]*obs.Hist, len(endpoints))
	for _, ep := range endpoints {
		m[ep] = new(obs.Hist)
	}
	return m
}

func (ps *phaseState) countStatus(code int) {
	ps.mu.Lock()
	ps.byStatus[code]++
	ps.mu.Unlock()
}

func (ps *phaseState) observe(endpoint string, d time.Duration) {
	ps.hists[endpoint].Record(d)
	ps.overall[endpoint].Record(d)
}

// countFailure taxonomizes n requests lost to one transport error.
func (ps *phaseState) countFailure(err error, n int64) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		ps.timeout.Add(n)
	} else {
		ps.connErr.Add(n)
	}
}

// transport is everything that differs between the HTTP endpoints and
// the framed TCP listener. A run is blocks × send function: workers
// claim the sequence counter block indices at a time and hand each
// claim to their own send function.
type transport struct {
	// block is how many sequence indices a worker claims at once.
	block int64
	// endpoints key the client latency histograms.
	endpoints []string
	// scored, flagged and rejected name the server counter families the
	// ledger's 2xx, flagged and error replies reconcile against.
	scored, flagged, rejected string
	// worker returns one worker's send function, which puts pool entries
	// [start, start+n) on the wire and tallies the replies into ps, and
	// the cleanup to run when the worker's phase ends.
	worker func(ctx context.Context, ps *phaseState) (send func(start, n int64), done func())
}

// EndpointTCPLabel keys TCP-mode latency histograms in reports. The
// recorded unit is one SubmitBatch round trip (a whole pipelined
// block), not one frame.
const EndpointTCPLabel = "tcp"

// tcpBlock is the frames pipelined per SubmitBatch in TCP mode: enough
// that the server-side coalescer sees genuinely batched wire traffic.
const tcpBlock = 64

// httpTransport posts one pool entry per claim through the balancer.
func httpTransport(opts *Options) transport {
	client := newClient(peakConcurrency(opts.Scenario))
	// Every failed attempt ejects its member, so a request gets as many
	// attempts as there are members and a one-member target no retry.
	attempts := len(opts.Fleet.Members())
	return transport{
		block:     1,
		endpoints: []string{EndpointBinary, EndpointJSON},
		scored:    obs.FamCollections.Name,
		flagged:   obs.FamFlagged.Name,
		rejected:  obs.FamRejected.Name,
		worker: func(ctx context.Context, ps *phaseState) (func(start, n int64), func()) {
			return func(start, _ int64) { sendOne(ctx, client, opts.Fleet, attempts, opts.Pool.At(start), ps) }, func() {}
		},
	}
}

// tcpTransport pipelines each claimed block through one
// TCPClient.SubmitBatch. The ledger keeps its byte-identity contract —
// ok replies count as status "200", error replies as "400", and the
// stream digest hashes the identical binary bodies the HTTP transport
// would have posted. Each worker keeps one connection and redials after
// a transport failure; a failed block is counted (sent + per-frame
// transport errors) but never resent, which keeps client and server
// frame counts reconcilable.
func tcpTransport(opts *Options) (transport, error) {
	for i, r := range opts.Pool.Requests {
		if r.Payload == nil {
			return transport{}, fmt.Errorf(
				"loadgen: TCP mode needs an all-binary pool but entry %d has no payload (set json_mix and invalid_mix to 0)", i)
		}
	}
	return transport{
		block:     tcpBlock,
		endpoints: []string{EndpointTCPLabel},
		scored:    obs.FamTCPScored.Name,
		flagged:   obs.FamTCPFlagged.Name,
		rejected:  obs.FamTCPBadFrames.Name,
		worker: func(_ context.Context, ps *phaseState) (func(start, n int64), func()) {
			var client *collect.TCPClient
			send := func(start, n int64) {
				if client == nil {
					c, err := collect.DialTCP(opts.TCPAddr, 0)
					if err != nil {
						ps.sent.Add(n)
						ps.connErr.Add(n)
						return
					}
					client = c
				}
				if !sendTCPBlock(client, opts.Pool, start, n, ps) {
					client.Close()
					client = nil
				}
			}
			return send, func() {
				if client != nil {
					client.Close()
				}
			}
		},
	}, nil
}

// Run drives the scenario against the target and assembles the report.
func Run(ctx context.Context, opts Options) (*Report, error) {
	sc := opts.Scenario
	if sc == nil {
		return nil, fmt.Errorf("loadgen: Options.Scenario is required")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.Pool == nil || len(opts.Pool.Requests) == 0 {
		return nil, fmt.Errorf("loadgen: Options.Pool is required")
	}
	if opts.TCPAddr == "" {
		if opts.Fleet == nil {
			return nil, fmt.Errorf("loadgen: Options.Fleet is required")
		}
		return run(ctx, opts, httpTransport(&opts))
	}
	if opts.Fleet == nil && !opts.SkipCrossCheck {
		return nil, fmt.Errorf("loadgen: TCP mode needs Options.Fleet for the /metrics cross-check (or SkipCrossCheck)")
	}
	tr, err := tcpTransport(&opts)
	if err != nil {
		return nil, err
	}
	return run(ctx, opts, tr)
}

// run is the one phase loop: scrape, drive every phase through tr,
// scrape again, reconcile.
func run(ctx context.Context, opts Options, tr transport) (*Report, error) {
	sc := opts.Scenario
	if sc.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sc.Budget))
		defer cancel()
	}
	var pre []page
	if !opts.SkipCrossCheck {
		pre = scrape(ctx, opts.Fleet)
	}

	report := &Report{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Ledger: Ledger{
			Scenario: sc.Name,
			Seed:     sc.Seed,
			ByStatus: map[string]int64{},
		},
	}
	overall := newHists(tr.endpoints)

	start := time.Now()
	var seq atomic.Int64 // global sequence index into the cycled pool
	var retries int64
	for _, phase := range sc.Phases {
		if ctx.Err() != nil {
			report.BudgetExceeded = true
			break
		}
		if opts.Hook != nil && opts.Hook.Start != nil {
			opts.Hook.Start(phase.Name)
		}
		ps := &phaseState{byStatus: map[int]int64{}, hists: newHists(tr.endpoints), overall: overall}
		truncated := runPhase(ctx, phase, opts.Hook, tr, &seq, ps)

		pr := PhaseResult{
			Name:       phase.Name,
			Sent:       ps.sent.Load(),
			OK:         ps.ok.Load(),
			Flagged:    ps.flagged.Load(),
			Timeouts:   ps.timeout.Load(),
			ConnErrors: ps.connErr.Load(),
			ByStatus:   map[string]int64{},
			Latency:    map[string]obs.Quantiles{},
			Truncated:  truncated,
		}
		for code, c := range ps.byStatus {
			key := strconv.Itoa(code)
			pr.ByStatus[key] = c
			report.Ledger.ByStatus[key] += c
		}
		for path, h := range ps.hists {
			if h.Count() > 0 {
				pr.Latency[path] = h.Summary()
			}
		}
		pr.Elapsed = time.Since(start) - sumElapsed(report.Phases)
		if pr.Elapsed > 0 {
			pr.AchievedRPS = float64(pr.Sent) / pr.Elapsed.Seconds()
		}
		report.Phases = append(report.Phases, pr)
		report.Ledger.Sent += pr.Sent
		report.Ledger.Flagged += pr.Flagged
		report.Ledger.Timeouts += pr.Timeouts
		report.Ledger.ConnErrors += pr.ConnErrors
		report.Ledger.Phases = append(report.Ledger.Phases, PhaseLedger{
			Name:    phase.Name,
			Sent:    pr.Sent,
			OK:      pr.OK,
			Flagged: pr.Flagged,
		})
		retries += ps.retries.Load()
		if truncated {
			report.BudgetExceeded = true
		}
	}
	report.Elapsed = time.Since(start)
	report.Ledger.StreamDigest = opts.Pool.StreamDigest(report.Ledger.Sent)
	report.Overall = map[string]obs.Quantiles{}
	for path, h := range overall {
		if h.Count() > 0 {
			report.Overall[path] = h.Summary()
		}
	}

	if !opts.SkipCrossCheck {
		// The cross-check runs on a background-derived context so a budget
		// expiry mid-run doesn't block the audit of what did complete.
		cctx := ctx
		if ctx.Err() != nil {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
		}
		crossCheck(cctx, &opts, tr, pre, report, retries)
	}
	return report, nil
}

func sumElapsed(phases []PhaseResult) time.Duration {
	var d time.Duration
	for _, p := range phases {
		d += p.Elapsed
	}
	return d
}

func peakConcurrency(sc *Scenario) int {
	peak := 1
	for _, p := range sc.Phases {
		if p.Concurrency > peak {
			peak = p.Concurrency
		}
	}
	return peak
}

func newClient(concurrency int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
		IdleConnTimeout:     30 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// claim takes the phase's next block off the shared sequence counter
// and returns it as [start, start+n), giving back whatever reaches past
// the phase's fixed count (limit; 0 = unbounded) so the counter ends
// the phase at exactly base+limit. n == 0 means the count is spent. The
// arithmetic is all atomic adds, so concurrent over-claims at the
// boundary cancel out; at block 1 it is the classic draw-and-give-back.
func claim(seq *atomic.Int64, base, limit, block int64) (start, n int64) {
	start = seq.Add(block) - block
	n = block
	if limit > 0 {
		if remain := limit - (start - base); remain < n {
			n = max(remain, 0)
			seq.Add(n - block)
		}
	}
	return start, n
}

// runPhase executes one phase's workers. Workers claim global sequence
// indices in blocks of tr.block, so the entries sent for a claim — and
// therefore every reply — are a pure function of (scenario, seed)
// regardless of which worker sends which block or when. Returns whether
// the phase was truncated by the context (budget).
func runPhase(ctx context.Context, phase Phase, hook *PhaseHook, tr transport, seq *atomic.Int64, ps *phaseState) bool {
	base := seq.Load()
	mid := int64(-1) // a duration-bounded phase has no midpoint
	if hook != nil && hook.Midpoint != nil && phase.Requests > 0 {
		mid = base + int64(phase.Requests/2)
	}
	phaseStart := time.Now()
	var truncated atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < max(phase.Concurrency, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send, done := tr.worker(ctx, ps)
			defer done()
			for {
				if ctx.Err() != nil {
					truncated.Store(true)
					return
				}
				start, n := claim(seq, base, int64(phase.Requests), tr.block)
				if n == 0 {
					return
				}
				if phase.Requests == 0 && time.Since(phaseStart) >= time.Duration(phase.Duration) {
					seq.Add(-n)
					return
				}
				// Claims partition the phase, so exactly one holds the
				// halfway index: the hook fires once, on that worker, before
				// the block goes out — the injected event (the fleet drill's
				// replica drain) lands at the same request index every run.
				if start <= mid && mid < start+n {
					hook.Midpoint(phase.Name)
				}
				if phase.RPS > 0 {
					due := phaseStart.Add(time.Duration(float64(start-base) / phase.RPS * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							truncated.Store(true)
							seq.Add(-n)
							return
						}
					}
				}
				send(start, n)
			}
		}()
	}
	wg.Wait()
	return truncated.Load()
}

// decisionFrame decodes only what the harness needs from a Decision.
type decisionFrame struct {
	Flagged bool `json:"flagged"`
}

// sendOne posts one pool request through the balancer, transparently
// retrying on another member when the picked one was unreachable — the
// failure is reported (ejecting the dead replica) and the retry
// counted, but the ledger records only the final outcome, which is what
// keeps a kill drill at zero client-visible errors. Timeouts are never
// retried: a timed-out request may have been scored by the slow
// replica, and re-sending it would double-count it on another, breaking
// the client-vs-sum-of-replicas reconciliation.
func sendOne(ctx context.Context, client *http.Client, b *fleet.Balancer, attempts int, r *Request, ps *phaseState) {
	ps.sent.Add(1)
	var lastErr error
	for ; attempts > 0; attempts-- {
		picked, err := b.Pick()
		if err != nil {
			lastErr = err
			break
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, picked.BaseURL()+r.Path, bytes.NewReader(r.Body))
		if err != nil {
			b.Finish(picked, nil)
			lastErr = err
			break
		}
		req.Header.Set("Content-Type", r.ContentType)
		start := time.Now()
		resp, err := client.Do(req)
		elapsed := time.Since(start)
		if err != nil {
			lastErr = err
			b.Finish(picked, &collect.ClientError{Kind: collect.FailDown, Op: "submit", Err: err})
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() || attempts == 1 {
				break
			}
			b.CountRetry()
			ps.retries.Add(1)
			continue
		}
		b.Finish(picked, nil)
		defer resp.Body.Close()
		ps.observe(r.Path, elapsed)
		ps.countStatus(resp.StatusCode)
		if resp.StatusCode/100 == 2 {
			ps.ok.Add(1)
			var d decisionFrame
			if err := json.NewDecoder(resp.Body).Decode(&d); err == nil && d.Flagged {
				ps.flagged.Add(1)
			}
		}
		return
	}
	ps.countFailure(lastErr, 1)
}

// sendTCPBlock pipelines one claimed block through SubmitBatch and
// tallies the replies. It reports false when the connection failed and
// should be redialed.
func sendTCPBlock(client *collect.TCPClient, pool *Pool, start, size int64, ps *phaseState) bool {
	payloads := make([]*fingerprint.Payload, size)
	for k := int64(0); k < size; k++ {
		payloads[k] = pool.At(start + k).Payload
	}
	ps.sent.Add(size)
	t0 := time.Now()
	decs, err := client.SubmitBatch(payloads)
	elapsed := time.Since(t0)
	if err != nil {
		ps.countFailure(err, size)
		return false
	}
	// One histogram sample per pipelined block: the unit of latency in
	// TCP mode is the batch round trip.
	ps.observe(EndpointTCPLabel, elapsed)
	for _, d := range decs {
		if d.Err {
			ps.countStatus(400)
			continue
		}
		ps.ok.Add(1)
		ps.countStatus(200)
		if d.Flagged {
			ps.flagged.Add(1)
		}
	}
	return true
}

// page is one member's /metrics exposition at a checkpoint.
type page struct {
	ex  *obs.Exposition
	err error
}

// scrape fetches every member's exposition once; every reconciliation
// pass shares the parsed pages, so a fleet of N costs N scrapes per
// checkpoint. Members resolve in-process where they can, which keeps a
// drained replica's counters readable.
func scrape(ctx context.Context, b *fleet.Balancer) []page {
	members := b.Members()
	pages := make([]page, len(members))
	for i, m := range members {
		text, err := m.FetchMetrics(ctx, b.Client())
		pages[i] = page{ex: obs.ParseExpositionString(text), err: err}
	}
	return pages
}

// crossCheck reconciles the client ledger against the target's own
// counters and stores the verdict in report.CrossCheck. It compares
// deltas (post − pre) of the transport's counter families, so a live
// daemon with prior traffic still reconciles as long as nothing else
// hits it during the run. Each member's delta is computed individually
// (itemized in Replicas when there are several) and the reconciliation
// runs against the sums — the client-vs-sum-of-replicas audit: no
// request may be double-scored (a retry landing twice) or lost (a
// "2xx" the fleet never counted).
func crossCheck(ctx context.Context, opts *Options, tr transport, pre []page, report *Report, retries int64) {
	cc := &CrossCheck{Retries: retries}
	report.CrossCheck = cc
	ledger := &report.Ledger
	members := opts.Fleet.Members()
	post := scrape(ctx, opts.Fleet)
	var scored, flagged, rejected float64
	for i, m := range members {
		for _, p := range []page{pre[i], post[i]} {
			if p.err != nil {
				cc.Details = append(cc.Details, fmt.Sprintf("%s: scrape /metrics: %v", m.Name, p.err))
				return
			}
		}
		if !post[i].ex.Has(tr.scored) {
			cc.Details = append(cc.Details, fmt.Sprintf("%s: /metrics does not export %s (is the listener attached?)", m.Name, tr.scored))
			return
		}
		delta := func(family string) float64 { return post[i].ex.Sum(family) - pre[i].ex.Sum(family) }
		if len(members) > 1 {
			cc.Replicas = append(cc.Replicas, ReplicaDelta{
				Name:          m.Name,
				ReceivedDelta: int64(delta(tr.scored)),
				FlaggedDelta:  int64(delta(tr.flagged)),
				RejectedDelta: int64(delta(tr.rejected)),
			})
		}
		scored += delta(tr.scored)
		flagged += delta(tr.flagged)
		rejected += delta(tr.rejected)
		cc.MetricsReceived += post[i].ex.Sum(tr.scored)
		// The JSON stats view and the exposition read the same counters.
		st, err := m.FetchStats(ctx, opts.Fleet.Client())
		if err != nil {
			cc.Details = append(cc.Details, fmt.Sprintf("%s: /v1/stats: %v", m.Name, err))
			return
		}
		if got := post[i].ex.Sum(obs.FamCollections.Name); int64(got) != st.Received {
			cc.Details = append(cc.Details, fmt.Sprintf(
				"%s: /metrics %s %v disagrees with /v1/stats received %d", m.Name, obs.FamCollections.Name, got, st.Received))
		}
	}

	cc.ClientOK = ledger.ByStatus["200"]
	cc.ServerReceivedDelta = int64(scored)
	cc.ClientFlagged = ledger.Flagged
	cc.ServerFlaggedDelta = int64(flagged)
	cc.ServerRejectedDelta = int64(rejected)
	for code, c := range ledger.ByStatus {
		if !strings.HasPrefix(code, "2") {
			cc.ClientErrors += c
		}
	}
	if cc.ClientOK != cc.ServerReceivedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client saw %d 2xx but server %s moved by %d", cc.ClientOK, tr.scored, cc.ServerReceivedDelta))
	}
	if cc.ClientFlagged != cc.ServerFlaggedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client decoded %d flagged decisions but server %s moved by %d", cc.ClientFlagged, tr.flagged, cc.ServerFlaggedDelta))
	}
	// Rejected reconciles only when every client-side error was a
	// server-side reject (429s from a rate limiter and transport errors
	// are not counted by the server).
	if ledger.Timeouts == 0 && ledger.ConnErrors == 0 && ledger.ByStatus["429"] == 0 &&
		cc.ClientErrors != cc.ServerRejectedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client saw %d error responses but server %s moved by %d", cc.ClientErrors, tr.rejected, cc.ServerRejectedDelta))
	}
	reconcileLatency(pre, post, report)
	if opts.ExpectAudit {
		reconcileAudit(pre, post, report)
	}
	cc.OK = len(cc.Details) == 0
}

// reconcileAudit enforces the audit accounting invariant on targets
// whose ledgers this harness enabled: recorded + dropped must equal the
// number of decisions the servers scored — no decision silently escapes
// a ledger. Against a fleet the deltas are summed over every replica.
// The deltas also land in the run ledger (run-level totals stay
// deterministic for a fixed seed; see Ledger.AuditRecords).
func reconcileAudit(pre, post []page, report *Report) {
	cc := report.CrossCheck
	var records, dropped float64
	for i := range pre {
		for _, family := range []string{obs.FamAuditRecords.Name, obs.FamAuditDropped.Name} {
			if !post[i].ex.Has(family) {
				cc.Details = append(cc.Details, "/metrics does not export "+family)
				return
			}
		}
		records += post[i].ex.Sum(obs.FamAuditRecords.Name) - pre[i].ex.Sum(obs.FamAuditRecords.Name)
		dropped += post[i].ex.Sum(obs.FamAuditDropped.Name) - pre[i].ex.Sum(obs.FamAuditDropped.Name)
	}
	cc.AuditRecordsDelta = int64(records)
	cc.AuditDroppedDelta = int64(dropped)
	report.Ledger.AuditRecords = cc.AuditRecordsDelta
	report.Ledger.AuditDropped = cc.AuditDroppedDelta
	if sum := cc.AuditRecordsDelta + cc.AuditDroppedDelta; sum != cc.ServerReceivedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"audit ledger accounted for %d decisions (%d recorded + %d dropped) but server scored %d",
			sum, cc.AuditRecordsDelta, cc.AuditDroppedDelta, cc.ServerReceivedDelta))
	}
	if cc.AuditRecordsDelta == 0 && cc.ServerReceivedDelta > 0 {
		cc.Details = append(cc.Details, "audit expected but "+obs.FamAuditRecords.Name+" did not move")
	}
}

// reconcileLatency compares the run's client-observed p99 per endpoint
// against the servers' own duration histograms (delta of cumulative
// buckets over the run, summed across every source — for a fleet, the
// merged histogram is exact because buckets are counters). Only the
// impossible direction fails the cross-check: the server-side handler
// latency exceeding what any client observed by more than one
// power-of-two bucket means the two histograms cannot be describing the
// same requests. The common benign skew — client p99 far above server
// p99 because of client-side queuing under burst concurrency — is
// recorded as a note.
func reconcileLatency(pre, post []page, report *Report) {
	cc := report.CrossCheck
	// Per-endpoint delta buckets summed over all sources.
	sum := map[string][]uint64{}
	exported := false
	for i := range pre {
		postHist := post[i].ex.HistogramBuckets(obs.FamScoreDuration.Name, "endpoint")
		if len(postHist) == 0 {
			continue
		}
		exported = true
		preHist := pre[i].ex.HistogramBuckets(obs.FamScoreDuration.Name, "endpoint")
		for ep, after := range postHist {
			if len(after) != obs.NumBuckets {
				continue
			}
			acc := sum[ep]
			if acc == nil {
				acc = make([]uint64, len(after))
				sum[ep] = acc
			}
			before := preHist[ep]
			for j, c := range after {
				d := c
				if j < len(before) && before[j] <= c {
					d = c - before[j]
				}
				acc[j] += d
			}
		}
	}
	if !exported {
		cc.LatencyNotes = append(cc.LatencyNotes,
			"server does not export "+obs.FamScoreDuration.Name+"; latency reconciliation skipped")
		return
	}
	endpoints := make([]string, 0, len(report.Overall))
	for ep := range report.Overall {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		clientQ := report.Overall[ep]
		delta, ok := sum[ep]
		if !ok {
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: no comparable server histogram series", ep))
			continue
		}
		serverIdx, total := obs.QuantileBucket(delta, 0.99)
		if serverIdx < 0 {
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: server histogram did not move during the run", ep))
			continue
		}
		serverP99 := obs.BucketUpperMicros(serverIdx)
		if math.IsInf(serverP99, 1) {
			// Keep the JSON report marshalable: report the last finite
			// boundary instead of +Inf.
			serverP99 = obs.BucketUpperMicros(serverIdx - 1)
		}
		if cc.ServerP99Us == nil {
			cc.ServerP99Us = map[string]float64{}
		}
		cc.ServerP99Us[ep] = serverP99
		clientIdx := obs.BucketIndex(float64(clientQ.P99) / float64(time.Microsecond))
		switch {
		case serverIdx > clientIdx+1:
			cc.Details = append(cc.Details, fmt.Sprintf(
				"endpoint %s: server p99 bucket %d (≤%gµs over %d requests) exceeds client p99 bucket %d (%v) by more than one bucket",
				ep, serverIdx, serverP99, total, clientIdx, clientQ.P99))
		case clientIdx > serverIdx+1:
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: client p99 %v (bucket %d) above server p99 ≤%gµs (bucket %d) — client-side queuing",
				ep, clientQ.P99, clientIdx, serverP99, serverIdx))
		default:
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: client p99 %v and server p99 ≤%gµs agree within one bucket",
				ep, clientQ.P99, serverP99))
		}
	}
}

// FormatReport renders the human-readable per-phase table.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d): %d requests in %v",
		r.Scenario, r.Seed, r.Ledger.Sent, r.Elapsed.Round(time.Millisecond))
	if r.BudgetExceeded {
		b.WriteString("  [BUDGET EXCEEDED]")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %9s  %-16s %9s %9s %9s %9s\n",
		"phase", "sent", "ok", "flagged", "rps", "endpoint", "p50", "p95", "p99", "max")
	for _, p := range r.Phases {
		first := true
		paths := make([]string, 0, len(p.Latency))
		for path := range p.Latency {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			q := p.Latency[path]
			name, sent, ok, flagged, rps := "", "", "", "", ""
			if first {
				name = p.Name
				sent = strconv.FormatInt(p.Sent, 10)
				ok = strconv.FormatInt(p.OK, 10)
				flagged = strconv.FormatInt(p.Flagged, 10)
				rps = strconv.FormatFloat(p.AchievedRPS, 'f', 0, 64)
				first = false
			}
			fmt.Fprintf(&b, "%-10s %8s %8s %8s %9s  %-16s %9s %9s %9s %9s\n",
				name, sent, ok, flagged, rps, path,
				fmtDur(q.P50), fmtDur(q.P95), fmtDur(q.P99), fmtDur(q.Max))
		}
		if first { // phase recorded no latency (all transport errors)
			fmt.Fprintf(&b, "%-10s %8d %8d %8d %9.0f  (no responses)\n",
				p.Name, p.Sent, p.OK, p.Flagged, p.AchievedRPS)
		}
	}
	fmt.Fprintf(&b, "errors: %d (timeouts %d, conn %d)  stream digest: %s\n",
		r.Ledger.Errors(), r.Ledger.Timeouts, r.Ledger.ConnErrors, r.Ledger.StreamDigest)
	if cc := r.CrossCheck; cc != nil {
		if cc.OK {
			fmt.Fprintf(&b, "cross-check: OK (server ingest delta %d == client 2xx %d, flagged %d)\n",
				cc.ServerReceivedDelta, cc.ClientOK, cc.ServerFlaggedDelta)
		} else {
			b.WriteString("cross-check: FAILED\n")
			for _, d := range cc.Details {
				fmt.Fprintf(&b, "  - %s\n", d)
			}
		}
		if len(cc.Replicas) > 0 {
			for _, rd := range cc.Replicas {
				fmt.Fprintf(&b, "  replica %-8s received %6d  flagged %6d  rejected %6d\n",
					rd.Name, rd.ReceivedDelta, rd.FlaggedDelta, rd.RejectedDelta)
			}
			fmt.Fprintf(&b, "  fleet retries: %d (rerouted after transport failure; not client-visible)\n", cc.Retries)
		}
		for _, n := range cc.LatencyNotes {
			fmt.Fprintf(&b, "  latency: %s\n", n)
		}
		if cc.AuditRecordsDelta+cc.AuditDroppedDelta > 0 {
			fmt.Fprintf(&b, "  audit: %d decision(s) recorded, %d sampled out (ledger accounts for every scored decision)\n",
				cc.AuditRecordsDelta, cc.AuditDroppedDelta)
		}
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
