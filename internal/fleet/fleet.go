// Package fleet is the multi-replica serving tier of Browser Polygraph:
// a client-side load balancer with health-check-driven ejection and a
// control plane that distributes one trained model to every replica and
// hash-verifies the deployment before admitting a replica to rotation.
//
// The design splits three concerns:
//
//   - Member: how to reach one replica (base URL, plus optional
//     in-process overrides for probing and stat collection, which keep a
//     killed replica's counters readable for reconciliation).
//   - Balancer: who receives the next request. Power-of-two-choices over
//     the healthy set by in-flight count, with immediate ejection on
//     transport failure (collect.IsDown) and probe-driven re-admission.
//   - Controller: which model the fleet serves. Distribute serializes
//     the model once, pushes it to every replica's admin endpoint, and
//     admits only replicas that read back the identical core.Model.Hash —
//     the invariant that keeps fleet verdicts auditable (every audit
//     record's model hash matches every other replica's).
//
// The admission state machine:
//
//	Pending ──hash verified──▶ Healthy ──down/probe-fail/hash-drift──▶ Ejected
//	   │                          ▲                                       │
//	   └──hash mismatch──▶ Refused│◀───── recoverThreshold probes ────────┘
//	                              └─────── (hash re-verified) ────────────┘
//
// Refused is terminal until a new Distribute run re-verifies the
// replica: a mismatched model is an operator error, not a transient.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/obs"
	"polygraph/internal/rng"
)

// AdminModelPath is the replica admin endpoint: GET returns the deployed
// ModelInfo, POST swaps in the model serialized in the request body.
// internal/serving mounts it next to the collect endpoints.
const AdminModelPath = "/admin/model"

// ModelInfo is the admin view of a replica's deployed model — what the
// controller reads back to verify a distribution.
type ModelInfo struct {
	Hash     string  `json:"hash"`
	Features int     `json:"features"`
	Clusters int     `json:"clusters"`
	Accuracy float64 `json:"accuracy"`
}

// State is a member's position in the admission state machine.
type State int32

const (
	// StatePending marks a registered replica not yet hash-verified.
	StatePending State = iota
	// StateHealthy marks a replica in rotation.
	StateHealthy
	// StateEjected marks a replica out of rotation after failures; the
	// health loop re-admits it when probes succeed and the hash matches.
	StateEjected
	// StateRefused marks a replica whose model hash disagreed with the
	// fleet's; only a new Distribute run can admit it.
	StateRefused
)

// States lists every state in declaration order (metrics emit all of
// them, zeros included, so dashboards can rate() from first scrape).
var States = [...]State{StatePending, StateHealthy, StateEjected, StateRefused}

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateHealthy:
		return "healthy"
	case StateEjected:
		return "ejected"
	case StateRefused:
		return "refused"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Member describes how to reach one replica. The zero overrides make a
// purely HTTP member; in-process replicas (internal/serving) supply
// Probe/Stats/Metrics functions so their counters stay readable for
// reconciliation even after their listener is killed.
type Member struct {
	// Name identifies the replica in logs, metrics, and reports.
	Name string
	// BaseURL is the replica's serving root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Probe overrides the HTTP health+hash probe; it returns the
	// replica's deployed model hash ("" when unknown).
	Probe func(ctx context.Context) (modelHash string, err error)
	// Stats overrides the HTTP /v1/stats fetch.
	Stats func(ctx context.Context) (collect.Stats, error)
	// Metrics overrides the HTTP /metrics fetch (full exposition text).
	Metrics func(ctx context.Context) (string, error)
}

// FetchStats resolves the member's /v1/stats snapshot through the
// override or HTTP.
func (m Member) FetchStats(ctx context.Context, client *http.Client) (collect.Stats, error) {
	if m.Stats != nil {
		return m.Stats(ctx)
	}
	c := collect.Client{BaseURL: m.BaseURL, HTTPClient: client}
	return c.FetchStats(ctx)
}

// FetchMetrics resolves the member's /metrics exposition through the
// override or HTTP.
func (m Member) FetchMetrics(ctx context.Context, client *http.Client) (string, error) {
	if m.Metrics != nil {
		return m.Metrics(ctx)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fleet: %s /metrics returned %d", m.Name, resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return string(b), err
}

// memberState is one row of the shared health table. The hot fields
// (state, inflight, fails) are atomics so Pick/Finish never take a lock;
// hash is read/written under mu because strings cannot be stored
// atomically without tearing the (pointer, length) pair apart from the
// state it belongs with.
type memberState struct {
	m Member

	state    atomic.Int32
	inflight atomic.Int64
	// probeFails and probeOKs count consecutive probe outcomes; they
	// drive the eject/re-admit thresholds.
	probeFails atomic.Int64
	probeOKs   atomic.Int64

	mu   sync.Mutex
	hash string // last verified/probed model hash
}

func (ms *memberState) getState() State  { return State(ms.state.Load()) }
func (ms *memberState) setState(s State) { ms.state.Store(int32(s)) }
func (ms *memberState) setHash(h string) { ms.mu.Lock(); ms.hash = h; ms.mu.Unlock() }
func (ms *memberState) getHash() string  { ms.mu.Lock(); defer ms.mu.Unlock(); return ms.hash }

// MemberStatus is a torn-read-safe snapshot of one health-table row.
type MemberStatus struct {
	Name      string `json:"name"`
	BaseURL   string `json:"base_url"`
	State     string `json:"state"`
	ModelHash string `json:"model_hash,omitempty"`
	Inflight  int64  `json:"inflight,omitempty"`
	// ProbeFails is the current consecutive probe-failure streak.
	ProbeFails int64 `json:"probe_fails,omitempty"`
}

// Config parameterizes a Balancer.
type Config struct {
	// Seed drives the deterministic pick-jitter stream.
	Seed uint64
	// ExpectHash, when set, is the model hash every replica must report
	// to be admitted or re-admitted; a probed hash that disagrees ejects
	// the replica (hash drift).
	ExpectHash string
	// Logger receives admission/ejection events; nil discards.
	Logger *slog.Logger
}

// The health loop's thresholds: failThreshold consecutive probe failures
// eject a healthy replica (a transport failure reported through Finish
// ejects at once), recoverThreshold consecutive probe successes with
// hash agreement re-admit an ejected one, and each probe has
// probeTimeout.
const (
	failThreshold    = 2
	recoverThreshold = 2
	probeTimeout     = 2 * time.Second
)

// ErrNoHealthy is returned by Pick when the rotation is empty.
var ErrNoHealthy = errors.New("fleet: no healthy replicas in rotation")

// Balancer routes requests across the fleet's healthy replicas by
// power-of-two-choices on in-flight counts. All methods are safe for
// concurrent use.
type Balancer struct {
	cfg     Config
	client  *http.Client
	logger  *slog.Logger
	members []*memberState
	byName  map[string]*memberState

	// pickMu guards the jitter stream; everything else on the pick path
	// is atomic.
	pickMu sync.Mutex
	rng    *rng.PCG
	// pickGate lets Quiesce flush in-flight Picks: Pick holds the read
	// side from healthy-set snapshot through the inflight increment, so
	// after Quiesce cycles the write side, no Pick can still act on a
	// pre-ejection view of the member being drained.
	pickGate sync.RWMutex

	picks        atomic.Int64
	retries      atomic.Int64
	ejections    atomic.Int64
	readmissions atomic.Int64

	// sloRollup, when attached, adds the fleet-level burn-rate families
	// to WriteMetrics.
	sloRollup atomic.Pointer[SLORollup]
}

// NewBalancer registers the members (all Pending until admitted).
func NewBalancer(cfg Config, members ...Member) (*Balancer, error) {
	if len(members) == 0 {
		return nil, errors.New("fleet: balancer needs at least one member")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NewLogger(nil, false)
	}
	b := &Balancer{
		cfg:    cfg,
		client: &http.Client{Timeout: probeTimeout},
		logger: logger,
		byName: make(map[string]*memberState, len(members)),
		rng:    rng.New(cfg.Seed),
	}
	for _, m := range members {
		if m.Name == "" || m.BaseURL == "" && m.Probe == nil {
			return nil, fmt.Errorf("fleet: member needs a name and a base URL (got %+v)", m)
		}
		if _, dup := b.byName[m.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate member name %q", m.Name)
		}
		ms := &memberState{m: m}
		b.members = append(b.members, ms)
		b.byName[m.Name] = ms
	}
	return b, nil
}

// Members returns the registered members in registration order.
func (b *Balancer) Members() []Member {
	out := make([]Member, len(b.members))
	for i, ms := range b.members {
		out[i] = ms.m
	}
	return out
}

// ExpectedHash returns the model hash the fleet is pinned to ("" when
// unpinned).
func (b *Balancer) ExpectedHash() string { return b.cfg.ExpectHash }

// Client returns the HTTP client the balancer probes with, for callers
// that fetch replica surfaces (stats, metrics) alongside it.
func (b *Balancer) Client() *http.Client { return b.client }

// Admit moves a member into rotation with the hash it verified at. Used
// by the controller after a hash-verified distribution.
func (b *Balancer) Admit(name, hash string) error {
	ms := b.byName[name]
	if ms == nil {
		return fmt.Errorf("fleet: admit unknown member %q", name)
	}
	if b.cfg.ExpectHash != "" && hash != b.cfg.ExpectHash {
		b.Refuse(name, hash)
		return fmt.Errorf("fleet: member %q reports hash %s, fleet expects %s", name, hash, b.cfg.ExpectHash)
	}
	ms.setHash(hash)
	ms.probeFails.Store(0)
	ms.probeOKs.Store(0)
	ms.setState(StateHealthy)
	b.logger.Info("fleet: replica admitted", "replica", name, "model_hash", hash)
	return nil
}

// Refuse marks a member's model hash as disagreeing with the fleet's; it
// leaves rotation until a new distribution re-verifies it.
func (b *Balancer) Refuse(name, hash string) {
	ms := b.byName[name]
	if ms == nil {
		return
	}
	ms.setHash(hash)
	ms.setState(StateRefused)
	b.logger.Warn("fleet: replica refused (hash mismatch)",
		"replica", name, "model_hash", hash, "expect", b.cfg.ExpectHash)
}

// Eject removes a member from rotation (idempotent).
func (b *Balancer) Eject(name, reason string) {
	ms := b.byName[name]
	if ms == nil {
		return
	}
	b.eject(ms, reason)
}

// Quiesce takes a member out of rotation for an orderly drain: it
// ejects the replica so no new request routes there, flushes any Pick
// already holding a pre-ejection view of the healthy set, and then
// waits for the member's in-flight count to reach zero — at which point
// the caller can shut the replica down without severing an exchange.
//
// The order matters for exact reconciliation. An unannounced shutdown
// races http.Server's idle-connection close against a request landing
// on a kept-alive connection: the handler can score the request while
// the response write fails, so the client retries and the fleet counts
// one score the client never saw — the two-generals ambiguity no retry
// policy can close. Draining out of rotation first is both the fix and
// what a maintenance drain should do anyway.
func (b *Balancer) Quiesce(ctx context.Context, name string) error {
	ms := b.byName[name]
	if ms == nil {
		return fmt.Errorf("fleet: quiesce: unknown member %q", name)
	}
	b.eject(ms, "drained")
	// Cycle the pick gate: any Pick that snapshotted the member as
	// healthy before the ejection has incremented its inflight count by
	// the time the write lock is granted.
	b.pickGate.Lock()
	b.pickGate.Unlock() //nolint:staticcheck // empty critical section is the barrier
	for ms.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: quiesce %s: %w (inflight %d)", name, ctx.Err(), ms.inflight.Load())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

func (b *Balancer) eject(ms *memberState, reason string) {
	if ms.state.CompareAndSwap(int32(StateHealthy), int32(StateEjected)) {
		ms.probeOKs.Store(0)
		b.ejections.Add(1)
		b.logger.Warn("fleet: replica ejected", "replica", ms.m.Name, "reason", reason)
	}
}

func (b *Balancer) readmit(ms *memberState, hash string) {
	if ms.state.CompareAndSwap(int32(StateEjected), int32(StateHealthy)) {
		ms.setHash(hash)
		ms.probeFails.Store(0)
		b.readmissions.Add(1)
		b.logger.Info("fleet: replica re-admitted", "replica", ms.m.Name, "model_hash", hash)
	}
}

// Picked is one routing decision: a healthy replica with an in-flight
// lease. Callers must Finish it exactly once.
type Picked struct{ ms *memberState }

// Name returns the picked replica's name.
func (p Picked) Name() string { return p.ms.m.Name }

// BaseURL returns the picked replica's serving root.
func (p Picked) BaseURL() string { return p.ms.m.BaseURL }

// Pick chooses a healthy replica: with two or more in rotation it
// samples two distinct candidates from the deterministic jitter stream
// and takes the one with fewer requests in flight (power-of-two-choices
// — near-optimal load spread at O(1) cost, no global ordering).
func (b *Balancer) Pick() (Picked, error) {
	b.pickGate.RLock()
	defer b.pickGate.RUnlock()
	// Healthy set snapshot: states are atomics, so this is a consistent-
	// enough view — a replica ejected mid-scan fails its request and is
	// retried by the caller.
	var healthy []*memberState
	for _, ms := range b.members {
		if ms.getState() == StateHealthy {
			healthy = append(healthy, ms)
		}
	}
	if len(healthy) == 0 {
		return Picked{}, ErrNoHealthy
	}
	b.picks.Add(1)
	if len(healthy) == 1 {
		healthy[0].inflight.Add(1)
		return Picked{ms: healthy[0]}, nil
	}
	b.pickMu.Lock()
	i := b.rng.Intn(len(healthy))
	j := b.rng.Intn(len(healthy) - 1)
	b.pickMu.Unlock()
	if j >= i {
		j++
	}
	ms := healthy[i]
	if healthy[j].inflight.Load() < ms.inflight.Load() {
		ms = healthy[j]
	}
	ms.inflight.Add(1)
	return Picked{ms: ms}, nil
}

// Finish releases a pick's in-flight lease and classifies the outcome:
// a transport-level failure (collect.IsDown) ejects the replica
// immediately — waiting for the next probe round would keep routing
// live traffic at a dead socket. Protocol and status failures leave the
// replica in rotation.
func (b *Balancer) Finish(p Picked, err error) {
	if p.ms == nil {
		return
	}
	p.ms.inflight.Add(-1)
	if err != nil && collect.IsDown(err) {
		b.eject(p.ms, "transport failure")
	}
}

// CountRetry records one transparent re-route after a failed attempt
// (exported at /metrics as polygraph_fleet_retries_total).
func (b *Balancer) CountRetry() { b.retries.Add(1) }

// Healthy returns the names of members currently in rotation.
func (b *Balancer) Healthy() []string {
	var out []string
	for _, ms := range b.members {
		if ms.getState() == StateHealthy {
			out = append(out, ms.m.Name)
		}
	}
	return out
}

// Snapshot returns a torn-read-safe view of the health table in
// registration order.
func (b *Balancer) Snapshot() []MemberStatus {
	out := make([]MemberStatus, len(b.members))
	for i, ms := range b.members {
		out[i] = MemberStatus{
			Name:       ms.m.Name,
			BaseURL:    ms.m.BaseURL,
			State:      ms.getState().String(),
			ModelHash:  ms.getHash(),
			Inflight:   ms.inflight.Load(),
			ProbeFails: ms.probeFails.Load(),
		}
	}
	return out
}

// probe runs one member's health+hash probe through its override or
// HTTP (GET /healthz, then GET /admin/model for the hash; a replica
// without the admin endpoint probes healthy with an unknown hash).
func (b *Balancer) probe(ctx context.Context, ms *memberState) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	if ms.m.Probe != nil {
		return ms.m.Probe(ctx)
	}
	c := collect.Client{BaseURL: ms.m.BaseURL, HTTPClient: b.client}
	if err := c.Health(ctx); err != nil {
		return "", err
	}
	info, err := FetchModelInfo(ctx, b.client, ms.m.BaseURL)
	if err != nil {
		// Health passed; a missing admin surface is not a liveness
		// failure, just an unknown hash.
		return "", nil
	}
	return info.Hash, nil
}

// CheckOnce runs one probe round over the whole table and applies the
// ejection/re-admission thresholds. Exposed for deterministic tests;
// RunHealth drives it on a cadence.
func (b *Balancer) CheckOnce(ctx context.Context) {
	for _, ms := range b.members {
		state := ms.getState()
		if state == StatePending || state == StateRefused {
			continue // admission is the controller's decision
		}
		hash, err := b.probe(ctx, ms)
		if err != nil {
			ms.probeOKs.Store(0)
			if fails := ms.probeFails.Add(1); state == StateHealthy && fails >= failThreshold {
				b.eject(ms, fmt.Sprintf("%d consecutive probe failures", fails))
			}
			continue
		}
		ms.probeFails.Store(0)
		if b.cfg.ExpectHash != "" && hash != "" && hash != b.cfg.ExpectHash {
			// Hash drift: the replica is alive but serving the wrong
			// model — worse than down, because its verdicts diverge.
			ms.probeOKs.Store(0)
			if state == StateHealthy {
				b.eject(ms, "model hash drift: "+hash)
			}
			continue
		}
		if state == StateEjected {
			if oks := ms.probeOKs.Add(1); oks >= recoverThreshold {
				b.readmit(ms, hash)
			}
		}
	}
}

// RunHealth probes the table every interval until ctx is done.
func (b *Balancer) RunHealth(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			b.CheckOnce(ctx)
		}
	}
}

// FetchModelInfo reads a replica's deployed-model admin view.
func FetchModelInfo(ctx context.Context, client *http.Client, baseURL string) (ModelInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+AdminModelPath, nil)
	if err != nil {
		return ModelInfo{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("fleet: fetch model info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ModelInfo{}, fmt.Errorf("fleet: %s returned %d", AdminModelPath, resp.StatusCode)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return ModelInfo{}, fmt.Errorf("fleet: decode model info: %w", err)
	}
	return info, nil
}
