package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/browser"
	"polygraph/internal/bundle"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/drift"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
	"polygraph/internal/slo"
	"polygraph/internal/ua"
)

var (
	trainOnce sync.Once
	trained   *core.Model
)

// trainedModel is the package's fixture model, trained once.
func trainedModel(t testing.TB) *core.Model {
	t.Helper()
	trainOnce.Do(func() { trained = trainModel(t, 10000) })
	return trained
}

// trainModel trains a model on the calibrated population.
func trainModel(t testing.TB, sessions int) *core.Model {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Sessions = sessions
	_, m, _, err := dataset.Train(cfg, core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMissingModelFile(t *testing.T) {
	_, err := New(context.Background(), Config{Name: "missing", ModelPath: filepath.Join(t.TempDir(), "no.json")})
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("boot from a missing model file: %v, want a not-exist error", err)
	}
}

func TestReplicaWarmsUpThroughAdminPush(t *testing.T) {
	m := trainedModel(t)
	wantHash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}

	r, err := New(context.Background(), Config{Name: "warm-0", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	// Warming: scoring surface and health fail closed.
	resp, err := http.Get(r.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming healthz returned %d, want 503", resp.StatusCode)
	}
	if r.ModelHash() != "" {
		t.Fatalf("warming replica reports hash %q", r.ModelHash())
	}

	// Distribution through the real controller path.
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1, ExpectHash: wantHash},
		fleet.Member{Name: "warm-0", BaseURL: r.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&fleet.Controller{}).Distribute(context.Background(), b, m)
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if !results[0].Admitted || results[0].Hash != wantHash {
		t.Fatalf("push result %+v, want admitted with hash %s", results[0], wantHash)
	}
	if r.ModelHash() != wantHash {
		t.Fatalf("deployed hash %s, want %s", r.ModelHash(), wantHash)
	}

	// Deployed: health opens up and the admin view matches.
	resp, err = http.Get(r.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deployed healthz returned %d", resp.StatusCode)
	}
	info, err := fleet.FetchModelInfo(context.Background(), http.DefaultClient, r.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	if info.Hash != wantHash || info.Features != m.Dim() {
		t.Fatalf("admin info %+v", info)
	}
}

func TestReplicaKillStopsListenerKeepsCounters(t *testing.T) {
	r, err := New(context.Background(), Config{Name: "kill-0", Addr: "127.0.0.1:0", Model: trainedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if r.ModelHash() == "" {
		t.Fatal("Config.Model was not deployed at startup")
	}
	resp, err := http.Get(r.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	kill(r)
	if _, err := http.Get(r.BaseURL() + "/healthz"); err == nil {
		t.Fatal("killed replica still answers HTTP")
	}
	// In-process surfaces survive the kill.
	if exp := r.metricsExposition(); !strings.Contains(exp, "polygraph_build_info") {
		t.Fatal("metrics exposition unreadable after kill")
	}
	if _, err := r.Member().FetchMetrics(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after kill")
	}
}

// writeModel saves m to path, replacing what was there.
func writeModel(t *testing.T, path string, m *core.Model) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaReloadRereadsModelFile boots from file A, overwrites the
// file with model B and reloads: B serves. A corrupt file then fails the
// reload and B keeps serving.
func TestReplicaReloadRereadsModelFile(t *testing.T) {
	a, b := trainedModel(t), trainModel(t, 6000)
	hashA, _ := a.Hash()
	hashB, _ := b.Hash()
	if hashA == hashB {
		t.Fatal("fixture models share a hash")
	}
	path := filepath.Join(t.TempDir(), "model.json")
	writeModel(t, path, a)
	r, err := New(context.Background(), Config{Name: "reload-0", Addr: "127.0.0.1:0", ModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if got := r.ModelHash(); got != hashA {
		t.Fatalf("booted hash %s, want A %s", got, hashA)
	}

	writeModel(t, path, b)
	if err := r.Reload(); err != nil {
		t.Fatalf("reload of model B: %v", err)
	}
	if got := r.ModelHash(); got != hashB {
		t.Fatalf("after reload hash %s, want B %s", got, hashB)
	}

	if err := os.WriteFile(path, []byte(`{"features": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err == nil {
		t.Fatal("reload of a corrupt file succeeded")
	}
	if got := r.ModelHash(); got != hashB {
		t.Fatalf("after a failed reload hash %s, want B %s still serving", got, hashB)
	}
	resp, err := http.Get(r.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a failed reload: %d", resp.StatusCode)
	}
}

func TestReplicaFleetManagedHasNoReloadSource(t *testing.T) {
	r, err := New(context.Background(), Config{Name: "managed", Model: trainedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Reload(); !errors.Is(err, ErrNoModelFile) {
		t.Fatalf("fleet-managed replica reloaded: %v, want ErrNoModelFile", err)
	}
}

// TestReplicaSLOEngine pins the serving wiring: Config.SLOSpec arms a
// burn-rate engine on first deployment, the replica mux serves GET
// /debug/slo, and the replica's own exposition carries the
// polygraph_slo_* families.
func TestReplicaSLOEngine(t *testing.T) {
	r, err := New(context.Background(), Config{
		Name: "slo-0", Addr: "127.0.0.1:0", Model: trainedModel(t),
		SLOSpec: slo.DefaultSpec(),
		// A long interval keeps the background loop quiet; the test
		// ticks the engine explicitly.
		SLOInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	eng := r.SLO()
	if eng == nil {
		t.Fatal("no SLO engine after deployment with Config.SLOSpec")
	}

	resp, err := http.Get(r.BaseURL() + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo returned %d", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), `"spec": "polygraph-default"`) {
		t.Fatalf("/debug/slo page missing spec name:\n%s", body[:n])
	}

	// One explicit tick self-scrapes the replica's exposition.
	if err := eng.TickNow(); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if eng.Status().Tick != 1 {
		t.Fatalf("tick %d, want 1", eng.Status().Tick)
	}
	if !strings.Contains(r.metricsExposition(), "polygraph_slo_alert") {
		t.Fatal("replica exposition missing polygraph_slo_* families")
	}

	// No spec, no engine: the default configuration stays unchanged.
	r2, err := New(context.Background(), Config{Name: "slo-off", Model: trainedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.SLO() != nil {
		t.Fatal("engine attached without Config.SLOSpec")
	}
}

// reloaded returns a copy of m, through its file format.
func reloaded(t *testing.T, m *core.Model) *core.Model {
	t.Helper()
	var blob bytes.Buffer
	if err := m.Save(&blob); err != nil {
		t.Fatal(err)
	}
	out, err := core.Load(&blob)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withoutRelease returns a copy of m that no longer lists rel in any
// cluster, so a session honestly claiming rel mismatches under it.
func withoutRelease(t *testing.T, m *core.Model, rel ua.Release) *core.Model {
	t.Helper()
	edited := reloaded(t, m)
	c, ok := edited.UACluster[rel]
	if !ok {
		t.Fatalf("model does not know %v", rel)
	}
	edited.ClusterUAs[c] = slices.DeleteFunc(edited.ClusterUAs[c], func(r ua.Release) bool { return r == rel })
	return reloaded(t, edited) // Load rebuilds UACluster and the score plan
}

// TestHotSwapReachesBothTransports: a warming replica with a framed
// listener binds both sockets at Start, serves neither until the fleet
// pushes model A, and a second push of model B changes the verdict —
// and the audit hash — on HTTP and on TCP alike, because the listener
// scores through the collect server's ingest core.
func TestHotSwapReachesBothTransports(t *testing.T) {
	modelA := trainedModel(t)
	rel := ua.Release{Vendor: ua.Chrome, Version: 112}
	modelB := withoutRelease(t, modelA, rel)
	hashA, _ := modelA.Hash()
	hashB, _ := modelB.Hash()
	if hashA == hashB {
		t.Fatal("edited model hashes like the original")
	}

	r, err := New(context.Background(), Config{
		Name: "swap-0", Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0",
		AuditDir: t.TempDir(), AuditSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if r.TCPAddr() == "" {
		t.Fatal("warming replica did not bind its framed listener at Start")
	}
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1}, fleet.Member{Name: "swap-0", BaseURL: r.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	push := func(m *core.Model) {
		t.Helper()
		if _, err := (&fleet.Controller{}).Distribute(context.Background(), b, m); err != nil {
			t.Fatalf("distribute: %v", err)
		}
	}

	ext := fingerprint.NewExtractor(browser.NewOracle(), modelA.Features)
	payload := &fingerprint.Payload{
		UserAgent: ua.UserAgent(rel, ua.Windows10),
		Values:    fingerprint.VectorToValues(ext.Extract(browser.Profile{Release: rel, OS: ua.Windows10})),
	}
	push(modelA)
	tcp, err := collect.DialTCP(r.TCPAddr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	// scoreBoth sends the session once per transport, HTTP first.
	scoreBoth := func() (overHTTP, overTCP bool) {
		t.Helper()
		d, err := collect.NewClient(r.BaseURL()).Submit(context.Background(), payload)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := tcp.SubmitBatch([]*fingerprint.Payload{payload})
		if err != nil || frames[0].Err {
			t.Fatalf("frame: %+v, %v", frames, err)
		}
		return d.Flagged, frames[0].Flagged
	}
	if h, f := scoreBoth(); h || f {
		t.Fatalf("model A flags an honest session: http %v tcp %v", h, f)
	}
	push(modelB)
	if h, f := scoreBoth(); !h || !f {
		t.Fatalf("after the push of model B: http flagged %v, tcp flagged %v, want both", h, f)
	}

	// The ledger carries four records, oldest first: A's verdicts, then
	// B's, each pair one per transport and stamped with its model's hash.
	resp, err := http.Get(r.BaseURL() + "/debug/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []audit.Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	type stamp struct {
		endpoint, hash string
		flagged        bool
	}
	var got []stamp
	for _, rec := range recs {
		got = append(got, stamp{rec.Endpoint, rec.ModelHash, rec.Verdict.Flagged})
	}
	want := []stamp{
		{collect.EndpointBinary, hashA, false}, {collect.EndpointTCP, hashA, false},
		{collect.EndpointBinary, hashB, true}, {collect.EndpointTCP, hashB, true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("audit records\n got %+v\nwant %+v", got, want)
	}

	// Each record is explained on read by the model that decided it — A's
	// through A's archive although A is no longer deployed: the two models
	// differ in the members of this very cluster.
	members := map[string]string{}
	for i, rec := range recs {
		ex := rec.Explanation
		if ex == nil || ex.Verdict != rec.Verdict {
			t.Fatalf("record %d served without its explanation: %+v", i, ex)
		}
		if prev, ok := members[rec.ModelHash]; ok && prev != ex.ClusterUAs {
			t.Fatalf("record %d under %s: cluster members %q, the other transport's record says %q", i, rec.ModelHash, ex.ClusterUAs, prev)
		}
		members[rec.ModelHash] = ex.ClusterUAs
	}
	if members[hashA] == members[hashB] {
		t.Fatalf("both models' records explained with cluster members %q", members[hashA])
	}
	archives, err := filepath.Glob(filepath.Join(r.cfg.AuditDir, "model.*.json"))
	if err != nil || len(archives) != 2 {
		t.Fatalf("model archives %v (%v), want one per pushed model", archives, err)
	}
	// An un-redacted bundle ships the explanations; the default ships none.
	for _, q := range []string{"?no-redact=1", ""} {
		resp, err := http.Get(r.BaseURL() + "/debug/bundle" + q)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := bundle.Read(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		decisions := bb.Files["targets/swap-0/"+bundle.ArtifactDecisions]
		if got := bytes.Count(decisions, []byte(`"explanation":{`)); got != map[string]int{"?no-redact=1": 4, "": 0}[q] {
			t.Fatalf("bundle%s: %d explained decisions in %s", q, got, decisions)
		}
	}

	// A killed replica stops answering frames too.
	kill(r)
	if c, err := collect.DialTCP(r.TCPAddr(), time.Second); err == nil {
		c.Close()
		t.Fatal("killed replica still accepts framed connections")
	}
}

// driftStream is one fixed stream of honest sessions over twelve
// releases, as vectors and as payloads.
func driftStream(m *core.Model) ([][]float64, []*fingerprint.Payload) {
	ext := fingerprint.NewExtractor(browser.NewOracle(), m.Features)
	var vecs [][]float64
	var payloads []*fingerprint.Payload
	for i := 0; i < 64; i++ {
		rel := ua.Release{Vendor: ua.Chrome, Version: 100 + i%12}
		if i%4 == 1 {
			rel = ua.Release{Vendor: ua.Firefox, Version: 100 + i%12}
		}
		vec := ext.Extract(browser.Profile{Release: rel, OS: ua.Windows10})
		vecs = append(vecs, vec)
		payloads = append(payloads, &fingerprint.Payload{
			UserAgent: ua.UserAgent(rel, ua.Windows10),
			Values:    fingerprint.VectorToValues(vec),
		})
	}
	return vecs, payloads
}

// driveDrift sends the stream through r's HTTP endpoint and evaluates
// its drift monitor.
func driveDrift(t *testing.T, r *Replica, payloads []*fingerprint.Payload) ([]drift.PSIResult, error) {
	t.Helper()
	client := collect.NewClient(r.BaseURL())
	for _, p := range payloads {
		if _, err := client.Submit(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	return r.Drift().Evaluate()
}

// startDrift boots and starts a replica with a drift monitor whose
// background loop never ticks.
func startDrift(t *testing.T, cfg Config) *Replica {
	t.Helper()
	cfg.Addr, cfg.DriftInterval = "127.0.0.1:0", time.Hour
	r, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// baselineAt reads the replica's polygraph_drift_baseline_timestamp_seconds.
func baselineAt(t *testing.T, r *Replica) float64 {
	t.Helper()
	v, err := obs.ParseExpositionString(r.metricsExposition()).Value(obs.FamDriftBaselineAt.Name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDeployPathsInstallTheModelsBaseline: one model reaches a replica
// through Config.Model, Config.ModelPath, POST /admin/model and Reload,
// and on every path the drift monitor measures one fixed stream against
// that model's own baseline, with identical results. A hot swap to a
// second model installs the second model's baseline. A model file
// written before models carried a baseline still deploys and serves,
// with drift unarmed.
func TestDeployPathsInstallTheModelsBaseline(t *testing.T) {
	a, b := trainedModel(t), trainModel(t, 6000)
	if a.Baseline == nil || b.Baseline == nil {
		t.Fatal("a trained model carries no drift baseline")
	}
	vecs, payloads := driftStream(a)
	names := fingerprint.Names(a.Features)
	want, err := drift.BaselinePSI(names, a.Baseline, vecs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pathA, pathB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	writeModel(t, pathA, a)
	writeModel(t, pathB, b)

	pushed := startDrift(t, Config{Name: "push"})
	admin, err := fleet.NewBalancer(fleet.Config{Seed: 1}, fleet.Member{Name: "push", BaseURL: pushed.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	push := func(m *core.Model) {
		t.Helper()
		if _, err := (&fleet.Controller{}).Distribute(context.Background(), admin, m); err != nil {
			t.Fatal(err)
		}
	}
	push(a)
	reload := startDrift(t, Config{Name: "reload", ModelPath: pathB})
	writeModel(t, pathB, a)
	if err := reload.Reload(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Replica{
		startDrift(t, Config{Name: "model", Model: a}),
		startDrift(t, Config{Name: "file", ModelPath: pathA}),
		pushed,
		reload,
	} {
		got, err := driveDrift(t, r, payloads)
		if err != nil {
			t.Fatalf("%s: drift evaluation: %v", r.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: drift\n got %+v\nwant %+v (the model's own baseline)", r.Name(), got, want)
		}
		if baselineAt(t, r) <= 0 {
			t.Fatalf("%s: baseline timestamp unset", r.Name())
		}
	}

	push(b)
	wantB, err := drift.BaselinePSI(names, b.Baseline, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(wantB, want) {
		t.Fatal("the two models' baselines measure the stream alike")
	}
	if got, err := driveDrift(t, pushed, payloads); err != nil || !reflect.DeepEqual(got, wantB) {
		t.Fatalf("after the swap to B: drift %+v, %v\nwant %+v (B's baseline)", got, err, wantB)
	}

	old := startDrift(t, Config{Name: "old", ModelPath: "../audit/testdata/model.53871f274906354f37faa324c4bd702f.json"})
	if old.Drift() == nil {
		t.Fatal("no drift monitor")
	}
	vecs, payloads = driftStream(old.model.Load())
	client := collect.NewClient(old.BaseURL())
	for _, p := range payloads {
		if _, err := client.Submit(context.Background(), p); err != nil {
			t.Fatalf("old-format model: %v", err)
		}
	}
	ex := obs.ParseExpositionString(old.metricsExposition())
	if received, rejected := ex.Sum(obs.FamCollections.Name), ex.Sum(obs.FamRejected.Name); received != float64(len(vecs)) || rejected != 0 {
		t.Fatalf("old-format model received %g, rejected %g, want %d accepted", received, rejected, len(vecs))
	}
	if _, err := old.Drift().Evaluate(); !errors.Is(err, obs.ErrDriftNotReady) {
		t.Fatalf("old-format model: drift evaluation %v, want ErrDriftNotReady", err)
	}
	if v := baselineAt(t, old); v != 0 {
		t.Fatalf("old-format model: baseline timestamp %v, want 0", v)
	}
}

// metricsExposition reads the replica's /metrics page through its
// in-process fetch, which survives a killed listener.
func (r *Replica) metricsExposition() string {
	page, err := r.fetch(context.Background(), "/metrics")
	if err != nil {
		panic(err)
	}
	return string(page)
}

// kill closes a replica's listener and every in-flight connection at
// once, as a crash would. Counters and the audit ledger stay readable
// in-process; Close must still be called to flush them.
func kill(r *Replica) {
	if !r.killed.CompareAndSwap(false, true) {
		return
	}
	if r.httpSrv != nil {
		r.httpSrv.Close()
	}
	r.closeTCP()
}
