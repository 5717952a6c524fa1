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

func trainedModel(t testing.TB) *core.Model {
	t.Helper()
	trainOnce.Do(func() {
		logger := obs.NewLogger(nil, false)
		m, _, _, err := ObtainModel(context.Background(), true, "", 10000, false, logger)
		if err != nil {
			panic(err)
		}
		trained = m
	})
	return trained
}

func TestObtainModelTrainsInProcess(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	m, rep, baseline, err := ObtainModel(context.Background(), true, "", 10000, false, logger)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 28 {
		t.Fatalf("model dim %d", m.Dim())
	}
	if m.Accuracy < 0.97 {
		t.Fatalf("accuracy %.4f", m.Accuracy)
	}
	if rep == nil || len(rep.Stages) == 0 {
		t.Fatal("in-process training returned no stage timings")
	}
	if len(baseline) == 0 || len(baseline[0]) != m.Dim() {
		t.Fatalf("training should return baseline vectors for drift, got %d", len(baseline))
	}
}

func TestObtainModelLoadsFromDisk(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	m := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, rep, baseline, err := ObtainModel(context.Background(), false, path, 0, false, logger)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim() != m.Dim() || loaded.Accuracy != m.Accuracy {
		t.Fatal("loaded model differs")
	}
	if rep != nil {
		t.Fatal("file load should not fabricate a train report")
	}
	if baseline != nil {
		t.Fatal("file load should not fabricate a drift baseline")
	}
}

func TestObtainModelNoveltyGuard(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	m, _, _, err := ObtainModel(context.Background(), true, "", 10000, true, logger)
	if err != nil {
		t.Fatal(err)
	}
	if m.NoveltyThreshold <= 0 {
		t.Fatal("novelty guard not armed")
	}
}

func TestObtainModelMissingFile(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	if _, _, _, err := ObtainModel(context.Background(), false, filepath.Join(t.TempDir(), "no.json"), 0, false, logger); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestObtainModelCancelledTraining(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := ObtainModel(ctx, true, "", 10000, false, logger)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
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

	r.Kill()
	if _, err := http.Get(r.BaseURL() + "/healthz"); err == nil {
		t.Fatal("killed replica still answers HTTP")
	}
	// In-process surfaces survive the kill.
	if got := r.Stats(); got.Received < 0 {
		t.Fatalf("stats unreadable after kill: %+v", got)
	}
	if exp := r.MetricsExposition(); !strings.Contains(exp, "polygraph_build_info") {
		t.Fatal("metrics exposition unreadable after kill")
	}
	member := r.Member()
	if _, err := member.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after kill")
	}
	if !r.Killed() {
		t.Fatal("Killed() not reported")
	}
}

func TestReplicaReloadRetrainsAndKeepsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("retrain reload is slow")
	}
	r, err := New(context.Background(), Config{
		Name: "reload-0", Addr: "127.0.0.1:0",
		Train: true, Sessions: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	before := r.ModelHash()
	if !r.TriggerReload() {
		t.Fatal("reload not started")
	}
	if r.TriggerReload() {
		t.Fatal("second trigger during reload should be dropped")
	}
	select {
	case err := <-r.ReloadDone():
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("reload did not finish")
	}
	// Deterministic pipeline: same sessions, same model, same hash.
	if after := r.ModelHash(); after != before {
		t.Fatalf("retrain changed hash %s -> %s", before, after)
	}
}

func TestReplicaFleetManagedHasNoReloadSource(t *testing.T) {
	r, err := New(context.Background(), Config{Name: "managed", Model: trainedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.TriggerReload() {
		t.Fatal("fleet-managed replica accepted a reload trigger")
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
	if !strings.Contains(r.MetricsExposition(), "polygraph_slo_alert") {
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

// withoutRelease returns a copy of m that no longer lists rel in any
// cluster, so a session honestly claiming rel mismatches under it.
func withoutRelease(t *testing.T, m *core.Model, rel ua.Release) *core.Model {
	t.Helper()
	reload := func(m *core.Model) *core.Model {
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
	edited := reload(m)
	c, ok := edited.UACluster[rel]
	if !ok {
		t.Fatalf("model does not know %v", rel)
	}
	edited.ClusterUAs[c] = slices.DeleteFunc(edited.ClusterUAs[c], func(r ua.Release) bool { return r == rel })
	return reload(edited) // Load rebuilds UACluster and the score plan
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
		decisions := bb.TargetFile("swap-0", bundle.ArtifactDecisions)
		if got := bytes.Count(decisions, []byte(`"explanation":{`)); got != map[string]int{"?no-redact=1": 4, "": 0}[q] {
			t.Fatalf("bundle%s: %d explained decisions in %s", q, got, decisions)
		}
	}

	// A killed replica stops answering frames too.
	r.Kill()
	if c, err := collect.DialTCP(r.TCPAddr(), time.Second); err == nil {
		c.Close()
		t.Fatal("killed replica still accepts framed connections")
	}
}
