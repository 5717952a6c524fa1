package audit_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/browser"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// trainModel builds a small deterministic model over the Table 8
// features; perUA varies the training set, so different values give
// models with different hashes.
func trainModel(t *testing.T, perUA int, novelty bool) (*core.Model, *fingerprint.Extractor) {
	t.Helper()
	ext := fingerprint.NewExtractor(browser.NewOracle(), fingerprint.Table8())
	var samples []core.Sample
	for _, r := range []ua.Release{
		{Vendor: ua.Chrome, Version: 95}, {Vendor: ua.Chrome, Version: 112},
		{Vendor: ua.Chrome, Version: 114}, {Vendor: ua.Edge, Version: 112},
		{Vendor: ua.Firefox, Version: 95}, {Vendor: ua.Firefox, Version: 110},
	} {
		for i := 0; i < perUA; i++ {
			samples = append(samples, core.Sample{Vector: ext.Extract(browser.Profile{Release: r, OS: ua.Windows10}), UA: r})
		}
	}
	cfg := core.DefaultTrainConfig()
	cfg.K = 6
	cfg.Contamination = 0
	if novelty {
		// Fewer clusters than distinct surfaces, so members sit off their
		// centroid and the guard's threshold is above zero: armed.
		cfg.K, cfg.NoveltyGuard = 4, true
	}
	cfg.Reference = core.ExtractorReference{Extractor: ext, OS: ua.Windows10}
	m, _, err := core.Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ext
}

func openLedger(t *testing.T, dir string) *audit.Ledger {
	t.Helper()
	l, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func archives(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "model.*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestArchiveModelIsContentAddressed: the archive is Save's bytes under
// the name Hash gives them, written once, and put right when damaged.
func TestArchiveModelIsContentAddressed(t *testing.T) {
	m, _ := trainModel(t, 20, false)
	dir := t.TempDir()
	l := openLedger(t, dir)

	hash, err := l.ArchiveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Hash(); hash != want {
		t.Fatalf("ArchiveModel returned %s, Model.Hash %s", hash, want)
	}
	path := filepath.Join(dir, "model."+hash+".json")
	if got := archives(t, dir); len(got) != 1 || got[0] != path {
		t.Fatalf("archive directory holds %v, want only %s", got, path)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(onDisk, saved.Bytes()) {
		t.Fatalf("archive differs from Model.Save's bytes (read error %v)", err)
	}
	loaded, err := audit.NewResolver(dir).Model(hash)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := loaded.Hash(); got != hash {
		t.Fatalf("resolved model hashes to %s, want %s", got, hash)
	}

	// An intact archive is left alone: the same file, not a rewrite.
	before, _ := os.Stat(path)
	if _, err := l.ArchiveModel(m); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.Stat(path); !os.SameFile(before, after) {
		t.Fatal("an intact archive was replaced")
	}
	// A damaged one is not trusted for being there.
	if err := os.WriteFile(path, onDisk[:len(onDisk)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ArchiveModel(m); err != nil {
		t.Fatal(err)
	}
	if onDisk, _ = os.ReadFile(path); !bytes.Equal(onDisk, saved.Bytes()) {
		t.Fatal("a truncated archive was left in place")
	}
	if got := archives(t, dir); len(got) != 1 {
		t.Fatalf("temporary files left behind: %v", got)
	}
}

// TestResolverRefusesWhatItCannotVouchFor: a missing, truncated,
// bit-flipped or substituted archive, or a hash that is not one, is an
// error naming the hash — never a model.
func TestResolverRefusesWhatItCannotVouchFor(t *testing.T) {
	m, _ := trainModel(t, 20, false)
	other, _ := trainModel(t, 12, false)
	dir := t.TempDir()
	l := openLedger(t, dir)
	hash, err := l.ArchiveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	otherHash, err := l.ArchiveModel(other)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model."+hash+".json")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/3] ^= 0x01
	substituted, err := os.ReadFile(filepath.Join(dir, "model."+otherHash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated": intact[:len(intact)-1], "empty": {}, "bit-flipped": flipped, "substituted": substituted,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := audit.NewResolver(dir).Model(hash); err == nil || got != nil || !strings.Contains(err.Error(), hash) {
			t.Fatalf("%s archive: model %v, error %v", name, got, err)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	r := audit.NewResolver(dir)
	for _, bad := range []string{hash, "", "deadbeef", "../" + otherHash, strings.ToUpper(otherHash)} {
		if got, err := r.Model(bad); err == nil || got != nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("hash %q: model %v, error %v", bad, got, err)
		}
	}
	// Five refusals — more than the resolver remembers — have not displaced
	// its ability to resolve an intact archive, twice.
	for i := 0; i < 2; i++ {
		if _, err := r.Model(otherHash); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplainDerivesWhatWasStored: for honest, lying and junk claims,
// plain and novelty-armed models, the explanation derived from a lean
// record and the archive is the one the request path used to compute and
// store; and a record whose verdict its inputs do not produce is refused
// rather than explained.
func TestExplainDerivesWhatWasStored(t *testing.T) {
	for _, novelty := range []bool{false, true} {
		m, ext := trainModel(t, 25, novelty)
		if armed := m.NoveltyThreshold > 0; armed != novelty {
			t.Fatalf("fixture: novelty guard armed=%v, want %v", armed, novelty)
		}
		l := openLedger(t, t.TempDir())
		hash, err := l.ArchiveModel(m)
		if err != nil {
			t.Fatal(err)
		}
		tripped := false
		claims := []string{"", "not a browser", "Mozilla/5.0 Chrome/300.0.0.0",
			ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10),
			ua.UserAgent(ua.Release{Vendor: ua.Firefox, Version: 95}, ua.Windows10)}
		for i, claim := range claims {
			vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
			if i%2 == 1 { // an alien surface: the novelty guard's case
				for j := range vec {
					vec[j] += float64(100 * (j + 1))
				}
			}
			res, err := m.ScoreString(vec, claim)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.ExplainResult(vec, claim, res, 0)
			if err != nil {
				t.Fatal(err)
			}
			tripped = tripped || res.Novel
			rec := audit.Record{ModelHash: hash, UserAgent: claim, Vector: vec, Verdict: core.VerdictOf(res)}
			if err := l.Explain(&rec); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec.Explanation, want) {
				t.Fatalf("novelty=%v claim %q:\n got %+v\nwant %+v", novelty, claim, rec.Explanation, want)
			}

			tampered := audit.Record{ModelHash: hash, UserAgent: claim, Vector: vec, Verdict: core.VerdictOf(res)}
			tampered.Verdict.Cluster = (tampered.Verdict.Cluster + 1) % m.KMeans.K
			if err := l.Explain(&tampered); err == nil || tampered.Explanation != nil {
				t.Fatalf("a verdict the inputs do not produce was explained: %+v, %v", tampered.Explanation, err)
			}
		}
		if tripped != novelty {
			t.Fatalf("fixture: novelty guard tripped=%v on a model with novelty=%v", tripped, novelty)
		}
	}
	// Nothing to derive from: redacted, or stamped with no model.
	l := openLedger(t, t.TempDir())
	for _, rec := range []audit.Record{{Redacted: true, ModelHash: "x"}, {UserAgent: "y"}} {
		if err := l.Explain(&rec); err != nil || rec.Explanation != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
	}
}

// frames calls fn with the body of each frame in p, which holds whole
// frames (the segment log never writes anything else).
func frames(p []byte, fn func(body []byte)) {
	for len(p) >= 8 {
		n := int(binary.BigEndian.Uint32(p[:4]))
		fn(p[8 : 8+n])
		p = p[8+n:]
	}
}

// tapFunc is an io.Writer that shows every write to fn first.
type tapFunc struct {
	fn func([]byte)
	w  io.Writer
}

func (t tapFunc) Write(p []byte) (int, error) {
	t.fn(p)
	return t.w.Write(p)
}

// TestHotSwapRecordsResolveToTheirOwnModel drives concurrent
// /v1/collect traffic across two SwapModels (run it under -race). Every
// record's hash resolves, each verdict replays through its own archived
// model, both deployments were archived, and — watched where the bytes
// leave for the disk — no record is written before the archive of the
// model it names is in place.
func TestHotSwapRecordsResolveToTheirOwnModel(t *testing.T) {
	first, ext := trainModel(t, 30, false)
	second, _ := trainModel(t, 14, true)
	dir := t.TempDir()

	// The tap reads frames as they leave: a class frame names a model, and
	// a record names one itself or through its class. The ledger stays in
	// one segment, so class ids are unique here.
	var mu sync.Mutex
	written := map[string]int{}
	classModel := map[int]string{}
	pairModels := map[string]map[string]bool{} // (ua, vector) → the models of its classes
	led, err := audit.OpenTapped(audit.Config{Dir: dir}, func(w io.Writer) io.Writer {
		return tapFunc{w: w, fn: func(p []byte) {
			mu.Lock()
			defer mu.Unlock()
			frames(p, func(body []byte) {
				rec, class, defines, ok := audit.DecodeFrame(body)
				if !ok {
					t.Errorf("frame does not decode: %q", body)
					return
				}
				hash := rec.ModelHash
				if defines {
					classModel[class] = hash
					pair := fmt.Sprint(rec.UserAgent, rec.Vector)
					if pairModels[pair] == nil {
						pairModels[pair] = map[string]bool{}
					}
					pairModels[pair][hash] = true
				} else if class != 0 {
					hash = classModel[class]
				}
				if _, err := os.Stat(filepath.Join(dir, "model."+hash+".json")); err != nil {
					t.Errorf("%q reaches the disk before its model's archive: %v", body, err)
				}
				if !defines {
					written[hash]++
				}
			})
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collect.NewServer(collect.Config{Model: first, Audit: led})
	if err != nil {
		t.Fatal(err)
	}

	var bodies [][]byte
	for _, c := range []struct{ actual, claimed ua.Release }{
		{ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Release{Vendor: ua.Chrome, Version: 112}},
		{ua.Release{Vendor: ua.Chrome, Version: 114}, ua.Release{Vendor: ua.Firefox, Version: 110}},
		{ua.Release{Vendor: ua.Firefox, Version: 95}, ua.Release{Vendor: ua.Firefox, Version: 95}},
	} {
		p := &fingerprint.Payload{
			UserAgent: ua.UserAgent(c.claimed, ua.Windows10),
			Values:    fingerprint.VectorToValues(ext.Extract(browser.Profile{Release: c.actual, OS: ua.Windows10})),
		}
		body, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}

	// Workers send until told to stop; the swaps land while they do, each
	// once the deployment before it has decided a hundred more verdicts.
	const workers, perPhase = 4, 100
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, collect.EndpointBinary, bytes.NewReader(bodies[(g+i)%len(bodies)])))
				if w.Code != http.StatusOK {
					t.Errorf("collect status %d: %s", w.Code, w.Body)
					return
				}
			}
		}(g)
	}
	phase := func() {
		for from := led.Counters().Records; led.Counters().Records < from+perPhase && !t.Failed(); {
			runtime.Gosched()
		}
	}
	for _, next := range []*core.Model{second, first} {
		phase()
		if err := srv.SwapModel(next); err != nil {
			t.Fatal(err)
		}
	}
	phase()
	close(stop)
	wg.Wait()
	total := int(led.Counters().Records)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	if got := archives(t, dir); len(got) != 2 {
		t.Fatalf("archive directory holds %v, want one file per deployed model", got)
	}
	models := audit.NewResolver(dir)
	seen := map[string]int{}
	stats, err := audit.Scan(dir, "", func(rec audit.Record) error {
		seen[rec.ModelHash]++
		m, err := models.Model(rec.ModelHash)
		if err != nil {
			return err
		}
		res, err := m.ScoreString(rec.Vector, rec.UserAgent)
		if err != nil {
			return err
		}
		if got := core.VerdictOf(res); got != rec.Verdict {
			t.Errorf("seq %d under %s: recorded %+v, its model gives %+v", rec.Seq, rec.ModelHash, rec.Verdict, got)
		}
		return models.Explain(&rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != total || !stats.Clean() {
		t.Fatalf("scan: %+v, want %d clean records", stats, total)
	}
	// At most one request per worker was in flight across a swap.
	h1, _ := first.Hash()
	h2, _ := second.Hash()
	if len(seen) != 2 || seen[h1] < 2*(perPhase-workers) || seen[h2] < perPhase-workers {
		t.Fatalf("records per model %v, want two phases under %s and one under %s", seen, h1, h2)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(written, seen) {
		t.Fatalf("the tap saw %v, the scan %v", written, seen)
	}
	// One segment, two models: a pair both decided has a class under each,
	// and every record above resolved to its own.
	both := 0
	for _, models := range pairModels {
		if len(models) == 2 {
			both++
		}
	}
	if len(pairModels) != len(bodies) || both == 0 {
		t.Fatalf("classes per pair %v, want %d pairs, some under both models", pairModels, len(bodies))
	}
}
