package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

// editField returns saved with the named field decoded into a T,
// edited, and encoded back.
func editField[T any](t testing.TB, saved []byte, field string, edit func(T) T) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(saved, &doc); err != nil {
		t.Fatal(err)
	}
	var v T
	if err := json.Unmarshal(doc[field], &v); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(edit(v))
	if err != nil {
		t.Fatal(err)
	}
	doc[field] = raw
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withRaggedRow returns saved with row 1 of the named matrix one
// column short.
func withRaggedRow(t testing.TB, saved []byte, field string) []byte {
	return editField(t, saved, field, func(rows [][]float64) [][]float64 {
		rows[1] = rows[1][:len(rows[1])-1]
		return rows
	})
}

// withBaseline returns saved with its drift baseline edited; edit gets
// the bins of the first feature that has two edges or more.
func withBaseline(t testing.TB, saved []byte, edit func(b core.Baseline, bins *core.Bins) core.Baseline) []byte {
	return editField(t, saved, "drift_baseline", func(b core.Baseline) core.Baseline {
		for j := range b {
			if len(b[j].Edges) >= 2 {
				return edit(b, &b[j])
			}
		}
		t.Fatal("no feature of the fixture's baseline has two edges")
		return nil
	})
}

// TestLoadRejectsRaggedRows: a model file whose centroid or PCA
// component rows differ in length, or whose drift baseline a drift
// monitor could not measure against, is an error — not a panic in
// matrix.FromRows, nor an index out of range or a division by zero in
// PSI on the first drift tick. A reload or an admin push of such a file
// must leave the caller standing.
func TestLoadRejectsRaggedRows(t *testing.T) {
	saved := core.SavedFixture(t)
	if _, err := core.Load(bytes.NewReader(saved)); err != nil {
		t.Fatalf("fixture does not load: %v", err)
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"centroids", withRaggedRow(t, saved, "centroids")},
		{"pca_components", withRaggedRow(t, saved, "pca_components")},
		{"baseline-features", withBaseline(t, saved, func(b core.Baseline, _ *core.Bins) core.Baseline { return b[1:] })},
		{"baseline-edges-descending", withBaseline(t, saved, func(b core.Baseline, bins *core.Bins) core.Baseline {
			bins.Edges[0], bins.Edges[1] = bins.Edges[1], bins.Edges[0]
			return b
		})},
		{"baseline-edges-tied", withBaseline(t, saved, func(b core.Baseline, bins *core.Bins) core.Baseline {
			bins.Edges[1] = bins.Edges[0]
			return b
		})},
		{"baseline-counts-short", withBaseline(t, saved, func(b core.Baseline, bins *core.Bins) core.Baseline {
			bins.Counts = bins.Counts[1:]
			return b
		})},
		{"baseline-count-negative", withBaseline(t, saved, func(b core.Baseline, bins *core.Bins) core.Baseline {
			bins.Counts[0] = -1
			return b
		})},
		{"baseline-counts-zero", withBaseline(t, saved, func(b core.Baseline, bins *core.Bins) core.Baseline {
			clear(bins.Counts)
			return b
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if m, err := core.Load(bytes.NewReader(tc.file)); err == nil || m != nil {
				t.Fatalf("model %v, err %v; want an error", m, err)
			}
		})
	}
}

// JSON cannot carry a non-finite edge, but a baseline built in memory
// can: Validate refuses it, and so does a drift monitor.
func TestBaselineRejectsNonFiniteEdges(t *testing.T) {
	for _, e := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := core.Baseline{{Edges: []float64{0, e}, Counts: []int{1, 1, 1}}}
		if err := b.Validate(1); err == nil {
			t.Errorf("edge %v accepted", e)
		}
	}
}

// TestTrainAttachesDriftBaseline: Train bins every ⌈n/512⌉-th training
// vector into the model's drift baseline, and the model file carries it
// unchanged.
func TestTrainAttachesDriftBaseline(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = 1100
	ds, m, _, err := dataset.Train(cfg, core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	var every3rd [][]float64
	for i := 0; i < len(ds.Sessions); i += 3 {
		every3rd = append(every3rd, ds.Sessions[i].Vector)
	}
	if want := core.BinColumns(every3rd, m.Dim()); !reflect.DeepEqual(m.Baseline, want) {
		t.Fatalf("baseline %+v\nwant the bins of every third of the %d vectors %+v", m.Baseline, len(ds.Sessions), want)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Baseline, m.Baseline) {
		t.Fatal("the model file does not carry the baseline unchanged")
	}
}

// FuzzLoad hardens the model deserializer: Load never panics, a model it
// accepts scores and explains a vector of its own width without error
// (Load refuses any model whose components disagree on their
// dimensions, so an accepted one has a score plan), and a drift monitor
// armed from it evaluates without panicking. The committed seeds (testdata/fuzz/FuzzLoad) are a Save'd
// fixture model over the first three Table 8 features, with two
// components and three clusters, whose kilobyte of JSON a mutation can
// reach across, its two ragged variants, and the same model carrying a
// drift baseline; the full fixture model, which carries one too, and
// its ragged variants are added here.
func FuzzLoad(f *testing.F) {
	saved := core.SavedFixture(f)
	f.Add(saved)
	f.Add(withRaggedRow(f, saved, "centroids"))
	f.Add(withRaggedRow(f, saved, "pca_components"))
	f.Add([]byte(`{"version":1,"features":[{"kind":"deviation-based","proto":"Element"}],"centroids":[[1]],"scaler_means":[0],"scaler_stds":[1]}`))
	agents := []string{
		ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10),
		"not a browser",
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := core.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		mon, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(m.Features), Reservoir: 32})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.SetBaseline(m.Baseline); err != nil {
			t.Fatalf("an accepted model's baseline is refused: %v", err)
		}
		for _, fill := range []float64{0, 1} {
			vector := make([]float64, m.Dim())
			for i := range vector {
				vector[i] = fill
			}
			for _, agent := range agents {
				res, err := m.ScoreString(vector, agent)
				if err != nil {
					t.Fatalf("an accepted model does not score a vector of its width: %v", err)
				}
				if _, err := m.ExplainResult(vector, agent, res, 0); err != nil {
					t.Fatalf("an accepted model does not explain its own verdict: %v", err)
				}
			}
			for i := 0; i < 16; i++ {
				mon.Observe(vector)
			}
		}
		mon.Evaluate()
	})
}
