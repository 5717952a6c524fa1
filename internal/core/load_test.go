package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"polygraph/internal/ua"
)

// savedFixture returns the JSON of a trained fixture model.
func savedFixture(t testing.TB) []byte {
	t.Helper()
	m, _, _ := trainFixtureModel(t, 10)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRaggedRow returns saved with row 1 of the named matrix one
// column short.
func withRaggedRow(t testing.TB, saved []byte, field string) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(saved, &doc); err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	if err := json.Unmarshal(doc[field], &rows); err != nil {
		t.Fatal(err)
	}
	rows[1] = rows[1][:len(rows[1])-1]
	raw, err := json.Marshal(rows)
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

// TestLoadRejectsRaggedRows: a model file whose centroid or PCA
// component rows differ in length is an error, not a panic in
// matrix.FromRows — a reload or an admin push of such a file must leave
// the caller standing.
func TestLoadRejectsRaggedRows(t *testing.T) {
	saved := savedFixture(t)
	if _, err := Load(bytes.NewReader(saved)); err != nil {
		t.Fatalf("fixture does not load: %v", err)
	}
	for _, field := range []string{"centroids", "pca_components"} {
		t.Run(field, func(t *testing.T) {
			if m, err := Load(bytes.NewReader(withRaggedRow(t, saved, field))); err == nil || m != nil {
				t.Fatalf("ragged %s: model %v, err %v; want an error", field, m, err)
			}
		})
	}
}

// FuzzLoad hardens the model deserializer: Load never panics, and a
// model it accepts scores and explains a vector of its own width
// without panicking. The committed seeds (testdata/fuzz/FuzzLoad) are a
// Save'd fixture model over the first three Table 8 features, with two
// components and three clusters, whose kilobyte of JSON a mutation can
// reach across, and its two ragged variants; the full fixture model and
// its ragged variants are added here.
func FuzzLoad(f *testing.F) {
	saved := savedFixture(f)
	f.Add(saved)
	f.Add(withRaggedRow(f, saved, "centroids"))
	f.Add(withRaggedRow(f, saved, "pca_components"))
	f.Add([]byte(`{"version":1,"features":[{"kind":"deviation-based","proto":"Element"}],"centroids":[[1]],"scaler_means":[0],"scaler_stds":[1]}`))
	agents := []string{
		ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10),
		"not a browser",
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, fill := range []float64{0, 1} {
			vector := make([]float64, m.Dim())
			for i := range vector {
				vector[i] = fill
			}
			for _, agent := range agents {
				res, err := m.ScoreString(vector, agent)
				if err != nil {
					continue
				}
				m.ExplainResult(vector, agent, res, 0)
			}
		}
	})
}
