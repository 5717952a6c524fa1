package audit_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"polygraph/internal/audit"
	"polygraph/internal/browser"
	"polygraph/internal/core"
	"polygraph/internal/ua"
)

// TestDeriveOncePerClass: the records of one class share one derivation
// from the class's second sighting on. A record that differs from them
// only in the sign of one zero has no class bytes, so it is derived every
// time and never shares theirs; the same class under another
// *core.Model, even one of the same hash, is a class of its own.
func TestDeriveOncePerClass(t *testing.T) {
	m, ext := trainModel(t, 25, false)
	dir := t.TempDir()
	l := openLedger(t, dir)
	hash, err := l.ArchiveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	claim := ua.UserAgent(ua.Release{Vendor: ua.Chrome, Version: 112}, ua.Windows10)
	vec := ext.Extract(browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10})
	vec[len(vec)-1] = 0
	negZero := slices.Clone(vec)
	negZero[len(vec)-1] = math.Copysign(0, -1)
	record := func(m *core.Model, v []float64) audit.Record {
		res, err := m.ScoreString(v, claim)
		if err != nil {
			t.Fatal(err)
		}
		return audit.Record{ModelHash: hash, UserAgent: claim, Vector: slices.Clone(v), Verdict: core.VerdictOf(res)}
	}
	r := audit.NewResolver(dir)
	explain := func(v []float64) *core.Explanation {
		rec := record(m, v)
		if err := r.Explain(&rec); err != nil || rec.Explanation == nil {
			t.Fatalf("explain %v: %v", v, err)
		}
		return rec.Explanation
	}
	derive := func(m *core.Model, v []float64) *core.Explanation {
		rec := record(m, v)
		d := r.Derive(m, &rec)
		if d.ScoreErr != nil || d.ExplainErr != nil || d.Verdict != rec.Verdict || d.Explanation == nil {
			t.Fatalf("derive %v: %+v", v, d)
		}
		return d.Explanation
	}

	first, second, third := explain(vec), explain(vec), explain(vec)
	if first == second || second != third {
		t.Fatalf("three records of a class: explanations %p %p %p, want the last two shared", first, second, third)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("a class's explanations differ:\n%+v\n%+v", first, second)
	}

	// Explain derived through the archived model, a *core.Model of its own.
	archived, err := r.Model(hash)
	if err != nil {
		t.Fatal(err)
	}
	own, ownAgain, back := derive(archived, negZero), derive(archived, negZero), derive(archived, vec)
	if own == second || ownAgain == second || own == ownAgain || back != second {
		t.Fatalf("a record that differs only in the sign of a zero: %p %p, its neighbour's %p then %p", own, ownAgain, second, back)
	}
	if archived == m {
		t.Fatal("fixture: the resolver returned the trained model itself")
	}
	if again := derive(m, vec); again == second || !reflect.DeepEqual(again, second) {
		t.Fatalf("another *core.Model of the same hash: explanation %p (%+v), the archived model's %p", again, again, second)
	}
}

// TestExplainConcurrently: explanations derived by concurrent Explain
// calls over a real ledger's records, which repeat a few classes, are the
// ones a lone reader derives. Run it under -race.
func TestExplainConcurrently(t *testing.T) {
	m, ext := trainModel(t, 25, true)
	dir := t.TempDir()
	l := openLedger(t, dir)
	hash, err := l.ArchiveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	releases := []ua.Release{{Vendor: ua.Chrome, Version: 112}, {Vendor: ua.Firefox, Version: 95}, {Vendor: ua.Edge, Version: 112}}
	for i := 0; i < 60; i++ {
		vec := ext.Extract(browser.Profile{Release: releases[i%3], OS: ua.Windows10})
		claim := ua.UserAgent(releases[i%2], ua.Windows10)
		res, err := m.ScoreString(vec, claim)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(audit.Record{TraceID: "t", ModelHash: hash, UserAgent: claim, Vector: vec, Verdict: core.VerdictOf(res)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []audit.Record
	if _, err := audit.Scan(dir, "", func(rec audit.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lone := audit.NewResolver(dir)
	want := make([][]byte, len(recs))
	for i, rec := range recs {
		if err := lone.Explain(&rec); err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(rec.Explanation)
	}

	shared := audit.NewResolver(dir)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range recs {
				i := (j + g*len(recs)/4) % len(recs)
				rec := recs[i]
				if err := shared.Explain(&rec); err != nil {
					t.Error(err)
					return
				}
				if got, _ := json.Marshal(rec.Explanation); !bytes.Equal(got, want[i]) {
					t.Errorf("seq %d: concurrent explanation\n%s\nwant\n%s", rec.Seq, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
