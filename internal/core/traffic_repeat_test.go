package core_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// pairKey is a (vector, user-agent) pair as the verdict memo keys it:
// the vector's exact bits, then the user-agent bytes.
func pairKey(vec []float64, userAgent string) string {
	b := make([]byte, 0, 8*len(vec)+len(userAgent))
	for _, v := range vec {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(append(b, userAgent...))
}

// repeatShare scores sessions in order through a fresh copy of trained
// (so through an empty verdict memo) and returns the distinct (vector,
// user-agent) pairs, the share of sessions that repeat an earlier pair,
// and the share answered from the memo, for one scorer.
func repeatShare(t *testing.T, trained *core.Model, sessions []dataset.Session) (pairs int, repeat, hits float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	hit := 0
	scratch := m.NewScratch()
	for _, s := range sessions {
		seen[pairKey(s.Vector, s.UAString)] = true
		if core.MemoHolds(m, s.Vector, s.UAString) {
			hit++
		}
		if _, err := m.ScoreStringWith(scratch, s.Vector, s.UAString); err != nil {
			t.Fatal(err)
		}
	}
	n := float64(len(sessions))
	return len(seen), 1 - float64(len(seen))/n, float64(hit) / n
}

// generate is dataset.Generate from the default configuration as edit
// changes it.
func generate(t *testing.T, edit func(*dataset.Config)) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	edit(&cfg)
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// train fits the default configuration with the generator's reference
// fingerprints, as bench/ and TestVerdictGolden do.
func train(t *testing.T, ds *dataset.Dataset) *core.Model {
	t.Helper()
	cfg := core.DefaultTrainConfig()
	cfg.Reference = core.ExtractorReference{Extractor: ds.Extractor, OS: ua.Windows10}
	m, _, err := core.Train(ds.Samples(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// benchStream is bench/'s live stream for a seed (bench/stream.go): a
// pool of 2n sessions drawn with seed 1000+seed at the workload's fraud
// rate, of which the first round(flaggedShare·n) the model flags and the
// first n minus those it does not, each as its wire values decode.
func benchStream(t *testing.T, m *core.Model, seed uint64, fraudRate, flaggedShare float64, n int) []dataset.Session {
	t.Helper()
	pool := generate(t, func(c *dataset.Config) {
		c.Sessions, c.MaxVersion, c.Seed, c.FraudRate = 2*n, 114, 1000+seed, fraudRate
	}).Sessions
	wantFlagged := int(math.Round(flaggedShare * float64(n)))
	var flagged, benign []dataset.Session
	for _, s := range pool {
		res, err := m.ScoreString(s.Vector, s.UAString)
		if err != nil {
			t.Fatal(err)
		}
		s.Vector = fingerprint.ValuesToVectorInto(nil, fingerprint.VectorToValues(s.Vector))
		if res.Flagged() {
			flagged = append(flagged, s)
		} else {
			benign = append(benign, s)
		}
	}
	return append(flagged[:wantFlagged], benign[:n-wantFlagged]...)
}

// TestTrafficRepeatShare names the property the verdict memo stands on:
// the fingerprint is coarse on purpose (§6.4, §7.4), so a few hundred
// (vector, user-agent) pairs cover whole populations and almost every
// session repeats an earlier one. It reports distinct pairs, the repeat
// share and the memo's hit share (4 096 slots, in generation order) for
// bench/'s seed-1 streams, the 205 000-session default set, the Table 6
// drift set and a 50 %-fraud set; DESIGN.md §4 carries the table. The
// floors hold with room on every seed of the memo's hash.
func TestTrafficRepeatShare(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and scores ~600 000 sessions")
	}
	def := generate(t, func(*dataset.Config) {})
	benchModel := train(t, generate(t, func(c *dataset.Config) { c.Sessions = 60000 }))
	paperModel := train(t, def)

	cases := []struct {
		name     string
		m        *core.Model
		sessions func() []dataset.Session
		minShare float64
	}{
		{"login-http, replay-tcp (seed 1)", benchModel, func() []dataset.Session {
			return benchStream(t, benchModel, 1, 0.01, 0.01, 20000)
		}, 0.95},
		{"attack-audit-http (seed 1)", benchModel, func() []dataset.Session {
			return benchStream(t, benchModel, 1, 0.5, 0.44, 20000)
		}, 0.92},
		{"default set, 205 000 sessions", paperModel, func() []dataset.Session { return def.Sessions }, 0.985},
		{"Table 6 drift set", paperModel, func() []dataset.Session {
			return generate(t, func(c *dataset.Config) {
				c.Window, c.MaxVersion, c.Sessions, c.Seed = dataset.DriftWindow, 119, 60000, 20231025
			}).Sessions
		}, 0.975},
		{"50 % fraud, 60 000 sessions", paperModel, func() []dataset.Session {
			return generate(t, func(c *dataset.Config) { c.FraudRate, c.Sessions = 0.5, 60000 }).Sessions
		}, 0.94},
	}
	for _, c := range cases {
		sessions := c.sessions()
		pairs, repeat, hits := repeatShare(t, c.m, sessions)
		t.Logf("%-32s %7d sessions %5d pairs  repeat %.2f %%  memo hits %.2f %%", c.name, len(sessions), pairs, 100*repeat, 100*hits)
		if hits < c.minShare {
			t.Errorf("%s: memo hit share %.4f below %.2f", c.name, hits, c.minShare)
		}
	}
}
