package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fraud"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// TestVerdictGolden pins what the trained model decides rather than the
// bits it was trained to: one digest of (cluster, matched, risk factor,
// flagged) over
//   - every session of the default 205 000-session dataset, scored by its
//     user-agent string;
//   - a drift-window collection (releases up to 119, which the training
//     window never saw), the Table 6 set;
//   - every internal/fraud product impersonating every release up to 119;
//
// each scored by the model trained on the 205 000 sessions. A change to a
// training reduction's float association order moves TestModelGolden's
// hashes; it must leave this digest alone. The value was measured before
// training moved onto count-weighted sums over the distinct rows.
func TestVerdictGolden(t *testing.T) {
	const want = "08d09c1d52bb03928b4734bb8e665623"

	ds, err := dataset.Generate(dataset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Reference = core.ExtractorReference{Extractor: ds.Extractor, OS: ua.Windows10}
	m, _, err := core.Train(ds.Samples(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var buf []byte
	verdicts, flagged := 0, 0
	record := func(res core.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.AppendUvarint(buf[:0], uint64(res.Cluster))
		buf = binary.AppendUvarint(buf, uint64(res.RiskFactor))
		var bits byte
		if res.Matched {
			bits |= 1
		}
		if res.Flagged() {
			bits |= 2
			flagged++
		}
		h.Write(append(buf, bits))
		verdicts++
	}

	for _, s := range ds.Sessions {
		record(m.ScoreString(s.Vector, s.UAString))
	}
	dcfg := dataset.DefaultConfig()
	dcfg.Window = dataset.DriftWindow
	dcfg.MaxVersion = 119
	dcfg.Sessions = 60000
	dcfg.Seed = 20231025
	drift, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range drift.Sessions {
		record(m.ScoreString(s.Vector, s.UAString))
	}
	for _, tool := range fraud.KnownTools() {
		gen := rng.NewString("verdict-golden:" + tool.FullName())
		for _, victim := range ua.Universe(119) {
			spoof := tool.Spoof(victim, ua.Windows10, gen)
			record(m.ScoreString(ds.Extractor.Extract(spoof.Profile), ua.UserAgent(spoof.Claimed, ua.Windows10)))
		}
	}

	got := hex.EncodeToString(h.Sum(nil))[:32]
	t.Logf("%d verdicts, %d flagged, digest %s", verdicts, flagged, got)
	if got != want {
		t.Errorf("verdict digest %s, want %s", got, want)
	}
}
