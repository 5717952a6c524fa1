package polygraph

import (
	"bytes"
	"testing"
)

// TestPublicAPIEndToEnd exercises the re-exported surface the README
// advertises: generate traffic, train, score, save/load.
func TestPublicAPIEndToEnd(t *testing.T) {
	tcfg := DefaultTrafficConfig()
	tcfg.Sessions = 15000
	traffic, err := GenerateTraffic(tcfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultTrainConfig()
	model, report, err := Train(traffic.Samples(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.Accuracy < 0.98 {
		t.Fatalf("accuracy %v", model.Accuracy)
	}
	if report.InputRows != 15000 {
		t.Fatalf("report rows %d", report.InputRows)
	}

	// Honest session.
	honest := traffic.Sessions[0]
	res, err := model.ScoreString(honest.Vector, honest.UAString)
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	// Save/load parity.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := loaded.ScoreString(honest.Vector, honest.UAString)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("reloaded model disagrees")
	}
}

func TestTable8FeaturesExported(t *testing.T) {
	if len(Table8Features()) != 28 {
		t.Fatal("Table 8 feature set wrong size")
	}
}

func TestParseUserAgentExported(t *testing.T) {
	r, err := ParseUserAgent("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36")
	if err != nil {
		t.Fatal(err)
	}
	if r.Vendor != Chrome || r.Version != 112 {
		t.Fatalf("parsed %v", r)
	}
}
