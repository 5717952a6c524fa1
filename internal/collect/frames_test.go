package collect_test

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"polygraph/internal/collect"
	"polygraph/internal/fingerprint"
	"polygraph/internal/loadgen"
)

// TestRealFramesTakeTheScanner keeps the JSON fast path honest: the
// frames that are actually sent — the script's JSON.stringify, loadgen's
// pool, a json.Marshal of the frame struct — must be decoded by the
// scanner itself. If one of them drifted out of its grammar the service
// would still answer correctly, through encoding/json, and only the
// speed would be gone.
func TestRealFramesTakeTheScanner(t *testing.T) {
	feats := fingerprint.Table8()
	if !strings.Contains(collect.CollectionScript(feats, collect.EndpointJSON),
		"JSON.stringify({ sid: window.__bp_sid || '', ua: navigator.userAgent, v: v })") {
		t.Fatal("the collection script no longer posts {sid, ua, v}; update the frames below and the scanner with it")
	}
	const userAgent = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36"
	values := make([]int64, len(feats))
	for i := range values {
		values[i] = int64(i * 37 % 1500)
	}
	// JSON.stringify: keys in insertion order, no whitespace, the array as
	// comma-joined integers.
	stringify := func(sid string) []byte {
		v := strings.Trim(strings.ReplaceAll(fmt.Sprint(values), " ", ","), "[]")
		return []byte(`{"sid":"` + sid + `","ua":"` + userAgent + `","v":[` + v + `]}`)
	}
	marshalled, err := json.Marshal(struct {
		SessionID string  `json:"sid"`
		UserAgent string  `json:"ua"`
		Values    []int64 `json:"v"`
	}{"00112233445566778899aabbccddeeff", userAgent, values})
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{
		"script, no session":   stringify(""),
		"script, with session": stringify("00112233445566778899aabbccddeeff"),
		"json.Marshal":         marshalled,
	}

	sc := loadgen.ShortScenario(1)
	sc.JSONMix = 1
	pool, err := loadgen.BuildPool(sc, feats)
	if err != nil {
		t.Fatal(err)
	}
	for i, rq := range pool.Requests {
		frames[fmt.Sprintf("loadgen pool entry %d", i)] = rq.Body
	}

	for name, body := range frames {
		var p fingerprint.Payload
		if !collect.ScanJSONPayload(&p, body) {
			t.Errorf("%s fell through to encoding/json: %s", name, body)
			continue
		}
		var ref struct {
			SID string  `json:"sid"`
			UA  string  `json:"ua"`
			V   []int64 `json:"v"`
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sid := hex.EncodeToString(p.SessionID[:])
		if ref.SID == "" {
			ref.SID = strings.Repeat("0", len(sid))
		}
		if sid != ref.SID || p.UserAgent != ref.UA || fmt.Sprint(p.Values) != fmt.Sprint(ref.V) {
			t.Fatalf("%s: scanner read %s %q %v", name, sid, p.UserAgent, p.Values)
		}
	}
}
