package collect

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"polygraph/internal/fingerprint"
)

// checkDecisionParity demands that Decision.AppendJSON and json.Marshal
// write the same bytes — the journal's lines are read back with
// encoding/json, here and by the risk pipeline.
func checkDecisionParity(t testing.TB, d Decision) {
	t.Helper()
	want, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	if got := d.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON does not append: %s", got)
	}
}

// checkHexIDParity demands that the reply's in-place hex session ID
// writes what AppendJSON writes for the same ID as a hex string.
func checkHexIDParity(t testing.TB, d Decision, id [fingerprint.SessionIDSize]byte) {
	t.Helper()
	d.SessionID = hex.EncodeToString(id[:])
	want := d.AppendJSON([]byte("prefix"))
	d.SessionID = "stale"
	if got := d.appendJSONHexID([]byte("prefix"), &id); !bytes.Equal(got, want) {
		t.Fatalf("appendJSONHexID differs from AppendJSON:\n got %s\nwant %s", got, want)
	}
}

// hostileSessionIDs are strings encoding/json escapes or repairs.
var hostileSessionIDs = []string{
	"", "00ff", `quote"back\slash`, "<script>&amp;</script>", "tab\tnewline\nnul\x00del\x7f",
	"line sep ", "bad\xffutf8\xc0\xaf", "é世界🙂", strings.Repeat("a", 300),
}

// TestDecisionEncodeParity walks boundary values of every field. A field
// added to Decision without a line in AppendJSON changes json.Marshal's
// output for the zero value and fails here.
func TestDecisionEncodeParity(t *testing.T) {
	if n := reflect.TypeOf(Decision{}).NumField(); n != 6 {
		t.Fatalf("Decision has %d fields; AppendJSON and this test know 6", n)
	}
	ints := []int{0, 1, -1, 10, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, id := range hostileSessionIDs {
		for i, n := range ints {
			checkDecisionParity(t, Decision{
				SessionID:     id,
				Cluster:       n,
				Matched:       i%2 == 0,
				RiskFactor:    ints[len(ints)-1-i],
				Flagged:       i%3 == 0,
				ElapsedMicros: int64(n),
			})
		}
	}
	// Sixteen IDs between them hold every byte value.
	for k := 0; k < 256/fingerprint.SessionIDSize; k++ {
		var id [fingerprint.SessionIDSize]byte
		for j := range id {
			id[j] = byte(k*fingerprint.SessionIDSize + j)
		}
		n := ints[k%len(ints)]
		checkHexIDParity(t, Decision{Cluster: n, Matched: k%2 == 0, RiskFactor: -n, Flagged: k%3 == 0, ElapsedMicros: int64(k)}, id)
	}
}

func FuzzDecisionEncodeParity(f *testing.F) {
	for i, id := range hostileSessionIDs {
		f.Add(id, []byte(id), int64(i)-3, int64(i)<<40, uint8(i))
	}
	f.Fuzz(func(t *testing.T, id string, raw []byte, a, b int64, bits uint8) {
		d := Decision{
			SessionID:     id,
			Cluster:       int(a),
			Matched:       bits&1 != 0,
			RiskFactor:    int(b),
			Flagged:       bits&2 != 0,
			ElapsedMicros: a ^ b,
		}
		checkDecisionParity(t, d)
		var sid [fingerprint.SessionIDSize]byte
		copy(sid[:], raw)
		checkHexIDParity(t, d, sid)
	})
}

// BenchmarkJournalAppend is one flagged decision encoded and buffered.
// scripts/benchgate.sh gates its allocs/op.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := OpenJournal(b.TempDir(), "bench", 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	d := Decision{SessionID: "00112233445566778899aabbccddeeff", Cluster: 7, RiskFactor: 12, Flagged: true, ElapsedMicros: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(d); err != nil {
			b.Fatal(err)
		}
	}
}
