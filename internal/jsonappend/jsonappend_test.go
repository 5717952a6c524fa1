package jsonappend

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"polygraph/internal/rng"
)

// TestFloatMatchesEncodingJSON draws bit patterns, small integers and
// decimal fractions and demands json.Marshal's bytes — or its error —
// for each.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	r := rng.New(14)
	check := func(f float64) {
		t.Helper()
		want, wantErr := json.Marshal(f)
		got, gotErr := Float(nil, f)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%v (%#x): error %v, json.Marshal %v", f, math.Float64bits(f), gotErr, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%#x: got %s, json.Marshal %s", math.Float64bits(f), got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 1e20, 1 << 53, -(1 << 53), 1<<53 + 2, 1 << 63,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		check(f)
		check(-f)
	}
	for i := 0; i < 50000; i++ {
		check(math.Float64frombits(r.Uint64()))
		check(float64(r.Int63()>>uint(r.Intn(63))) * []float64{1, -1}[i%2])
		check(float64(r.Intn(2_000_000)-1_000_000) / 1000)
		check(r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30)))
	}
}

// TestStringMatchesEncodingJSON covers every byte value alone and in
// context, the escaped code points, and random byte strings (mostly
// invalid UTF-8).
func TestStringMatchesEncodingJSON(t *testing.T) {
	r := rng.New(14)
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, json.Marshal %s", s, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		check(string([]byte{byte(b)}))
		check("a" + string([]byte{byte(b)}) + "z")
	}
	for _, s := range []string{"", "plain", "\u2028", "\u2029", "\u2027\u202a", "\ufffd", "é <\xff>&\"\\", "\xe2\x80", "\xf0\x9f\xa6", "🦊"} {
		check(s)
	}
	for i := 0; i < 20000; i++ {
		b := make([]byte, r.Intn(24))
		for j := range b {
			b[j] = byte(r.Uint64())
			if i%2 == 0 { // half the strings stay mostly ASCII
				b[j] &= 0x7f
			}
		}
		check(string(b))
	}
}
