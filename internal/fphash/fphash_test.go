package fphash

import "testing"

// TestSeeded: one Hasher hashes a key alike twice and two keys apart,
// and two Hashers disagree on a key.
func TestSeeded(t *testing.T) {
	a, b := New(), New()
	key := []byte("\x02ua\x03\x02\x04\x06")
	if a.Bytes(key) != a.Bytes(append([]byte(nil), key...)) {
		t.Fatal("the same key hashes twice differently")
	}
	if a.Bytes(key) == a.Bytes([]byte("\x02ua\x03\x02\x04\x07")) {
		t.Fatal("the last byte is not in the hash")
	}
	if a.Bytes(key) == b.Bytes(key) {
		t.Fatal("two hashers agree on a key")
	}
}
