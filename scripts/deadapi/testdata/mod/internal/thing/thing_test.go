package thing

import "testing"

func TestDead(t *testing.T) {
	if Dead() != 1 || Tested != 5 {
		t.Fatal("fixture")
	}
}
