package obs

import (
	"slices"
	"strings"
	"testing"
)

func TestFamiliesDeclaredOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Families() {
		if seen[f.Name] {
			t.Errorf("%s declared twice", f.Name)
		}
		seen[f.Name] = true
		if !lintNameRe.MatchString(f.Name) || !strings.HasPrefix(f.Name, "polygraph_") {
			t.Errorf("%s: not a polygraph_ metric name", f.Name)
		}
		if f.Help == "" {
			t.Errorf("%s has no HELP", f.Name)
		}
		switch f.Type {
		case "counter":
			if !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("counter %s does not end in _total", f.Name)
			}
		case "gauge", "histogram":
		default:
			t.Errorf("%s has TYPE %q", f.Name, f.Type)
		}
		if f.Surface != "" && !slices.Contains(Surfaces, f.Surface) {
			t.Errorf("%s is on undeclared surface %q", f.Name, f.Surface)
		}
	}
}

func TestRequiredFamilies(t *testing.T) {
	for _, s := range Surfaces {
		if len(RequiredFamilies(string(s))) == 0 {
			t.Errorf("surface %s carries no family", s)
		}
	}
	got := RequiredFamilies(" tcp", "", "polygraph_custom ")
	want := []string{
		FamTCPScored.Name, FamTCPFlagged.Name, FamTCPBadHandshakes.Name,
		FamTCPBadFrames.Name, FamTCPBatchSize.Name, "polygraph_custom",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("RequiredFamilies(tcp, polygraph_custom) = %v, want %v", got, want)
	}
	replica := RequiredFamilies("replica")
	if !slices.Contains(replica, ReplicaSLO.Alert.Name) || slices.Contains(replica, FleetSLO.Alert.Name) {
		t.Fatalf("replica surface = %v", replica)
	}
}
