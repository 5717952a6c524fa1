package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestScenarioFileRoundTrip(t *testing.T) {
	sc := &Scenario{
		Name:       "soak",
		Seed:       99,
		Pool:       256,
		MaxVersion: 119,
		FraudMix:   0.05,
		JSONMix:    0.5,
		Budget:     Duration(90 * time.Second),
		Phases: []Phase{
			{Name: "ramp", Requests: 100, Concurrency: 2, RPS: 50},
			{Name: "steady", Duration: Duration(30 * time.Second), Concurrency: 8, RPS: 200},
		},
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "soak.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != sc.Name || got.Seed != sc.Seed || got.Pool != sc.Pool {
		t.Fatalf("round trip lost headers: %+v", got)
	}
	if len(got.Phases) != 2 || got.Phases[1].Duration != Duration(30*time.Second) {
		t.Fatalf("round trip lost phases: %+v", got.Phases)
	}
	if got.Budget != Duration(90*time.Second) {
		t.Fatalf("budget = %v", time.Duration(got.Budget))
	}
}

// TestCommittedBenchScenariosLoad pins every scripts/*-bench.json — the
// scenario files CI's smoke jobs and the README hand to -scenario — to
// what LoadScenario accepts, so a bad edit fails here, not in a smoke job.
func TestCommittedBenchScenariosLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scripts", "*-bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("found %v, want at least serve-bench.json and tcp-bench.json", paths)
	}
	for _, path := range paths {
		if _, err := LoadScenario(path); err != nil {
			t.Errorf("committed scenario: %v", err)
		}
	}
}

func TestDurationJSONForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"250ms"`), &d); err != nil || d != Duration(250*time.Millisecond) {
		t.Fatalf("string form: %v %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`1500000000`), &d); err != nil || d != Duration(1500*time.Millisecond) {
		t.Fatalf("numeric form: %v %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`"nonsense"`), &d); err == nil {
		t.Fatal("nonsense duration accepted")
	}
}

func TestScenarioValidate(t *testing.T) {
	valid := func() *Scenario {
		return &Scenario{
			Name: "ok", Pool: 8, FraudMix: 0.1, JSONMix: 0.2,
			Phases: []Phase{{Name: "p", Requests: 10, Concurrency: 1}},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		break_ func(*Scenario)
	}{
		{"zero pool", func(s *Scenario) { s.Pool = 0 }},
		{"fraud mix over 1", func(s *Scenario) { s.FraudMix = 1.5 }},
		{"negative json mix", func(s *Scenario) { s.JSONMix = -0.1 }},
		{"invalid mix over 1", func(s *Scenario) { s.InvalidMix = 2 }},
		{"negative budget", func(s *Scenario) { s.Budget = Duration(-5 * time.Minute) }},
		{"no phases", func(s *Scenario) { s.Phases = nil }},
		{"unnamed phase", func(s *Scenario) { s.Phases[0].Name = "" }},
		{"neither bound", func(s *Scenario) { s.Phases[0].Requests = 0 }},
		{"both bounds", func(s *Scenario) { s.Phases[0].Duration = Duration(time.Second) }},
		{"negative rps", func(s *Scenario) { s.Phases[0].RPS = -1 }},
		{"requests and a negative duration", func(s *Scenario) { s.Phases[0].Duration = Duration(-time.Second) }},
	}
	for _, tc := range cases {
		sc := valid()
		tc.break_(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBuiltinScenariosValid(t *testing.T) {
	for _, sc := range []*Scenario{ShortScenario(1), DefaultScenario(1)} {
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin scenario %q invalid: %v", sc.Name, err)
		}
	}
}

// FuzzScenario: what LoadScenario runs on the bytes of a scenario file —
// json.Unmarshal, then Validate — never panics, and a scenario it
// accepts is accepted again, unchanged, after a round trip through
// json.Marshal. The committed seeds (testdata/fuzz/FuzzScenario) are
// scripts/tcp-bench.json and scripts/serve-bench.json, the first half of
// each, and a copy of the first with a negative budget and a phase of
// negative duration.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		if json.Unmarshal(data, &sc) != nil || sc.Validate() != nil {
			return
		}
		out, err := json.Marshal(&sc)
		if err != nil {
			t.Fatal(err)
		}
		var again Scenario
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("an accepted scenario does not parse again: %v\n%s", err, out)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("an accepted scenario is refused after a round trip: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("the round trip changed the scenario:\n%+v\n%+v", sc, again)
		}
	})
}
