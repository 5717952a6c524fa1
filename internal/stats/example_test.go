package stats_test

import (
	"fmt"
	"log"

	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/stats"
)

// ExampleAnonymitySets is the §7.4 privacy argument: what leaves the
// browser is a ≤1 KB payload of integers, the fingerprints it carries
// fall into large anonymity sets, and no collected feature is as
// identifying as the user agent the browser already sends.
func ExampleAnonymitySets() {
	dcfg := dataset.DefaultConfig()
	dcfg.Sessions = 50000
	traffic, err := dataset.Generate(dcfg)
	if err != nil {
		log.Fatal(err)
	}
	s0 := traffic.Sessions[0]
	enc, err := (&fingerprint.Payload{UserAgent: s0.UAString, Values: fingerprint.VectorToValues(s0.Vector)}).MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wire payload: %d bytes (budget: %d)\n", len(enc), fingerprint.MaxPayloadSize)

	keys := make([]string, len(traffic.Sessions))
	uas := make([]string, len(traffic.Sessions))
	for i, s := range traffic.Sessions {
		keys[i], uas[i] = fmt.Sprint(s.Vector), s.UAString
	}
	fmt.Println("anonymity sets (paper Figure 5):")
	for _, b := range stats.AnonymitySets(keys) {
		fmt.Printf("  %-12s %6.2f%% of sessions\n", b.Label, b.Percent)
	}
	fmt.Printf("unique fingerprints: %.3f%%\n", 100*stats.UniqueRate(keys))

	fmt.Printf("user-agent entropy: %.2f bits (normalized %.3f)\n", stats.Entropy(uas), stats.NormalizedEntropy(uas))
	col := make([]int, len(traffic.Sessions))
	worst := 0.0
	for j := range s0.Vector {
		for i, s := range traffic.Sessions {
			col[i] = int(s.Vector[j])
		}
		worst = max(worst, stats.Entropy(col))
	}
	fmt.Printf("most diverse collected feature: %.2f bits\n", worst)
	// Output:
	// wire payload: 182 bytes (budget: 1024)
	// anonymity sets (paper Figure 5):
	//   1 (unique)     0.03% of sessions
	//   2-10           0.57% of sessions
	//   11-50          1.66% of sessions
	//   >50           97.74% of sessions
	// unique fingerprints: 0.028%
	// user-agent entropy: 5.12 bits (normalized 0.328)
	// most diverse collected feature: 2.35 bits
}
