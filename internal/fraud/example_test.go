package fraud_test

import (
	"fmt"
	"log"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fraud"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// ExampleKnownTools sweeps the Table 1 fraud-browser catalog against a
// trained detector, the §7.2 private-website experiment: each product
// impersonates ten popular victim releases.
func ExampleKnownTools() {
	dcfg := dataset.DefaultConfig()
	dcfg.Sessions = 30000
	traffic, err := dataset.Generate(dcfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	model, _, err := core.Train(traffic.Samples(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	victims := []ua.Release{
		{Vendor: ua.Chrome, Version: 112}, {Vendor: ua.Chrome, Version: 114},
		{Vendor: ua.Chrome, Version: 105}, {Vendor: ua.Chrome, Version: 95},
		{Vendor: ua.Edge, Version: 113}, {Vendor: ua.Edge, Version: 108},
		{Vendor: ua.Firefox, Version: 110}, {Vendor: ua.Firefox, Version: 102},
		{Vendor: ua.Firefox, Version: 95}, {Vendor: ua.Chrome, Version: 64},
	}
	fmt.Printf("%-20s %-10s %6s %8s\n", "tool", "category", "caught", "avg risk")
	for _, tool := range fraud.KnownTools() {
		gen := rng.NewString("fraudhunt:" + tool.FullName())
		caught, riskSum := 0, 0
		for _, victim := range victims {
			spoof := tool.Spoof(victim, ua.Windows10, gen)
			res, err := model.ScoreString(traffic.Extractor.Extract(spoof.Profile), ua.UserAgent(spoof.Claimed, ua.Windows10))
			if err != nil {
				log.Fatal(err)
			}
			if res.Flagged() {
				caught++
				riskSum += res.RiskFactor
			}
		}
		avg := 0.0
		if caught > 0 {
			avg = float64(riskSum) / float64(caught)
		}
		fmt.Printf("%-20s %-10s %3d/%-2d %8.2f\n", tool.FullName(), tool.Category, caught, len(victims), avg)
	}
	// Categories 3 and 4 stay invisible by design: their engines match
	// their claims, the coarse-grained technique's stated limit (§8).

	// Output:
	// tool                 category   caught avg risk
	// Linken Sphere-8.93   Category 1  10/10    20.00
	// ClonBrowser-4.6.6    Category 1  10/10    20.00
	// Incogniton-3.2.7.7   Category 2   8/10     9.38
	// GoLogin-3.2.19       Category 2   8/10     9.00
	// GoLogin-3.3.23       Category 2   8/10     9.00
	// CheBrowser-0.3.38    Category 2   7/10     1.86
	// VMLogin-1.3.8.5      Category 2   8/10     9.00
	// Octo Browser-1.10    Category 2   9/10     8.78
	// Sphere-1.3           Category 2   9/10     9.33
	// AntBrowser           Category 2   8/10     2.62
	// AdsPower-4.12.27     Category 3   0/10     0.00
	// AdsPower-5.4.20      Category 3   0/10     0.00
}
