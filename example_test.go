package polygraph_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"sync"

	"polygraph"
	"polygraph/internal/browser"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/drift"
	"polygraph/internal/experiments"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fraud"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// ExampleParseUserAgent shows claimed-identity extraction.
func ExampleParseUserAgent() {
	r, err := polygraph.ParseUserAgent(
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r)
	// Output: Chrome 112
}

// trainDetector trains the examples' detector on 30 000 synthetic
// sessions against the Windows 10 browser oracle.
func trainDetector(novelty bool) (*polygraph.Traffic, *polygraph.Model) {
	tcfg := polygraph.DefaultTrafficConfig()
	tcfg.Sessions = 30000
	traffic, err := polygraph.GenerateTraffic(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := polygraph.DefaultTrainConfig()
	cfg.NoveltyGuard = novelty
	cfg.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	model, _, err := polygraph.Train(traffic.Samples(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	return traffic, model
}

// ExampleTrain trains a model on synthetic FinOrg-like traffic and
// scores an honest session and a lying one.
func ExampleTrain() {
	// 1. Generate traffic. In production this is the collection tier's
	// output; here the simulator stands in for FinOrg (see DESIGN.md).
	tcfg := polygraph.DefaultTrafficConfig()
	tcfg.Sessions = 30000
	traffic, err := polygraph.GenerateTraffic(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d sessions across %d browser releases\n",
		len(traffic.Sessions), traffic.DistinctReleases())

	// 2. Train with the paper's production configuration: 28 features,
	// 7 PCA components, k = 11 clusters.
	model, report, err := polygraph.Train(traffic.Samples(), polygraph.DefaultTrainConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %.2f%% clustering accuracy, %d outliers filtered\n",
		100*model.Accuracy, report.OutliersFiltered)

	// 3. Score an honest session: fingerprint and claim agree.
	honest := traffic.Sessions[0]
	res, err := model.ScoreString(honest.Vector, honest.UAString)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("honest %s session: cluster %d, flagged=%v, risk=%d\n",
		honest.Claimed, res.Cluster, res.Flagged(), res.RiskFactor)

	// 4. Score a liar: the same Edge fingerprint claiming Firefox 110 —
	// the category-2 fraud-browser signature.
	const lie = "Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:110.0) Gecko/20100101 Firefox/110.0"
	res, err = model.ScoreString(honest.Vector, lie)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same fingerprint claiming Firefox 110: flagged=%v, risk=%d (max=20)\n",
		res.Flagged(), res.RiskFactor)
	// Output:
	// generated 30000 sessions across 142 browser releases
	// trained: 99.66% clustering accuracy, 25 outliers filtered
	// honest Edge 109 session: cluster 2, flagged=false, risk=0
	// same fingerprint claiming Firefox 110: flagged=true, risk=20 (max=20)
}

// ExampleDefaultRiskPolicy shows the risk-based-authentication
// integration: a cross-vendor polygraph hit denies outright.
func ExampleDefaultRiskPolicy() {
	policy := polygraph.DefaultRiskPolicy()
	dec := policy.Evaluate(polygraph.RiskSignals{
		Polygraph: polygraph.Result{Matched: false, RiskFactor: 20},
	})
	fmt.Println(dec.Action)
	// Output: deny
}

// ExampleDefaultRiskPolicy_traffic is the full risk-based
// authentication stack the paper deploys into (§4): the detector scores
// each session, the policy combines that with the session's IP and
// cookie trust signals, and the gate allows, steps up or denies.
func ExampleDefaultRiskPolicy_traffic() {
	traffic, model := trainDetector(true) // arm the alien-surface check
	policy := polygraph.DefaultRiskPolicy()

	type bucket struct{ allow, stepUp, deny int }
	var honest, fraudulent bucket
	var exampleDeny string
	for _, s := range traffic.Sessions {
		res, err := model.ScoreString(s.Vector, s.UAString)
		if err != nil {
			log.Fatal(err)
		}
		dec := policy.Evaluate(polygraph.RiskSignals{
			Polygraph:       res,
			UntrustedIP:     s.Tags.UntrustedIP,
			UntrustedCookie: s.Tags.UntrustedCookie,
		})
		b := &honest
		if s.Fraud {
			b = &fraudulent
		}
		switch dec.Action {
		case polygraph.Allow:
			b.allow++
		case polygraph.StepUp:
			b.stepUp++
		case polygraph.Deny:
			b.deny++
			if s.Fraud && exampleDeny == "" {
				exampleDeny = fmt.Sprintf("%s session via %s → %s", s.Claimed, s.FraudTool, dec.Explain())
			}
		}
	}
	show := func(name string, b bucket) {
		total := b.allow + b.stepUp + b.deny
		fmt.Printf("%-6s %5d sessions: allow %6.2f%%  step-up %5.2f%%  deny %5.2f%%\n", name, total,
			100*float64(b.allow)/float64(total), 100*float64(b.stepUp)/float64(total), 100*float64(b.deny)/float64(total))
	}
	show("honest", honest)
	show("fraud", fraudulent)
	fmt.Println(exampleDeny)
	// Output:
	// honest 29914 sessions: allow  99.97%  step-up  0.03%  deny  0.00%
	// fraud     86 sessions: allow  12.79%  step-up 38.37%  deny 48.84%
	// Chrome 112 session via Sphere-1.3 → deny (score 59): polygraph cluster mismatch; polygraph risk factor 11; unfamiliar IP; fresh cookie
}

// ExampleDriftDetector deploys a model trained on the March–July window,
// then walks the late-July–October release calendar checking each new
// browser release for drift, as §6.6/§7.3 describe. The Chrome 119 and
// Firefox 119 releases trip the retraining signal.
func ExampleDriftDetector() {
	_, model := trainDetector(false)
	driftData, err := experiments.DriftTraffic(0)
	if err != nil {
		log.Fatal(err)
	}
	det := &polygraph.DriftDetector{Model: model}
	for _, entry := range drift.Calendar2023() {
		fmt.Printf("%s:", entry.Label)
		for _, rel := range entry.Releases {
			var vectors [][]float64
			for _, s := range driftData.Sessions {
				if s.Claimed == rel && s.Day <= entry.Day {
					vectors = append(vectors, s.Vector)
				}
			}
			ev, err := det.Evaluate(rel, vectors)
			if err != nil {
				log.Fatal(err)
			}
			status := "stable"
			if ev.Retrain {
				status = "DRIFT"
			}
			fmt.Printf(" %s %.2f%% %s;", rel, 100*ev.Accuracy, status)
		}
		fmt.Println()
	}
	// Output:
	// 07/25: Chrome 115 99.31% stable; Firefox 115 100.00% stable; Edge 115 100.00% stable;
	// 08/25: Chrome 116 99.68% stable; Firefox 116 99.39% stable; Edge 116 99.82% stable;
	// 09/25: Chrome 117 99.74% stable; Firefox 117 99.43% stable; Edge 117 99.85% stable;
	// 10/23: Chrome 118 99.65% stable; Firefox 118 99.78% stable; Edge 118 99.86% stable;
	// 10/31: Chrome 119 96.45% DRIFT; Firefox 119 99.26% DRIFT; Edge 119 100.00% stable;
}

// ExampleNewServer runs the deployment loop in one process: the
// collection/scoring HTTP service, the script a page embeds, and a burst
// of honest and fraud-browser sessions replayed by eight concurrent
// clients, tallied from the verdicts the service answers.
func ExampleNewServer() {
	traffic, model := trainDetector(false)
	srv, err := polygraph.NewServer(collect.Config{Model: model})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := polygraph.NewClient(ts.URL)
	script, err := client.FetchScript(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection script: %d bytes of JavaScript, %d probes\n", len(script), model.Dim())

	const workers, perWorker = 8, 250
	type tally struct {
		scored, flagged, rejected int
		maxElapsedUs              int64
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	tool, _ := fraud.ToolByName("GoLogin-3.3.23")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := rng.New(uint64(1000 + w))
			c := polygraph.NewClient(ts.URL)
			t := &tallies[w]
			for i := 0; i < perWorker; i++ {
				fraudulent := gen.Bool(0.02)
				claimed := ua.Release{Vendor: ua.Chrome, Version: 110 + gen.Intn(5)}
				profile := browser.Profile{Release: claimed, OS: ua.Windows10}
				if fraudulent { // a fraud browser impersonating the victim
					spoof := tool.Spoof(claimed, ua.Windows10, gen)
					claimed, profile = spoof.Claimed, spoof.Profile
				}
				payload := &polygraph.Payload{
					UserAgent: ua.UserAgent(claimed, ua.Windows10),
					Values:    fingerprint.VectorToValues(traffic.Extractor.Extract(profile)),
				}
				dec, err := c.Submit(context.Background(), payload)
				var reject *collect.ClientError
				switch {
				case errors.As(err, &reject) && reject.Kind == collect.FailStatus:
					t.rejected++
				case err != nil:
					log.Fatal(err)
				default:
					t.scored++
					if dec.Flagged {
						t.flagged++
					}
					t.maxElapsedUs = max(t.maxElapsedUs, dec.ElapsedMicros)
				}
			}
		}(w)
	}
	wg.Wait()

	var sum tally
	for _, t := range tallies {
		sum.scored += t.scored
		sum.flagged += t.flagged
		sum.rejected += t.rejected
		sum.maxElapsedUs = max(sum.maxElapsedUs, t.maxElapsedUs)
	}
	fmt.Printf("replayed %d sessions over HTTP: %d flagged, %d rejected\n",
		sum.scored, sum.flagged, sum.rejected)
	fmt.Println("slowest score within the 100 ms budget:", sum.maxElapsedUs < 100_000)
	// Output:
	// collection script: 2694 bytes of JavaScript, 28 probes
	// replayed 2000 sessions over HTTP: 56 flagged, 0 rejected
	// slowest score within the 100 ms budget: true
}
