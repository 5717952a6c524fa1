package polygraph

// bench_test.go regenerates every table and figure of the paper's
// evaluation as a testing.B benchmark, so `go test -bench=.` both times
// the pipeline and re-derives the results. One benchmark per table and
// figure, as DESIGN.md's experiment index specifies; the measured values
// are reported via b.ReportMetric where a single number captures the
// headline (accuracy, flag counts, payload size).

import (
	"context"
	"sync"
	"testing"

	"polygraph/internal/browser"
	"polygraph/internal/collect"
	"polygraph/internal/dataset"
	"polygraph/internal/experiments"
	"polygraph/internal/fingerprint"
	"polygraph/internal/ua"
)

// benchSessions keeps bench runs fast while preserving every structural
// result; cmd/reproduce -sessions 205000 runs the paper-scale version.
const benchSessions = 40000

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func sharedBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(benchSessions, 0)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkTable2Performance regenerates the tool comparison: collection
// cost and payload bytes per tool.
func BenchmarkTable2Performance(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	for _, r := range rows {
		if r.Tool == "BROWSER POLYGRAPH" {
			b.ReportMetric(float64(r.StorageBytes), "payload-bytes")
		}
	}
}

// BenchmarkTable3Train times the full production training pipeline and
// reports its clustering accuracy (paper: 99.6%).
func BenchmarkTable3Train(b *testing.B) {
	env := sharedBenchEnv(b)
	cfg := DefaultTrainConfig()
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := Train(env.Traffic.Samples(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc = m.Accuracy
	}
	b.ReportMetric(acc*100, "accuracy-%")
}

// BenchmarkTable4Flagging scores the full traffic and reports the flagged
// session count (paper: 897 of 205k).
func BenchmarkTable4Flagging(b *testing.B) {
	env := sharedBenchEnv(b)
	var flagged int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := env.FlaggedCount()
		if err != nil {
			b.Fatal(err)
		}
		flagged = n
	}
	b.ReportMetric(float64(flagged), "flagged-sessions")
}

// BenchmarkTable5FraudDetection reruns the fraud-browser experiment and
// reports overall recall (paper: 67-84% per tool).
func BenchmarkTable5FraudDetection(b *testing.B) {
	env := sharedBenchEnv(b)
	var rows []experiments.Table5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = env.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	flagged, total := 0, 0
	for _, r := range rows {
		flagged += r.Flagged
		total += r.Flagged + r.NotFlagged
	}
	b.ReportMetric(100*float64(flagged)/float64(total), "recall-%")
}

// BenchmarkTable6Drift runs the drift calendar (paper: retrain on 10/31).
func BenchmarkTable6Drift(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if res.RetrainDate == "" {
			b.Fatal("drift not detected")
		}
	}
}

// BenchmarkTable7Entropy computes the feature-entropy table.
func BenchmarkTable7Entropy(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	var rows []experiments.EntropyRow
	for i := 0; i < b.N; i++ {
		rows = env.Table7(8)
	}
	b.ReportMetric(rows[0].Normalized, "ua-normalized-entropy")
}

// BenchmarkTable9K6 retrains at k=6 (Appendix-2).
func BenchmarkTable9K6(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Table9(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable10KSweep runs the Appendix-4 cluster-count sensitivity.
func BenchmarkTable10KSweep(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Table10(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable11PCASweep runs the PCA-components sensitivity.
func BenchmarkTable11PCASweep(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Table11(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable12FeatureSweep runs the feature-count sensitivity.
func BenchmarkTable12FeatureSweep(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Table12(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable13Windows runs the Appendix-5 comparison on Windows.
func BenchmarkTable13Windows(b *testing.B) {
	var rows []experiments.Table13Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AppendixFive(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[0].Accuracy, "bp-accuracy-%")
}

// BenchmarkTable14MacOS runs the Appendix-5 comparison on macOS.
func BenchmarkTable14MacOS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AppendixFive(false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2PCA regenerates the cumulative-variance curve and
// reports what 7 components capture (paper: >98.5%).
func BenchmarkFigure2PCA(b *testing.B) {
	env := sharedBenchEnv(b)
	var pts []experiments.FigurePoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = env.Figure2()
	}
	b.ReportMetric(100*pts[6].Y, "cumvar-7-comps-%")
}

// BenchmarkFigure3Elbow regenerates the WCSS elbow curve.
func BenchmarkFigure3Elbow(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Figure3(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4RelativeWCSS regenerates the relative-WCSS series.
func BenchmarkFigure4RelativeWCSS(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Figure4(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Anonymity regenerates the anonymity-set distribution
// and reports the unique-fingerprint rate (paper: 0.3%).
func BenchmarkFigure5Anonymity(b *testing.B) {
	env := sharedBenchEnv(b)
	var res experiments.Figure5Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = env.Figure5()
	}
	b.ReportMetric(100*res.UniqueRate, "unique-fp-%")
}

// warmMemo scores s twice, so the verdict memo holds its (vector,
// user-agent) pair and every later call is answered from it.
func warmMemo(b *testing.B, env *experiments.Env, s dataset.Session) {
	for range 2 {
		if _, err := env.Model.ScoreString(s.Vector, s.UAString); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineScore times the production scoring path (paper budget:
// 100 ms; Table 2 claims 6 ms end to end) on one repeated session, so
// every call is a verdict-memo hit; internal/core's
// BenchmarkScoreString/all-distinct times the miss path.
func BenchmarkOnlineScore(b *testing.B) {
	env := sharedBenchEnv(b)
	s := env.Traffic.Sessions[0]
	warmMemo(b, env, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Model.ScoreString(s.Vector, s.UAString); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineScoreScratch is BenchmarkOnlineScore with caller-owned
// scratch (NewScratch + ScoreStringWith) — the per-connection serving
// shape, which skips even the scratch pool round-trip. It too times a
// memo hit. Steady state is 0 allocs/op; scripts/benchgate.sh gates on
// it.
func BenchmarkOnlineScoreScratch(b *testing.B) {
	env := sharedBenchEnv(b)
	s := env.Traffic.Sessions[0]
	warmMemo(b, env, s)
	scratch := env.Model.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Model.ScoreStringWith(scratch, s.Vector, s.UAString); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreBatch measures batched scoring over the full bench
// traffic — the web-scale backfill shape (paper §6.4: score 205k sessions
// in one pass) — split over GOMAXPROCS goroutines. With
// BenchmarkScoreBatchSerial it is the standing evidence for the one
// fan-out the train/score stack keeps: ×1.8 at 40 000 rows on two
// processors, where the training pool it outlived measured nothing.
// Results are identical by construction. The bench traffic repeats its
// (vector, user-agent) pairs, so after the first pass nearly every row
// is a verdict-memo hit.
func BenchmarkScoreBatch(b *testing.B) {
	benchmarkScoreBatch(b, 0)
}

// BenchmarkScoreBatchSerial pins workers=1: the same batch on the
// caller's goroutine alone.
func BenchmarkScoreBatchSerial(b *testing.B) {
	benchmarkScoreBatch(b, 1)
}

func benchmarkScoreBatch(b *testing.B, workers int) {
	env := sharedBenchEnv(b)
	sessions := env.Traffic.Sessions
	vectors := make([][]float64, len(sessions))
	userAgents := make([]string, len(sessions))
	for i, s := range sessions {
		vectors[i] = s.Vector
		userAgents[i] = s.UAString
	}
	b.ResetTimer()
	defer func() {
		perSec := 0.0
		if secs := b.Elapsed().Seconds(); secs > 0 {
			perSec = float64(len(sessions)) * float64(b.N) / secs
		}
		b.ReportMetric(perSec, "sessions/sec")
	}()
	for i := 0; i < b.N; i++ {
		if _, err := env.Model.ScoreStringBatchContext(context.Background(), vectors, userAgents, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectionExtract times the client-side probe evaluation that
// the ≤1 KB payload carries.
func BenchmarkCollectionExtract(b *testing.B) {
	oracle := browser.NewOracle()
	ext := fingerprint.NewExtractor(oracle, fingerprint.Table8())
	profile := browser.Profile{Release: ua.Release{Vendor: ua.Chrome, Version: 112}, OS: ua.Windows10}
	dst := make([]float64, len(ext.Features()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.ExtractInto(profile, dst)
	}
}

// BenchmarkCollectionScript times rendering the embeddable JS collector.
func BenchmarkCollectionScript(b *testing.B) {
	feats := fingerprint.Table8()
	var script string
	for i := 0; i < b.N; i++ {
		script = collect.CollectionScript(feats, "/v1/collect-json")
	}
	b.ReportMetric(float64(len(script)), "script-bytes")
}

// BenchmarkOnlineScoreParallel measures scoring throughput under
// concurrency — the web-scale serving shape — on memo hits.
func BenchmarkOnlineScoreParallel(b *testing.B) {
	env := sharedBenchEnv(b)
	s := env.Traffic.Sessions[0]
	warmMemo(b, env, s)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := env.Model.ScoreString(s.Vector, s.UAString); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRiskGate measures the full per-session decision stack:
// polygraph scoring plus the risk-based-authentication policy.
func BenchmarkRiskGate(b *testing.B) {
	env := sharedBenchEnv(b)
	policy := DefaultRiskPolicy()
	s := env.Traffic.Sessions[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.Model.ScoreString(s.Vector, s.UAString)
		if err != nil {
			b.Fatal(err)
		}
		_ = policy.Evaluate(RiskSignals{
			Polygraph:       res,
			UntrustedIP:     s.Tags.UntrustedIP,
			UntrustedCookie: s.Tags.UntrustedCookie,
		})
	}
}

// BenchmarkExtensionExperiments times the §8 extension analyses.
func BenchmarkExtensionExperiments(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.StratifiedSampling(2000); err != nil {
			b.Fatal(err)
		}
	}
}
