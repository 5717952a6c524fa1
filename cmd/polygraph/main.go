// Command polygraph is the operator CLI for the Browser Polygraph
// reproduction: generate traffic, train models, inspect them, score
// sessions, and run drift checks.
//
// Usage:
//
//	polygraph generate -sessions 60000 -o sessions.jsonl      # FinOrg-style data handoff
//	polygraph train    -sessions 60000 -o model.json           # generate + train in one step
//	polygraph train    -data sessions.jsonl -o model.json      # train from a handoff file
//	polygraph train    -novelty -o model.json                  # arm the novelty guard
//	polygraph info     -model model.json
//	polygraph score    -model model.json -ua "<user-agent>" -values 150,212,...
//	polygraph replay   -model model.json -data sessions.jsonl  # batch re-score a dataset
//	polygraph drift    -model model.json
//	polygraph script   -model model.json
//
// train is the one offline trainer: the model file it writes carries
// the model's drift baseline, and polygraphd loads it (-model) or the
// fleet control plane pushes it (polygraphctl push).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/drift"
	"polygraph/internal/experiments"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/ua"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "score":
		err = cmdScore(os.Args[2:])
	case "drift":
		err = cmdDrift(os.Args[2:])
	case "script":
		err = cmdScript(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Println(obs.Version("polygraph"))
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "polygraph:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: polygraph <command> [flags]

commands:
  generate  export synthetic FinOrg traffic as a JSONL handoff file
  train     train a model (from generated traffic or -data file)
  replay    batch re-score a JSONL dataset against a model
  info      print a trained model's cluster table and metadata
  score     score one fingerprint vector against a claimed user-agent
  drift     run the drift-detection calendar against a trained model
  script    print the client-side collection script for a model`)
}

func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	sessions := fs.Int("sessions", 60000, "sessions to generate (paper: 205000)")
	seed := fs.Uint64("seed", 0, "traffic seed")
	out := fs.String("o", "sessions.jsonl", "output JSONL path")
	withTags := fs.Bool("tags", false, "include the evaluation risk tags")
	fs.Parse(args)

	cfg := dataset.DefaultConfig()
	cfg.Sessions = *sessions
	if *seed != 0 {
		cfg.Seed = *seed
	}
	fmt.Printf("generating %d sessions...\n", cfg.Sessions)
	traffic, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := traffic.WriteJSONL(f, *withTags); err != nil {
		return err
	}
	fmt.Printf("%d sessions written to %s (tags: %v)\n", len(traffic.Sessions), *out, *withTags)
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	sessions := fs.Int("sessions", 60000, "sessions to generate (paper: 205000)")
	seed := fs.Uint64("seed", 0, "traffic seed")
	k := fs.Int("k", 11, "cluster count")
	pcaComps := fs.Int("pca", 7, "PCA components")
	dataPath := fs.String("data", "", "train from a JSONL handoff file instead of generating")
	novelty := fs.Bool("novelty", false, "arm the novelty guard")
	out := fs.String("o", "model.json", "output model path")
	fs.Parse(args)

	tc := core.DefaultTrainConfig()
	tc.K = *k
	tc.PCAComponents = *pcaComps
	tc.NoveltyGuard = *novelty

	var model *core.Model
	var report *core.TrainReport
	var err error
	if *dataPath == "" {
		cfg := dataset.DefaultConfig()
		cfg.Sessions = *sessions
		if *seed != 0 {
			cfg.Seed = *seed
		}
		fmt.Printf("generating %d sessions and training (%d features, PCA %d, k=%d)...\n",
			cfg.Sessions, len(tc.Features), tc.PCAComponents, tc.K)
		_, model, report, err = dataset.Train(cfg, tc)
	} else {
		model, report, err = trainFromFile(*dataPath, tc)
	}
	if err != nil {
		return err
	}
	fmt.Printf("accuracy %.2f%% | %d rows kept | %d outliers dropped\n",
		100*model.Accuracy, model.TrainedRows, report.OutliersFiltered)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", *out)
	return nil
}

// trainFromFile trains on the sessions of a JSONL handoff file.
func trainFromFile(path string, tc core.TrainConfig) (*core.Model, *core.TrainReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	samples, _, err := dataset.ReadJSONL(f, len(tc.Features))
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("loaded %d sessions from %s; training (%d features, PCA %d, k=%d)...\n",
		len(samples), path, len(tc.Features), tc.PCAComponents, tc.K)
	return core.Train(samples, tc)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("model", "model.json", "model path")
	fs.Parse(args)
	m, err := loadModel(*path)
	if err != nil {
		return err
	}
	fmt.Printf("features: %d | clusters: %d | trained rows: %d | accuracy: %.2f%%\n",
		m.Dim(), m.KMeans.K, m.TrainedRows, 100*m.Accuracy)
	experiments.RenderClusterTable(os.Stdout, "cluster table", m.ClusterTable())
	return nil
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	path := fs.String("model", "model.json", "model path")
	uaStr := fs.String("ua", "", "claimed user-agent string")
	values := fs.String("values", "", "comma-separated feature values")
	fs.Parse(args)
	m, err := loadModel(*path)
	if err != nil {
		return err
	}
	if *uaStr == "" || *values == "" {
		return fmt.Errorf("score requires -ua and -values")
	}
	parts := strings.Split(*values, ",")
	if len(parts) != m.Dim() {
		return fmt.Errorf("expected %d values, got %d", m.Dim(), len(parts))
	}
	vec := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return fmt.Errorf("value %d: %w", i, err)
		}
		vec[i] = v
	}
	res, err := m.ScoreString(vec, *uaStr)
	if err != nil {
		return err
	}
	verdict := "matched (browser appears truthful)"
	if res.Flagged() {
		verdict = fmt.Sprintf("FLAGGED with risk factor %d", res.RiskFactor)
	}
	fmt.Printf("cluster %d: %s\n", res.Cluster, verdict)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	path := fs.String("model", "model.json", "model path")
	dataPath := fs.String("data", "", "JSONL dataset to re-score (required)")
	minRisk := fs.Int("min-risk", 0, "print only flagged sessions at or above this risk factor")
	fs.Parse(args)
	if *dataPath == "" {
		return fmt.Errorf("replay requires -data")
	}
	m, err := loadModel(*path)
	if err != nil {
		return err
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, records, err := dataset.ReadJSONL(f, m.Dim())
	if err != nil {
		return err
	}
	flagged, novel := 0, 0
	for i, s := range samples {
		res, err := m.ScoreString(s.Vector, records[i].UserAgent)
		if err != nil {
			return err
		}
		if !res.Flagged() {
			continue
		}
		flagged++
		if res.Novel {
			novel++
		}
		if res.RiskFactor >= *minRisk {
			fmt.Printf("%s day=%d claimed=%s cluster=%d risk=%d novel=%v\n",
				records[i].SessionID, records[i].Day, s.UA, res.Cluster, res.RiskFactor, res.Novel)
		}
	}
	fmt.Printf("re-scored %d sessions: %d flagged (%d by the novelty guard)\n",
		len(samples), flagged, novel)
	return nil
}

func cmdDrift(args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	path := fs.String("model", "model.json", "model path")
	seed := fs.Uint64("seed", 0, "drift-traffic seed")
	fs.Parse(args)
	m, err := loadModel(*path)
	if err != nil {
		return err
	}
	data, err := experiments.DriftTraffic(*seed)
	if err != nil {
		return err
	}
	det := &drift.Detector{Model: m}
	src := sessionsByRelease{data: data}
	rep, err := det.RunCalendar(drift.Calendar2023(), src)
	if err != nil {
		return err
	}
	experiments.RenderDriftEvaluations(os.Stdout, rep.Evaluations)
	if rep.NeedRetrain() {
		fmt.Printf("retraining required (first signaled on %s)\n", rep.RetrainDate)
	} else {
		fmt.Println("model still current")
	}
	return nil
}

type sessionsByRelease struct{ data *dataset.Dataset }

func (s sessionsByRelease) VectorsFor(r ua.Release, upToDay int) [][]float64 {
	var out [][]float64
	for _, sess := range s.data.Sessions {
		if sess.Claimed == r && sess.Day <= upToDay {
			out = append(out, sess.Vector)
		}
	}
	return out
}

func cmdScript(args []string) error {
	fs := flag.NewFlagSet("script", flag.ExitOnError)
	path := fs.String("model", "", "model path (empty = canonical Table 8 features)")
	endpoint := fs.String("endpoint", "/v1/collect-json", "ingestion endpoint")
	fs.Parse(args)
	feats := fingerprint.Table8()
	if *path != "" {
		m, err := loadModel(*path)
		if err != nil {
			return err
		}
		feats = m.Features
	}
	fmt.Print(collect.CollectionScript(feats, *endpoint))
	return nil
}
