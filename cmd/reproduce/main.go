// Command reproduce regenerates the paper's tables and figures against
// the synthetic substrates. Each run trains the default model on
// generated FinOrg-like traffic and prints the requested experiment in
// the paper's layout.
//
// Usage:
//
//	reproduce -all                 # every table and figure (slow)
//	reproduce -table 4             # one table (1..14)
//	reproduce -figure 5            # one figure (2,3,4,5)
//	reproduce -sessions 205000     # traffic volume (default 60000)
//	reproduce -seed 7              # dataset seed
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"polygraph/internal/experiments"
	"polygraph/internal/obs"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce one table (1..14)")
		figure    = flag.Int("figure", 0, "reproduce one figure (2,3,4,5)")
		all       = flag.Bool("all", false, "reproduce everything, including ablations")
		scorecard = flag.Bool("scorecard", false, "check every headline claim and exit non-zero on failure")
		sessions  = flag.Int("sessions", 60000, "training sessions to generate (paper: 205000)")
		seed      = flag.Uint64("seed", 0, "traffic seed (0 = default)")
		htmlOut   = flag.String("html", "", "write an HTML report (tables + SVG figures) to this path")
		version   = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Version("reproduce"))
		return
	}

	if !*all && !*scorecard && *table == 0 && *figure == 0 && *htmlOut == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *scorecard {
		env, err := experiments.NewEnv(*sessions, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		claims, err := env.Scorecard()
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		if !experiments.RenderScorecard(os.Stdout, claims) {
			os.Exit(1)
		}
		if !*all && *table == 0 && *figure == 0 && *htmlOut == "" {
			return
		}
	}

	if *htmlOut != "" {
		if err := runHTML(*htmlOut, *sessions, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		if !*all && *table == 0 && *figure == 0 {
			return
		}
	}

	if err := run(*all, *table, *figure, *sessions, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func runHTML(path string, sessions int, seed uint64) error {
	fmt.Printf("generating %d sessions and training for the HTML report...\n", sessions)
	env, err := experiments.NewEnv(sessions, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := env.WriteHTMLReport(f, time.Now()); err != nil {
		return err
	}
	fmt.Printf("HTML report written to %s\n", path)
	return nil
}

func run(all bool, table, figure, sessions int, seed uint64) error {
	out := os.Stdout

	// Table 2 needs no trained model.
	if table == 2 && !all {
		experiments.RenderTable2(out, experiments.Table2())
		return nil
	}

	fmt.Fprintf(out, "generating %d sessions and training (28 features, PCA 7, k=11)...\n", sessions)
	env, err := experiments.NewEnv(sessions, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trained: accuracy %.2f%% on %d rows (paper: 99.6%% on 205k)\n",
		100*env.Model.Accuracy, env.Model.TrainedRows)
	experiments.RenderStageTimings(out, env.Report.Stages)

	want := func(n int) bool { return all || table == n }
	wantFig := func(n int) bool { return all || figure == n }

	if want(1) {
		experiments.RenderTable1(out)
	}
	if want(2) {
		experiments.RenderTable2(out, experiments.Table2())
	}
	if want(3) {
		experiments.RenderClusterTable(out, "Table 3: user-agents per cluster (k=11)", env.Table3())
	}
	if want(4) {
		rows, err := env.Table4()
		if err != nil {
			return err
		}
		experiments.RenderTable4(out, rows)
		n, err := env.FlaggedCount()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "flagged sessions: %d of %d (paper: 897 of 205k)\n", n, sessions)
	}
	if want(5) {
		rows, err := env.Table5()
		if err != nil {
			return err
		}
		experiments.RenderTable5(out, rows)
	}
	if want(6) {
		res, err := env.Table6()
		if err != nil {
			return err
		}
		experiments.RenderTable6(out, res)
	}
	if want(7) {
		experiments.RenderTable7(out, env.Table7(8))
	}
	if want(8) {
		experiments.RenderTable8(out)
	}
	if want(9) {
		rows, err := env.Table9()
		if err != nil {
			return err
		}
		experiments.RenderClusterTable(out, "Table 9: user-agents per cluster (k=6)", rows)
	}
	if want(10) {
		rows, err := env.Table10()
		if err != nil {
			return err
		}
		experiments.RenderSweep(out, "Table 10: sensitivity to cluster count", "clusters", rows)
	}
	if want(11) {
		rows, err := env.Table11()
		if err != nil {
			return err
		}
		experiments.RenderSweep(out, "Table 11: sensitivity to PCA components", "components", rows)
	}
	if want(12) {
		rows, err := env.Table12()
		if err != nil {
			return err
		}
		experiments.RenderTable12(out, rows)
	}
	if want(13) {
		rows, err := experiments.AppendixFive(true)
		if err != nil {
			return err
		}
		experiments.RenderTable13(out, "Table 13: clustering comparison (Windows 10/11)", rows)
	}
	if want(14) {
		rows, err := experiments.AppendixFive(false)
		if err != nil {
			return err
		}
		experiments.RenderTable13(out, "Table 14: clustering comparison (macOS)", rows)
	}
	if wantFig(2) {
		experiments.RenderFigure(out, "Figure 2: cumulative variance vs PCA components",
			"components", "cumulative variance", env.Figure2(), 1)
	}
	if wantFig(3) {
		pts, err := env.Figure3(20)
		if err != nil {
			return err
		}
		experiments.RenderFigure(out, "Figure 3: elbow method (WCSS vs clusters)", "k", "WCSS", pts, 1)
	}
	if wantFig(4) {
		pts, err := env.Figure4(20)
		if err != nil {
			return err
		}
		experiments.RenderFigure(out, "Figure 4: relative WCSS vs clusters", "k", "relative drop", pts, 1)
	}
	if wantFig(5) {
		experiments.RenderFigure5(out, env.Figure5())
	}
	if all {
		rows, err := env.Ablations()
		if err != nil {
			return err
		}
		experiments.RenderAblations(out, rows)
		sweep, err := env.DivisorSweep()
		if err != nil {
			return err
		}
		experiments.RenderDivisorSweep(out, sweep)

		rr, err := env.RetrainAfterDrift()
		if err != nil {
			return err
		}
		sr, err := env.StratifiedSampling(2000)
		if err != nil {
			return err
		}
		ur, err := env.UARandomization(20000)
		if err != nil {
			return err
		}
		experiments.RenderExtensions(out, rr, sr, ur)
		ng, err := env.NoveltyGuard()
		if err != nil {
			return err
		}
		experiments.RenderNoveltyGuard(out, ng)
		db, err := env.DBSCANAblation()
		if err != nil {
			return err
		}
		experiments.RenderDBSCAN(out, db)

		sil, err := env.SilhouetteCheck(8, 13)
		if err != nil {
			return err
		}
		psi, err := env.WindowPSI()
		if err != nil {
			return err
		}
		experiments.RenderValidation(out, sil, psi, 5)

		cg, err := experiments.CandidateGeneration(114, 200)
		if err != nil {
			return err
		}
		pp, err := env.PreprocessingAnalysis(0, 3000)
		if err != nil {
			return err
		}
		experiments.RenderCandidateGeneration(out, cg, pp)
	}
	return nil
}
