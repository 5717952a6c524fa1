package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"polygraph/internal/audit"
	"polygraph/internal/core"
)

// runAudit queries and checks decision audit ledgers written by
// internal/audit (polygraphd -audit-dir, loadgen -audit-dir).
//
//	polygraphctl audit verify <dir>     walk every frame; fail on any
//	                                    checksum/framing damage other
//	                                    than a torn tail on the final
//	                                    segment (a crash artifact)
//	polygraphctl audit ls [-n N] [-verdict v] [-trace id] [-json] <dir>
//	                                    print matching records
//	polygraphctl audit replay -model model.json [-explain] [-v] <dir>
//	                                    re-score every recorded vector
//	                                    through the model file and fail
//	                                    on any verdict divergence
//
// Replay is the machine-checkable consistency invariant: a verdict is
// only trustworthy if the recorded (vector, user-agent) re-derives it
// bit-for-bit through the recorded model. The model file's hash must
// match the hash stamped on the records; -explain additionally
// re-derives each stored explanation byte-for-byte.
func runAudit(args []string, stdout, stderr io.Writer) int {
	return dispatch("audit", []command{
		{"verify", runAuditVerify},
		{"ls", runAuditLs},
		{"replay", runAuditReplay},
	}, args, stdout, stderr)
}

// ledgerArg returns the one ledger directory an audit subcommand takes.
func ledgerArg(fs *flag.FlagSet, stderr io.Writer) (string, bool) {
	if fs.NArg() != 1 {
		fail(stderr, "audit: exactly one ledger directory required")
		return "", false
	}
	return fs.Arg(0), true
}

func runAuditVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl audit verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prefix := fs.String("prefix", "", "segment name prefix (default decisions)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir, ok := ledgerArg(fs, stderr)
	if !ok {
		return 2
	}
	stats, err := audit.Scan(dir, *prefix, nil)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if stats.Segments == 0 {
		return fail(stderr, "%s: no ledger segments found", dir)
	}
	fmt.Fprintf(stdout, "polygraphctl: %s: %d segment(s), %d record(s)\n", dir, stats.Segments, stats.Records)
	if stats.Acceptable() {
		if !stats.Clean() {
			fmt.Fprintf(stdout, "polygraphctl: torn tail on final segment %s (crash artifact; writer truncates on reopen)\n",
				stats.TornSegments[0])
		}
		fmt.Fprintln(stdout, "polygraphctl: verify OK — zero checksum failures")
		return 0
	}
	for _, seg := range stats.TornSegments {
		fmt.Fprintf(stdout, "polygraphctl: DAMAGED segment %s\n", seg)
	}
	fmt.Fprintf(stderr, "polygraphctl: verify FAILED: %d damaged segment(s)\n", len(stats.TornSegments))
	return 1
}

func runAuditLs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl audit ls", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prefix := fs.String("prefix", "", "segment name prefix (default decisions)")
	n := fs.Int("n", 0, "print at most N records (0 = all)")
	verdict := fs.String("verdict", "", "filter: flagged or benign")
	trace := fs.String("trace", "", "filter: exact trace ID")
	asJSON := fs.Bool("json", false, "print full records as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *verdict {
	case "", "flagged", "benign":
	default:
		return fail(stderr, "bad -verdict %q (want flagged or benign)", *verdict)
	}
	dir, ok := ledgerArg(fs, stderr)
	if !ok {
		return 2
	}
	enc := json.NewEncoder(stdout)
	printed := 0
	stats, err := audit.Scan(dir, *prefix, func(rec audit.Record) error {
		if *verdict == "flagged" && !rec.Verdict.Flagged {
			return nil
		}
		if *verdict == "benign" && rec.Verdict.Flagged {
			return nil
		}
		if *trace != "" && rec.TraceID != *trace {
			return nil
		}
		if *n > 0 && printed >= *n {
			return nil
		}
		printed++
		if *asJSON {
			return enc.Encode(&rec)
		}
		_, err := fmt.Fprintf(stdout, "seq=%d trace=%s endpoint=%s flagged=%v cluster=%d risk=%d ua=%q\n",
			rec.Seq, rec.TraceID, rec.Endpoint, rec.Verdict.Flagged, rec.Verdict.Cluster, rec.Verdict.RiskFactor, rec.UserAgent)
		return err
	})
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if !stats.Acceptable() {
		fmt.Fprintf(stderr, "polygraphctl: warning: ledger has damaged segments (run polygraphctl audit verify)\n")
		return 1
	}
	return 0
}

func runAuditReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl audit replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prefix := fs.String("prefix", "", "segment name prefix (default decisions)")
	modelPath := fs.String("model", "", "model file the ledger was recorded against (required)")
	explain := fs.Bool("explain", false, "also re-derive and compare stored explanations byte-for-byte")
	verbose := fs.Bool("v", false, "print every mismatch in detail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *modelPath == "" {
		return fail(stderr, "replay requires -model")
	}
	dir, ok := ledgerArg(fs, stderr)
	if !ok {
		return 2
	}
	model, hash, err := loadModel(*modelPath)
	if err != nil {
		return fail(stderr, "%v", err)
	}

	var replayed, mismatches, hashMismatches int
	stats, err := audit.Scan(dir, *prefix, func(rec audit.Record) error {
		if rec.ModelHash != "" && rec.ModelHash != hash {
			hashMismatches++
			if *verbose {
				fmt.Fprintf(stdout, "seq=%d: recorded under model %s, replaying with %s\n", rec.Seq, rec.ModelHash, hash)
			}
			return nil
		}
		replayed++
		res, err := model.ScoreString(rec.Vector, rec.UserAgent)
		if err != nil {
			mismatches++
			fmt.Fprintf(stdout, "seq=%d trace=%s: replay scoring failed: %v\n", rec.Seq, rec.TraceID, err)
			return nil
		}
		got := core.VerdictOf(res)
		if got != rec.Verdict {
			mismatches++
			fmt.Fprintf(stdout, "seq=%d trace=%s: VERDICT DIVERGED\n  recorded: %+v\n  replayed: %+v\n",
				rec.Seq, rec.TraceID, rec.Verdict, got)
			return nil
		}
		if *explain && rec.Explanation != nil {
			ex, err := model.ExplainResult(rec.Vector, rec.UserAgent, res, len(rec.Explanation.TopFeatures))
			if err != nil {
				mismatches++
				fmt.Fprintf(stdout, "seq=%d: replay explanation failed: %v\n", rec.Seq, err)
				return nil
			}
			want, _ := json.Marshal(rec.Explanation)
			gotJSON, _ := json.Marshal(ex)
			if !bytes.Equal(want, gotJSON) {
				mismatches++
				fmt.Fprintf(stdout, "seq=%d trace=%s: EXPLANATION DIVERGED\n", rec.Seq, rec.TraceID)
				if *verbose {
					fmt.Fprintf(stdout, "  recorded: %s\n  replayed: %s\n", want, gotJSON)
				}
			}
		}
		return nil
	})
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if stats.Segments == 0 {
		return fail(stderr, "%s: no ledger segments found", dir)
	}
	fmt.Fprintf(stdout, "polygraphctl: replayed %d/%d record(s) against model %s\n", replayed, stats.Records, hash)
	if hashMismatches > 0 {
		fmt.Fprintf(stdout, "polygraphctl: skipped %d record(s) stamped with a different model hash\n", hashMismatches)
	}
	ok2 := true
	if !stats.Acceptable() {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: ledger has damaged segments\n")
		ok2 = false
	}
	if mismatches > 0 {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: %d verdict(s) did not re-derive\n", mismatches)
		ok2 = false
	}
	if replayed == 0 {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: no records matched the model hash\n")
		ok2 = false
	}
	if !ok2 {
		return 1
	}
	fmt.Fprintf(stdout, "polygraphctl: replay OK — 100%% of verdicts re-derived identically\n")
	return 0
}
