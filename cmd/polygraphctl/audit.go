package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"

	"polygraph/internal/audit"
	"polygraph/internal/core"
)

// runAudit queries and checks decision audit ledgers written by
// internal/audit (polygraphd -audit-dir, loadgen -audit-dir).
//
//	polygraphctl audit verify <dir>     walk every frame; fail on any
//	                                    checksum/framing damage other
//	                                    than a torn tail on the final
//	                                    segment (a crash artifact), and
//	                                    on any model hash whose archive
//	                                    is missing or damaged
//	polygraphctl audit ls [-n N] [-verdict v] [-trace id] [-json] <dir>
//	                                    print matching records
//	polygraphctl audit replay [-model model.json] [-v] <dir>
//	                                    re-derive every verdict and its
//	                                    explanation; fail on any divergence
//
// Replay is the machine-checkable consistency invariant: a verdict is
// only trustworthy if the recorded (vector, user-agent) re-derives it
// bit-for-bit through the recorded model. Each record is replayed
// through the model its hash names in the ledger directory's archive
// (model.<hash>.json); -model replays through one model file instead,
// skipping records stamped with another hash. Each explanation is
// derived too, and compared byte-for-byte where the record stores one
// (segments from before explanations were derived on read). ls -json
// prints each record with its explanation derived.
func runAudit(args []string, stdout, stderr io.Writer) int {
	return dispatch("audit", []command{
		{"verify", runAuditVerify},
		{"ls", runAuditLs},
		{"replay", runAuditReplay},
	}, args, stdout, stderr)
}

// ledgerArg parses an audit subcommand's args and returns the one ledger
// directory they name; false is a usage error, already reported.
func ledgerArg(fs *flag.FlagSet, args []string, stderr io.Writer) (string, bool) {
	if fs.Parse(args) != nil {
		return "", false
	}
	if fs.NArg() != 1 {
		fail(stderr, "audit: exactly one ledger directory required")
		return "", false
	}
	return fs.Arg(0), true
}

// unresolvedModels prints, in hash order, every model hash of count that
// does not resolve to an intact archive, and returns how many there are.
// count maps a hash to the records that need it.
func unresolvedModels(stdout io.Writer, models *audit.Resolver, count map[string]int) int {
	hashes := make([]string, 0, len(count))
	for hash := range count {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	bad := 0
	for _, hash := range hashes {
		if _, err := models.Model(hash); err != nil {
			bad++
			fmt.Fprintf(stdout, "polygraphctl: UNRESOLVED model %s, needed by %d record(s): %v\n", hash, count[hash], err)
		}
	}
	return bad
}

func runAuditVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl audit verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prefix := fs.String("prefix", "", "segment name prefix (default decisions)")
	dir, ok := ledgerArg(fs, args, stderr)
	if !ok {
		return 2
	}
	// A record that stores its explanation (an old segment) or names no
	// model needs no archive; every other one does.
	needed := map[string]int{}
	stats, err := audit.Scan(dir, *prefix, func(rec audit.Record) error {
		if rec.Derivable() {
			needed[rec.ModelHash]++
		}
		return nil
	})
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if stats.Segments == 0 {
		return fail(stderr, "%s: no ledger segments found", dir)
	}
	fmt.Fprintf(stdout, "polygraphctl: %s: %d segment(s), %d record(s), %d model(s)\n", dir, stats.Segments, stats.Records, len(needed))
	failed := false
	if !stats.Acceptable() {
		for _, seg := range stats.TornSegments {
			fmt.Fprintf(stdout, "polygraphctl: DAMAGED segment %s\n", seg)
		}
		fmt.Fprintf(stderr, "polygraphctl: verify FAILED: %d damaged segment(s)\n", len(stats.TornSegments))
		failed = true
	} else if !stats.Clean() {
		fmt.Fprintf(stdout, "polygraphctl: torn tail on final segment %s (crash artifact; writer truncates on reopen)\n",
			stats.TornSegments[0])
	}
	if bad := unresolvedModels(stdout, audit.NewResolver(dir), needed); bad > 0 {
		fmt.Fprintf(stderr, "polygraphctl: verify FAILED: %d model hash(es) without an intact archive; their records cannot be explained\n", bad)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Fprintf(stdout, "polygraphctl: verify OK — zero checksum failures, %d model archive(s) intact\n", len(needed))
	return 0
}

// errStopScan ends a ledger walk early; it is not a failure.
var errStopScan = errors.New("stop scan")

func runAuditLs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl audit ls", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prefix := fs.String("prefix", "", "segment name prefix (default decisions)")
	n := fs.Int("n", 0, "print at most N records (0 = all)")
	verdict := fs.String("verdict", "", "filter: flagged or benign")
	trace := fs.String("trace", "", "filter: exact trace ID")
	asJSON := fs.Bool("json", false, "print full records, explanations derived, as JSON lines")
	dir, ok := ledgerArg(fs, args, stderr)
	if !ok {
		return 2
	}
	switch *verdict {
	case "", "flagged", "benign":
	default:
		return fail(stderr, "bad -verdict %q (want flagged or benign)", *verdict)
	}
	enc := json.NewEncoder(stdout)
	models := audit.NewResolver(dir)
	printed, unexplained := 0, 0
	var firstExplainErr error
	stats, err := audit.Scan(dir, *prefix, func(rec audit.Record) error {
		if !rec.Matches(*verdict, *trace) {
			return nil
		}
		if *asJSON {
			if err := models.Explain(&rec); err != nil {
				unexplained++
				if firstExplainErr == nil {
					firstExplainErr = err
				}
			}
			if err := enc.Encode(&rec); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintf(stdout, "seq=%d trace=%s endpoint=%s flagged=%v cluster=%d risk=%d ua=%q\n",
			rec.Seq, rec.TraceID, rec.Endpoint, rec.Verdict.Flagged, rec.Verdict.Cluster, rec.Verdict.RiskFactor, rec.UserAgent); err != nil {
			return err
		}
		printed++
		if printed == *n {
			return errStopScan
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return fail(stderr, "%v", err)
	}
	code := 0
	if unexplained > 0 {
		fmt.Fprintf(stderr, "polygraphctl: warning: %d record(s) printed without an explanation; first: %v\n", unexplained, firstExplainErr)
		code = 1
	}
	if !stats.Acceptable() {
		fmt.Fprintf(stderr, "polygraphctl: warning: ledger has damaged segments (run polygraphctl audit verify)\n")
		code = 1
	}
	return code
}

func runAuditReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polygraphctl audit replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prefix := fs.String("prefix", "", "segment name prefix (default decisions)")
	modelPath := fs.String("model", "", "replay through this model file, skipping records stamped with another hash (default: each record through its archived model)")
	verbose := fs.Bool("v", false, "print every mismatch in detail")
	dir, ok := ledgerArg(fs, args, stderr)
	if !ok {
		return 2
	}
	var fileModel *core.Model
	var fileHash string
	if *modelPath != "" {
		var err error
		if fileModel, fileHash, err = loadModel(*modelPath); err != nil {
			return fail(stderr, "%v", err)
		}
	}
	models := audit.NewResolver(dir)

	var replayed, mismatches, hashMismatches int
	unresolved := map[string]int{} // hash → records whose archive did not resolve
	stats, err := audit.Scan(dir, *prefix, func(rec audit.Record) error {
		model := fileModel
		switch {
		case fileModel == nil && rec.ModelHash == "":
			mismatches++
			fmt.Fprintf(stdout, "seq=%d trace=%s: no model hash; replay it with -model\n", rec.Seq, rec.TraceID)
			return nil
		case fileModel == nil:
			var err error
			if model, err = models.Model(rec.ModelHash); err != nil {
				unresolved[rec.ModelHash]++
				return nil
			}
		case rec.ModelHash != "" && rec.ModelHash != fileHash:
			hashMismatches++
			if *verbose {
				fmt.Fprintf(stdout, "seq=%d: recorded under model %s, replaying with %s\n", rec.Seq, rec.ModelHash, fileHash)
			}
			return nil
		}
		replayed++
		switch d := models.Derive(model, &rec); {
		case d.ScoreErr != nil:
			mismatches++
			fmt.Fprintf(stdout, "seq=%d trace=%s: replay scoring failed: %v\n", rec.Seq, rec.TraceID, d.ScoreErr)
		case d.Verdict != rec.Verdict:
			mismatches++
			fmt.Fprintf(stdout, "seq=%d trace=%s: VERDICT DIVERGED\n  recorded: %+v\n  replayed: %+v\n",
				rec.Seq, rec.TraceID, rec.Verdict, d.Verdict)
		case d.ExplainErr != nil:
			mismatches++
			fmt.Fprintf(stdout, "seq=%d: replay explanation failed: %v\n", rec.Seq, d.ExplainErr)
		case rec.Explanation != nil:
			want, _ := json.Marshal(rec.Explanation)
			got, _ := json.Marshal(d.Explanation)
			if !bytes.Equal(want, got) {
				mismatches++
				fmt.Fprintf(stdout, "seq=%d trace=%s: EXPLANATION DIVERGED\n", rec.Seq, rec.TraceID)
				if *verbose {
					fmt.Fprintf(stdout, "  recorded: %s\n  replayed: %s\n", want, got)
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
	if fileModel != nil {
		fmt.Fprintf(stdout, "polygraphctl: replayed %d/%d record(s) against model %s\n", replayed, stats.Records, fileHash)
	} else {
		fmt.Fprintf(stdout, "polygraphctl: replayed %d/%d record(s), each against its archived model\n", replayed, stats.Records)
	}
	if hashMismatches > 0 {
		fmt.Fprintf(stdout, "polygraphctl: skipped %d record(s) stamped with a different model hash\n", hashMismatches)
	}
	ok2 := true
	if !stats.Acceptable() {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: ledger has damaged segments\n")
		ok2 = false
	}
	if bad := unresolvedModels(stdout, models, unresolved); bad > 0 {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: %d model hash(es) without an intact archive (replay them with -model)\n", bad)
		ok2 = false
	}
	if mismatches > 0 {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: %d verdict(s) did not re-derive\n", mismatches)
		ok2 = false
	}
	if replayed == 0 && fileModel != nil {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: no records matched the model hash\n")
		ok2 = false
	} else if replayed == 0 {
		fmt.Fprintf(stderr, "polygraphctl: replay FAILED: no record could be replayed\n")
		ok2 = false
	}
	if !ok2 {
		return 1
	}
	fmt.Fprintf(stdout, "polygraphctl: replay OK — 100%% of verdicts re-derived identically\n")
	return 0
}
