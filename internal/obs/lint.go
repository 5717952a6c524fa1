package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition (0.0.4) linter. It does not aim
// for parser completeness — it catches the malformations that actually
// break scrapers: samples without HELP/TYPE, invalid metric names,
// unknown types, histograms whose cumulative buckets decrease, and
// bucket series missing the terminal le="+Inf" or disagreeing with
// their _count. CI runs it over /metrics (polygraphctl lint) so a bad
// exposition fails the build instead of failing a scraper at 3am.

// LintProblem is one finding.
type LintProblem struct {
	Line int
	Msg  string
}

func (p LintProblem) String() string { return fmt.Sprintf("line %d: %s", p.Line, p.Msg) }

var (
	lintNameRe = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	lintTypes  = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
)

// lintSeries tracks one histogram bucket series while its lines stream
// by ("family" + fixed non-le labels identify a series).
type lintSeries struct {
	lastLe   float64
	lastCum  uint64
	sawInf   bool
	infCount uint64
	line     int
}

// Lint checks the exposition read from r. require lists metric families
// that must be present (a histogram family counts as present when its
// _bucket/_count samples appear). It returns the problems found —
// empty means clean — and an error only for I/O failure.
func Lint(r io.Reader, require ...string) ([]LintProblem, error) {
	var problems []LintProblem
	addf := func(line int, format string, args ...any) {
		problems = append(problems, LintProblem{Line: line, Msg: fmt.Sprintf(format, args...)})
	}

	helped := map[string]bool{}
	typed := map[string]string{}
	seen := map[string]bool{}
	buckets := map[string]*lintSeries{}
	// declared tracks families whose HELP/TYPE headers actually appeared
	// (helped/typed double as "already reported" bookkeeping, so they
	// cannot detect a family emitted twice — the classic bug when two
	// writers are concatenated into one exposition).
	helpDeclared := map[string]bool{}
	typeDeclared := map[string]bool{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !lintNameRe.MatchString(name) {
				addf(lineNo, "invalid metric name %q in %s", name, fields[1])
				continue
			}
			switch fields[1] {
			case "HELP":
				if helpDeclared[name] {
					addf(lineNo, "duplicate HELP for %s (family emitted more than once?)", name)
				}
				helpDeclared[name] = true
				helped[name] = true
			case "TYPE":
				if typeDeclared[name] {
					addf(lineNo, "duplicate TYPE for %s (family emitted more than once?)", name)
				}
				typeDeclared[name] = true
				if seen[name] {
					addf(lineNo, "TYPE for %s appears after its samples", name)
				}
				typ := ""
				if len(fields) == 4 {
					typ = fields[3]
				}
				if !lintTypes[typ] {
					addf(lineNo, "unknown TYPE %q for %s", typ, name)
				}
				typed[name] = typ
			}
			continue
		}

		// A sample line: name{labels} value [timestamp]
		name, labels, rest, ok := splitSample(line)
		if !ok {
			addf(lineNo, "unparseable sample %q", line)
			continue
		}
		if !lintNameRe.MatchString(name) {
			addf(lineNo, "invalid metric name %q", name)
		}
		value, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			addf(lineNo, "unparseable value in %q", line)
			continue
		}

		family := histFamily(name)
		if !helped[name] && !helped[family] {
			addf(lineNo, "sample %s without # HELP", name)
			helped[name] = true // report once per family
		}
		if _, ok := typed[name]; !ok {
			if _, ok := typed[family]; !ok {
				addf(lineNo, "sample %s without # TYPE", name)
				typed[name] = "untyped"
			}
		}
		seen[name] = true
		seen[family] = true

		if strings.HasSuffix(name, "_bucket") {
			key, le, found := bucketKey(family, labels)
			if !found {
				addf(lineNo, "%s sample without le label", name)
				continue
			}
			s := buckets[key]
			if s == nil {
				s = &lintSeries{lastLe: math.Inf(-1)}
				buckets[key] = s
			}
			s.line = lineNo
			leV, err := strconv.ParseFloat(le, 64)
			if le == "+Inf" {
				leV = math.Inf(1)
				err = nil
			}
			if err != nil {
				addf(lineNo, "unparseable le=%q in %s", le, key)
				continue
			}
			if leV <= s.lastLe {
				addf(lineNo, "bucket series %s: le=%q not increasing", key, le)
			}
			cum := uint64(value)
			if s.lastLe != math.Inf(-1) && cum < s.lastCum {
				addf(lineNo, "bucket series %s: cumulative count decreases at le=%q (%d < %d)",
					key, le, cum, s.lastCum)
			}
			s.lastLe = leV
			s.lastCum = cum
			if math.IsInf(leV, 1) {
				s.sawInf = true
				s.infCount = cum
			} else if s.sawInf {
				addf(lineNo, "bucket series %s: le=%q after le=\"+Inf\"", key, le)
			}
			continue
		}
		if strings.HasSuffix(name, "_count") && typed[family] == "histogram" {
			key, _, _ := bucketKey(family, labels)
			if s, ok := buckets[key]; ok && s.sawInf && uint64(value) != s.infCount {
				addf(lineNo, "histogram %s: _count %d != +Inf bucket %d", key, uint64(value), s.infCount)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	for key, s := range buckets {
		if !s.sawInf {
			addf(s.line, "bucket series %s missing terminal le=\"+Inf\"", key)
		}
	}
	for _, name := range require {
		if !seen[name] {
			addf(0, "required family %s absent", name)
		}
	}
	return problems, nil
}

// splitSample separates "name{labels} value" into parts; labels is ""
// for unlabeled samples.
func splitSample(line string) (name, labels, rest string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", false
		}
		name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		i := strings.IndexAny(line, " \t")
		if i < 0 {
			return "", "", "", false
		}
		name, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	if name == "" || rest == "" {
		return "", "", "", false
	}
	return name, labels, rest, true
}

// histFamily strips a histogram/summary component suffix so _bucket,
// _sum, and _count samples resolve to the family their TYPE names.
func histFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// bucketKey identifies one bucket series: the family plus its non-le
// labels (order preserved — our writers emit labels in a fixed order).
// It also extracts the le value.
func bucketKey(family, labels string) (key, le string, found bool) {
	var keep []string
	for _, kv := range splitLabels(labels) {
		if strings.HasPrefix(kv, "le=") {
			le = strings.Trim(kv[len("le="):], `"`)
			found = true
			continue
		}
		keep = append(keep, kv)
	}
	key = family
	if len(keep) > 0 {
		key += "{" + strings.Join(keep, ",") + "}"
	}
	return key, le, found
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, labels[start:])
	return out
}
