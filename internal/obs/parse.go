package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A reusable reader for the Prometheus text exposition (0.0.4) format
// this package's writers emit. It started life as loadgen's private
// per-checkpoint parser; it is promoted here so the loadgen
// reconciliation checks and the support-bundle analyzers share one
// implementation. Like the linter it is deliberately lenient: lines it
// cannot parse are skipped, because an analyzer reading a bundle from a
// sick replica must extract what it can rather than give up at the
// first malformed line (obs.Lint reports the malformation separately).

// Sample is one parsed sample line: name{labels} value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label, "" when absent.
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Exposition is a parsed text exposition. Samples keep file order,
// which for histogram buckets means increasing le terminated by +Inf —
// the order the writers emit and the cumulative-series helpers assume.
type Exposition struct {
	samples []Sample
	byName  map[string][]int
	types   map[string]string
}

// ParseExposition parses a text exposition from r. It returns an error
// only for I/O failure; malformed lines are skipped.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{byName: map[string][]int{}, types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) == 4 && fields[1] == "TYPE" {
				e.types[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, rest, ok := splitSample(line)
		if !ok {
			continue
		}
		value, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			continue
		}
		e.byName[name] = append(e.byName[name], len(e.samples))
		e.samples = append(e.samples, Sample{Name: name, Labels: parseLabels(labels), Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// ParseExpositionString parses an in-memory exposition.
func ParseExpositionString(text string) *Exposition {
	e, _ := ParseExposition(strings.NewReader(text)) // string reader cannot fail
	return e
}

// Families returns the sorted family names that have samples (histogram
// component samples collapse to their family name).
func (e *Exposition) Families() []string {
	set := map[string]bool{}
	for name := range e.byName {
		set[histFamily(name)] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Type returns the declared TYPE of a family, "" when undeclared.
func (e *Exposition) Type(family string) string { return e.types[family] }

// Has reports whether the named family has at least one sample (for a
// histogram, any of its _bucket/_sum/_count samples).
func (e *Exposition) Has(family string) bool {
	if len(e.byName[family]) > 0 {
		return true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if len(e.byName[family+suf]) > 0 {
			return true
		}
	}
	return false
}

// Samples returns the samples with the exact given name in file order.
func (e *Exposition) Samples(name string) []Sample {
	idx := e.byName[name]
	out := make([]Sample, len(idx))
	for i, j := range idx {
		out[i] = e.samples[j]
	}
	return out
}

// Value returns the value of the named unlabeled sample — the shape of
// every plain counter and gauge this repo exports.
func (e *Exposition) Value(name string) (float64, error) {
	for _, j := range e.byName[name] {
		if len(e.samples[j].Labels) == 0 {
			return e.samples[j].Value, nil
		}
	}
	return 0, fmt.Errorf("obs: metric %s not found", name)
}

// Sum returns the sum over every sample of the named family — the total
// of a labeled counter family like polygraph_rejected_total. Absent
// families sum to 0.
func (e *Exposition) Sum(name string) float64 {
	var total float64
	for _, j := range e.byName[name] {
		total += e.samples[j].Value
	}
	return total
}

// HistogramBuckets returns, per value of the given label, the
// cumulative _bucket counts of the named histogram family in exposition
// order (increasing le, terminated by +Inf). Series without the label
// are skipped; expositions without the family return an empty map.
func (e *Exposition) HistogramBuckets(family, label string) map[string][]uint64 {
	out := map[string][]uint64{}
	for _, j := range e.byName[family+"_bucket"] {
		s := e.samples[j]
		lv := s.Label(label)
		if lv == "" {
			continue
		}
		out[lv] = append(out[lv], uint64(s.Value))
	}
	return out
}

// Bucket is one cumulative histogram bucket with its upper bound.
type Bucket struct {
	// Le is the bucket's inclusive upper bound (math.Inf(1) for +Inf).
	Le float64
	// Cum is the cumulative count of observations ≤ Le.
	Cum float64
}

// Histogram returns, per value of the given label, the cumulative
// _bucket series of the named histogram family with parsed le upper
// bounds, in exposition order (increasing le, terminated by +Inf).
// Unlike HistogramBuckets this keeps the bounds, which is what SLI
// derivation needs to count events under a latency threshold. Series
// without the label are skipped; absent families return an empty map.
func (e *Exposition) Histogram(family, label string) map[string][]Bucket {
	out := map[string][]Bucket{}
	for _, j := range e.byName[family+"_bucket"] {
		s := e.samples[j]
		lv := s.Label(label)
		if lv == "" {
			continue
		}
		leStr := s.Label("le")
		var le float64
		if leStr == "+Inf" {
			le = math.Inf(1)
		} else {
			var err error
			le, err = strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
		}
		out[lv] = append(out[lv], Bucket{Le: le, Cum: s.Value})
	}
	return out
}

// ParseMetric returns the value of the named unlabeled family in an
// exposition text — the one-shot form of Exposition.Value.
func ParseMetric(text, name string) (float64, error) {
	return ParseExpositionString(text).Value(name)
}

// ParseHistogram is the one-shot form of Exposition.HistogramBuckets.
func ParseHistogram(text, family, label string) map[string][]uint64 {
	return ParseExpositionString(text).HistogramBuckets(family, label)
}

// QuantileBucket returns the index of the bucket holding quantile q of
// a cumulative bucket series, and the total count. A zero total returns
// index -1.
func QuantileBucket(cum []uint64, q float64) (int, uint64) {
	if len(cum) == 0 {
		return -1, 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return -1, 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	for i, c := range cum {
		if c >= rank {
			return i, total
		}
	}
	return len(cum) - 1, total
}

// parseLabels splits a label body into pairs, unescaping values (the
// inverse of EscapeLabel).
func parseLabels(labels string) []Label {
	var out []Label
	for _, kv := range splitLabels(labels) {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			continue
		}
		name := strings.TrimSpace(kv[:eq])
		val := strings.TrimSpace(kv[eq+1:])
		if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
			val = val[1 : len(val)-1]
		}
		out = append(out, Label{Name: name, Value: unescapeLabel(val)})
	}
	return out
}

// unescapeLabel reverses EscapeLabel: \\ → \, \n → newline, \" → ".
func unescapeLabel(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			switch v[i+1] {
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case '"':
				b.WriteByte('"')
			default:
				b.WriteByte(v[i])
				b.WriteByte(v[i+1])
			}
			i++
			continue
		}
		b.WriteByte(v[i])
	}
	return b.String()
}
