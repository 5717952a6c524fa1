package browser

import (
	"fmt"
	"math"
	"sync"

	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// Oracle answers API-surface questions for any modeled release. It is
// immutable after construction and safe for concurrent use; results are
// memoized because the traffic generator asks the same (release, proto)
// questions hundreds of thousands of times.
type Oracle struct {
	mu     sync.RWMutex
	counts map[countKey]int
}

type countKey struct {
	rel   ua.Release
	proto string
}

// NewOracle constructs the shared oracle.
func NewOracle() *Oracle {
	return &Oracle{counts: make(map[countKey]int, 4096)}
}

// hash01 maps a label to a deterministic float in [0, 1).
func hash01(label string) float64 {
	return rng.NewString(label).Float64()
}

// hashPM maps a label to a deterministic float in [-1, 1).
func hashPM(label string) float64 { return 2*hash01(label) - 1 }

// PropertyCount returns Object.getOwnPropertyNames(proto.prototype).length
// as the modeled release would report it. Unknown prototypes and invalid
// releases return 0 — exactly what the collection script reports when an
// interface is missing (the paper's features zero out the same way, e.g.
// ServiceWorker under a disabling config, §6.3).
func (o *Oracle) PropertyCount(r ua.Release, proto string) int {
	if !knownProto(proto) || !r.Valid() {
		return 0
	}
	key := countKey{rel: r, proto: proto}
	o.mu.RLock()
	v, ok := o.counts[key]
	o.mu.RUnlock()
	if ok {
		return v
	}
	v = computeCount(r, proto)
	o.mu.Lock()
	o.counts[key] = v
	o.mu.Unlock()
	return v
}

func computeCount(r ua.Release, proto string) int {
	// The Firefox 119 Element-family rework (paper §7.3) replaced the
	// shifted prototypes' surface with one resembling the Blink
	// mid-era; model it by answering as Chrome 95 would.
	if r.Vendor == ua.Firefox && r.Version >= 119 && firefox119ElementShift[proto] {
		return computeCount(ua.Release{Vendor: ua.Chrome, Version: 95}, proto)
	}

	era, ok := EraOf(r)
	if !ok {
		return 0
	}
	spec := specFor(proto)
	engine := EngineOf(r)
	if spec.geckoAbsent && engine != Blink {
		return 0
	}
	if era.Level < spec.intro {
		return 0
	}

	level := era.Level + engineJitterLevel(proto, engine, era.Level)
	eraJ := eraJitterLevelAmp * hashPM(fmt.Sprintf("eraj:%s:%s:%s", proto, engine, era.Name))
	if era.Level < lowLevelCutoff {
		eraJ *= lowLevelJitterScale
	}
	count := spec.base + spec.growth*(level+eraJ)
	if hash01(fmt.Sprintf("vb:%s:%s", proto, r)) < versionBumpChance {
		count++
	}
	if count < 0 {
		return 0
	}
	return int(math.Round(count))
}

// engineJitterLevel is the fixed per-(prototype, engine) offset in level
// units. It shrinks at low platform levels: early engines genuinely
// resembled each other, which is what lets the paper's clusters 2 and 6
// merge vendors.
func engineJitterLevel(proto string, engine Engine, level float64) float64 {
	j := hashPM(fmt.Sprintf("ej:%s:%s", proto, engine)) * engineJitterAmp
	if level < lowLevelCutoff {
		j *= lowLevelJitterScale
	}
	return j
}

// PropertyNames returns the modeled property-name list of the prototype
// for the release, of length PropertyCount. Names are deterministic per
// prototype so that releases sharing a count report identical lists —
// fine-grained collectors (internal/finegrained) hash these.
func (o *Oracle) PropertyNames(r ua.Release, proto string) []string {
	n := o.PropertyCount(r, proto)
	if n == 0 {
		return nil
	}
	return propSequence(proto, n)
}

var propSeqCache sync.Map // proto -> []string

// propSequence returns the first n names of the prototype's stable
// property sequence, growing the cached sequence as needed.
func propSequence(proto string, n int) []string {
	if v, ok := propSeqCache.Load(proto); ok {
		seq := v.([]string)
		if len(seq) >= n {
			return seq[:n:n]
		}
	}
	seq := make([]string, n)
	for i := range seq {
		seq[i] = propName(proto, i)
	}
	propSeqCache.Store(proto, seq)
	return seq[:n:n]
}

var propPrefixes = [...]string{
	"get", "set", "on", "has", "is", "to", "query", "observe", "create",
	"remove", "append", "replace", "request", "release", "dispatch",
}

var propStems = [...]string{
	"Value", "State", "Node", "Item", "Child", "Attribute", "Style",
	"Rect", "Frame", "Stream", "Track", "Buffer", "Context", "Handler",
	"Listener", "Timing", "Range", "Point", "Key", "Entry",
}

// propName generates the i-th deterministic property name of a prototype.
func propName(proto string, i int) string {
	h := rng.NewString(fmt.Sprintf("prop:%s:%d", proto, i))
	p := propPrefixes[h.Intn(len(propPrefixes))]
	s := propStems[h.Intn(len(propStems))]
	return fmt.Sprintf("%s%s%d", p, s, i)
}

// hasProperty reports whether proto.prototype.hasOwnProperty(prop) for
// the release. Curated time-based properties (Table 8 Num 23–28) follow
// their modeled timelines; synthetic BrowserPrint-style candidates follow
// hash-derived timelines; any other name falls back to membership in the
// modeled property list.
func (o *Oracle) hasProperty(r ua.Release, proto, prop string) bool {
	if !r.Valid() {
		return false
	}
	if rule, ok := curatedTimeBased[proto+"."+prop]; ok {
		return rule(r)
	}
	if isSyntheticTimeProp(prop) {
		return syntheticTimeHas(r, proto, prop)
	}
	for _, name := range o.PropertyNames(r, proto) {
		if name == prop {
			return true
		}
	}
	return false
}
