package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"polygraph/internal/core"
	"polygraph/internal/fphash"
)

// The model archive: every model a replica deploys, saved once beside
// the segments as model.<hash>.json — core.Model.Save's bytes, whose
// SHA-256 the hash is a prefix of, so a reader can tell an intact archive
// from a damaged or substituted one by the name on the record alone. It
// is what keeps a record explainable after its model is swapped out.

// modelPath names the archive of the model with the given hash in dir.
func modelPath(dir, hash string) string {
	return filepath.Join(dir, "model."+hash+".json")
}

// hashOf is core.Model.Hash computed from the model's saved bytes.
func hashOf(saved []byte) string {
	sum := sha256.Sum256(saved)
	return hex.EncodeToString(sum[:16])
}

// readArchive returns the bytes of the archive at path after checking
// that they hash to the name it was stored under.
func readArchive(path, hash string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if got := hashOf(data); got != hash {
		return nil, fmt.Errorf("%s holds bytes that hash to %s", path, got)
	}
	return data, nil
}

// ArchiveModel makes m resolvable from the ledger directory and returns
// its hash (m.Hash()). Call it before the first record stamped with that
// hash is appended and treat an error as a failed deployment: a record
// whose hash resolves to nothing cannot be explained. An intact archive
// already in place is left alone; otherwise the bytes reach their name
// by rename, so a reader never sees half a file.
func (l *Ledger) ArchiveModel(m *core.Model) (string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return "", fmt.Errorf("audit: archive model: %w", err)
	}
	hash := hashOf(buf.Bytes())
	path := modelPath(l.dir, hash)
	if _, err := readArchive(path, hash); err == nil {
		return hash, nil
	}
	tmp, err := os.CreateTemp(l.dir, "model.*.tmp")
	if err != nil {
		return "", fmt.Errorf("audit: archive model %s: %w", hash, err)
	}
	if _, err = tmp.Write(buf.Bytes()); err == nil {
		err = tmp.Chmod(0o644) // as readable as the segments beside it
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("audit: archive model %s: %w", hash, err)
	}
	return hash, nil
}

// resolverCache bounds how many look-ups a Resolver remembers. A ledger
// names one model per deployment.
const resolverCache = 4

// Resolver turns the model hash stamped on a record back into the model,
// from the archive in a ledger directory, and derives what a model makes
// of a record (Derive). It is safe for concurrent use.
type Resolver struct {
	dir    string
	hasher fphash.Hasher // keys derived

	mu      sync.Mutex
	cache   map[string]resolved
	derived map[uint64]*Derivation // at most classCap, by classHash
	seen    [classCap]uint64       // derived's doorkeeper, as Scratch.seen is the memo's
}

// resolved is one remembered look-up; a failed one is kept too, so a
// ledger of records under a missing model costs one file read, not one
// each.
type resolved struct {
	model *core.Model
	err   error
}

// Derivation is what a model makes of a record's inputs (Derive).
type Derivation struct {
	Verdict     core.Verdict      // the verdict the model gives
	Explanation *core.Explanation // shared by the records of a class: read-only
	ScoreErr    error             // the inputs did not score; nothing else is set
	ExplainErr  error             // the verdict did not explain

	class *class      // derived from a record of class,
	model *core.Model // through model,
	topK  int         // at topK
}

// NewResolver resolves hashes against the archive in dir.
func NewResolver(dir string) *Resolver {
	return &Resolver{dir: dir, hasher: fphash.New(), cache: map[string]resolved{}, derived: map[uint64]*Derivation{}}
}

// Model returns the archived model with the given hash. The error names
// the hash when the archive is missing or does not hash to its name.
func (r *Resolver) Model(hash string) (*core.Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cache[hash]
	if !ok {
		c.model, c.err = r.load(hash)
		if len(r.cache) >= resolverCache {
			clear(r.cache)
		}
		r.cache[hash] = c
	}
	return c.model, c.err
}

func (r *Resolver) load(hash string) (*core.Model, error) {
	// The hash comes off a record and goes into a file name.
	if raw, err := hex.DecodeString(hash); err != nil || len(raw) != 16 {
		return nil, fmt.Errorf("audit: %q is not a model hash", hash)
	}
	data, err := readArchive(modelPath(r.dir, hash), hash)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("audit: model %s: no archive in %s", hash, r.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("audit: model %s: %w", hash, err)
	}
	m, err := core.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("audit: model %s: %w", hash, err)
	}
	return m, nil
}

// Derivable reports whether rec's explanation is computed on read: it
// stores none, names the model that decided it, and still holds the
// vector. Such a record needs its model's archive.
func (rec *Record) Derivable() bool {
	return rec.Explanation == nil && rec.ModelHash != "" && !rec.Redacted
}

// Derive scores rec's inputs through m and explains the verdict m gives,
// at the top-K of rec's stored explanation (old segments) or else at
// core.DefaultExplainTopK; judging that verdict is the caller's. A class
// of records is derived once per model from its second sighting on, so
// fingerprints that never repeat cost a hash per record and no copy.
func (r *Resolver) Derive(m *core.Model, rec *Record) Derivation {
	topK := core.DefaultExplainTopK
	if rec.Explanation != nil {
		topK = len(rec.Explanation.TopFeatures)
	}
	h := classHash(r.hasher, rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.derived[h]; d != nil && d.model == m && d.topK == topK && d.class.holds(h, rec) {
		return *d
	}
	d := Derivation{model: m, topK: topK}
	res, err := m.ScoreString(rec.Vector, rec.UserAgent)
	if d.ScoreErr = err; err == nil {
		d.Verdict = core.VerdictOf(res)
		d.Explanation, d.ExplainErr = m.ExplainResult(rec.Vector, rec.UserAgent, res, topK)
	}
	seen := &r.seen[h%classCap]
	if *seen == h {
		if len(r.derived) >= classCap {
			clear(r.derived)
		}
		kept := d // on the heap only when kept
		kept.class = newClass(h, rec)
		r.derived[h] = &kept
	}
	*seen = h
	return d
}

// Explain fills rec.Explanation for a derivable record — the JSON the
// ledger stored per record before explanations were derived — and leaves
// any other record as it is. A verdict Derive does not re-derive is an
// error: an explanation is never built around a verdict its inputs do not
// produce. The explanation is shared by the records of a class: read-only.
func (r *Resolver) Explain(rec *Record) error {
	if !rec.Derivable() {
		return nil
	}
	m, err := r.Model(rec.ModelHash)
	if err != nil {
		return err
	}
	switch d := r.Derive(m, rec); {
	case d.ScoreErr != nil:
		return fmt.Errorf("audit: seq %d: %w", rec.Seq, d.ScoreErr)
	case d.Verdict != rec.Verdict:
		return fmt.Errorf("audit: seq %d: model %s gives verdict %+v, the record holds %+v", rec.Seq, rec.ModelHash, d.Verdict, rec.Verdict)
	case d.ExplainErr != nil:
		return fmt.Errorf("audit: seq %d: %w", rec.Seq, d.ExplainErr)
	default:
		rec.Explanation = d.Explanation
		return nil
	}
}
