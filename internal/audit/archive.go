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
// from the archive in a ledger directory. It is safe for concurrent use.
type Resolver struct {
	dir string

	mu    sync.Mutex
	cache map[string]resolved
}

// resolved is one remembered look-up; a failed one is kept too, so a
// ledger of records under a missing model costs one file read, not one
// each.
type resolved struct {
	model *core.Model
	err   error
}

// NewResolver resolves hashes against the archive in dir.
func NewResolver(dir string) *Resolver {
	return &Resolver{dir: dir, cache: map[string]resolved{}}
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

// Explain fills rec.Explanation for a derivable record — the JSON the
// ledger stored per record before explanations were derived — and leaves
// any other record as it is. The vector is scored again through the
// archived model first, and a verdict that differs from the recorded one
// is an error: an explanation is never built around a verdict its inputs
// do not produce.
func (r *Resolver) Explain(rec *Record) error {
	if !rec.Derivable() {
		return nil
	}
	m, err := r.Model(rec.ModelHash)
	if err != nil {
		return err
	}
	res, err := m.ScoreString(rec.Vector, rec.UserAgent)
	if err != nil {
		return fmt.Errorf("audit: seq %d: %w", rec.Seq, err)
	}
	if got := core.VerdictOf(res); got != rec.Verdict {
		return fmt.Errorf("audit: seq %d: model %s gives verdict %+v, the record holds %+v", rec.Seq, rec.ModelHash, got, rec.Verdict)
	}
	rec.Explanation, err = m.ExplainResult(rec.Vector, rec.UserAgent, res, core.DefaultExplainTopK)
	if err != nil {
		return fmt.Errorf("audit: seq %d: %w", rec.Seq, err)
	}
	return nil
}
