// Package bundle implements the support-bundle format: one
// deterministic tar.gz snapshotting everything an operator needs to
// diagnose a polygraphd or a fleet after the fact — per-replica metrics
// expositions, trace rings, redacted audit records, model provenance,
// pprof profiles — plus the offline analyzers that replay pass/warn/fail
// rules over a captured bundle (polygraphctl bundle).
//
// The package sits below serving/fleet in the dependency order: it
// knows HTTP paths and metric family names but imports neither, so
// serving can expose GET /debug/bundle and fleet can adapt its replica
// list without an import cycle.
package bundle

import (
	"archive/tar"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
	"time"
)

// FormatVersion stamps manifest.json; analyzers refuse bundles from a
// newer format than they understand.
const FormatVersion = 1

// ManifestName is the first entry of every bundle.
const ManifestName = "manifest.json"

// Artifact kinds (Manifest bookkeeping; the analyzers key on names).
const (
	KindMetrics   = "metrics"
	KindTraces    = "traces"
	KindDecisions = "decisions"
	KindModelInfo = "model-info"
	KindStats     = "stats"
	KindHealth    = "health"
	KindExpvar    = "expvar"
	KindPprof     = "pprof"
	KindConfig    = "config"
	KindFile      = "file"
	KindSLO       = "slo"
)

// Artifact describes one captured file.
type Artifact struct {
	// Name is the file name relative to its target directory (or to
	// files/ for run-level artifacts).
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Bytes and SHA256 pin the content so an analyzer can detect a
	// truncated or hand-edited bundle.
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// CollectError records one artifact that could not be captured. Errors
// are data, not failures: a dead replica yields a manifest full of
// these and the capture still succeeds.
type CollectError struct {
	Artifact string `json:"artifact"`
	Err      string `json:"err"`
}

// TargetManifest is one capture target (a replica or daemon).
type TargetManifest struct {
	Name      string         `json:"name"`
	BaseURL   string         `json:"base_url,omitempty"`
	Artifacts []Artifact     `json:"artifacts,omitempty"`
	Errors    []CollectError `json:"errors,omitempty"`
}

// Manifest is the bundle's table of contents, stored as the first tar
// entry.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Tool          string `json:"tool,omitempty"`
	CapturedAtNs  int64  `json:"captured_at_ns"`
	// Redacted reports whether audit records were passed through
	// audit.RedactRecord before packing (the default).
	Redacted bool             `json:"redacted"`
	Targets  []TargetManifest `json:"targets"`
	// Files lists run-level artifacts under files/ (the balancer's
	// exposition, effective config, -file extras).
	Files  []Artifact     `json:"files,omitempty"`
	Errors []CollectError `json:"errors,omitempty"`
}

// CapturedAt returns the capture time.
func (m *Manifest) CapturedAt() time.Time { return time.Unix(0, m.CapturedAtNs) }

// Target returns the named target's manifest entry, nil when absent.
func (m *Manifest) Target(name string) *TargetManifest {
	for i := range m.Targets {
		if m.Targets[i].Name == name {
			return &m.Targets[i]
		}
	}
	return nil
}

// SanitizeName maps an arbitrary target name (often host:port) onto the
// tar-path-safe alphabet.
func SanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := b.String()
	// All-dot names ("." / "..") would alias or escape the targets/
	// directory on naive extraction.
	if strings.Trim(out, ".") == "" {
		return "target"
	}
	return out
}

// Builder assembles a bundle in memory. Capture drives it against live
// targets; analyzer tests drive it directly to seed synthetic faults.
type Builder struct {
	manifest Manifest
	order    []string
	data     map[string][]byte
}

// NewBuilder starts a bundle captured at the given instant (the only
// wall-clock input; everything else about the tar stream is a pure
// function of the added content, which keeps bundles byte-reproducible
// for tests).
func NewBuilder(capturedAt time.Time) *Builder {
	return &Builder{
		manifest: Manifest{FormatVersion: FormatVersion, CapturedAtNs: capturedAt.UnixNano(), Redacted: true},
		data:     map[string][]byte{},
	}
}

// SetTool records the capturing tool's version string.
func (b *Builder) SetTool(tool string) { b.manifest.Tool = tool }

// SetRedacted records whether audit records were redacted.
func (b *Builder) SetRedacted(v bool) { b.manifest.Redacted = v }

// Target adds (or returns) a capture target.
func (b *Builder) Target(name, baseURL string) *TargetWriter {
	name = SanitizeName(name)
	for i := range b.manifest.Targets {
		if b.manifest.Targets[i].Name == name {
			return &TargetWriter{b: b, idx: i}
		}
	}
	b.manifest.Targets = append(b.manifest.Targets, TargetManifest{Name: name, BaseURL: baseURL})
	return &TargetWriter{b: b, idx: len(b.manifest.Targets) - 1}
}

// AddFile stores a run-level artifact under files/<name>.
func (b *Builder) AddFile(name, kind string, data []byte) {
	name = path.Base(name)
	b.manifest.Files = append(b.manifest.Files, b.add("files/"+name, name, kind, data))
}

// Error records a run-level collection error.
func (b *Builder) Error(artifact string, err error) {
	b.manifest.Errors = append(b.manifest.Errors, CollectError{Artifact: artifact, Err: err.Error()})
}

func (b *Builder) add(tarPath, name, kind string, data []byte) Artifact {
	if _, dup := b.data[tarPath]; !dup {
		b.order = append(b.order, tarPath)
	}
	b.data[tarPath] = data
	sum := sha256.Sum256(data)
	return Artifact{Name: name, Kind: kind, Bytes: int64(len(data)), SHA256: fmt.Sprintf("%x", sum)}
}

// TargetWriter adds artifacts and errors to one target.
type TargetWriter struct {
	b   *Builder
	idx int
}

// Add stores one artifact under targets/<target>/<name>.
func (t *TargetWriter) Add(name, kind string, data []byte) {
	tm := &t.b.manifest.Targets[t.idx]
	tm.Artifacts = append(tm.Artifacts, t.b.add("targets/"+tm.Name+"/"+name, name, kind, data))
}

// Error records a failed artifact on the target; the bundle still
// builds.
func (t *TargetWriter) Error(artifact string, err error) {
	tm := &t.b.manifest.Targets[t.idx]
	tm.Errors = append(tm.Errors, CollectError{Artifact: artifact, Err: err.Error()})
}

// Write writes the finished tar.gz: manifest.json first, then every
// artifact in insertion order. Headers carry only the capture mtime and
// a fixed mode, so the byte stream is deterministic for a given
// capture.
func (b *Builder) Write(w io.Writer) (*Manifest, error) {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	mtime := time.Unix(0, b.manifest.CapturedAtNs).UTC().Truncate(time.Second)
	writeOne := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: mtime,
			Format:  tar.FormatPAX,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	mf, err := json.MarshalIndent(&b.manifest, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeOne(ManifestName, append(mf, '\n')); err != nil {
		return nil, err
	}
	for _, name := range b.order {
		if err := writeOne(name, b.data[name]); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	m := b.manifest
	return &m, nil
}

// Bundle is a read-back support bundle.
type Bundle struct {
	Manifest Manifest
	// Files maps tar paths (targets/<t>/<name>, files/<name>) to
	// content.
	Files map[string][]byte
}

// Read parses a bundle stream.
func Read(r io.Reader) (*Bundle, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bundle: not a gzip stream: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	b := &Bundle{Files: map[string][]byte{}}
	sawManifest := false
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("bundle: read tar: %w", err)
		}
		data, err := io.ReadAll(io.LimitReader(tr, 256<<20))
		if err != nil {
			return nil, fmt.Errorf("bundle: read %s: %w", hdr.Name, err)
		}
		if hdr.Name == ManifestName {
			if err := json.Unmarshal(data, &b.Manifest); err != nil {
				return nil, fmt.Errorf("bundle: parse manifest: %w", err)
			}
			sawManifest = true
			continue
		}
		b.Files[hdr.Name] = data
	}
	if !sawManifest {
		return nil, fmt.Errorf("bundle: %s missing", ManifestName)
	}
	if b.Manifest.FormatVersion > FormatVersion {
		return nil, fmt.Errorf("bundle: format version %d newer than supported %d",
			b.Manifest.FormatVersion, FormatVersion)
	}
	return b, nil
}

// Open reads a bundle file.
func Open(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// TargetFile returns one target artifact's content, nil when absent.
func (b *Bundle) TargetFile(target, name string) []byte {
	return b.Files["targets/"+SanitizeName(target)+"/"+name]
}
