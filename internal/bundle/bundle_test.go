package bundle

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
	"time"
)

var captureInstant = time.Unix(1_700_000_000, 123_456_789)

// build writes a bundle through fn and reads it back.
func build(t *testing.T, fn func(b *Builder)) (*Bundle, []byte) {
	t.Helper()
	b := newBuilder(captureInstant)
	fn(b)
	var buf bytes.Buffer
	if _, err := b.write(&buf); err != nil {
		t.Fatal(err)
	}
	bb, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return bb, buf.Bytes()
}

func TestBundleRoundTrip(t *testing.T) {
	bb, _ := build(t, func(b *Builder) {
		b.manifest.Tool = "test v1"
		tw := b.target("r0", "http://127.0.0.1:1")
		tw.add(ArtifactMetrics, KindMetrics, []byte("polygraph_collections_total 1\n"))
		tw.add(ArtifactTraces, KindTraces, []byte("[]"))
		tw.addError(ArtifactPprofCPU, errTest)
		b.addFile("bench.json", KindFile, []byte("{}"))
		b.addError("missing.json", errTest)
	})

	m := bb.Manifest
	if m.FormatVersion != FormatVersion || m.Tool != "test v1" || !m.Redacted {
		t.Fatalf("manifest header %+v", m)
	}
	if m.CapturedAtNs != captureInstant.UnixNano() {
		t.Fatalf("CapturedAtNs = %d, want %d", m.CapturedAtNs, captureInstant.UnixNano())
	}
	tm := targetOf(&m, "r0")
	if tm == nil || len(tm.Artifacts) != 2 || len(tm.Errors) != 1 {
		t.Fatalf("target manifest %+v", tm)
	}
	if tm.Artifacts[0].Name != ArtifactMetrics || tm.Artifacts[0].Kind != KindMetrics ||
		tm.Artifacts[0].Bytes != 30 || len(tm.Artifacts[0].SHA256) != 64 {
		t.Fatalf("artifact entry %+v", tm.Artifacts[0])
	}
	if got := string(bb.targetFile("r0", ArtifactMetrics)); got != "polygraph_collections_total 1\n" {
		t.Fatalf("targetFile = %q", got)
	}
	if bb.targetFile("r0", "nope.txt") != nil || bb.targetFile("r9", ArtifactMetrics) != nil {
		t.Fatal("absent artifacts should return nil")
	}
	if len(m.Files) != 1 || m.Files[0].Name != "bench.json" {
		t.Fatalf("files %+v", m.Files)
	}
	if string(bb.Files["files/bench.json"]) != "{}" {
		t.Fatal("run-level file content lost")
	}
	if len(m.Errors) != 1 || m.Errors[0].Artifact != "missing.json" {
		t.Fatalf("run-level errors %+v", m.Errors)
	}
}

var errTest = errFixed("synthetic failure")

type errFixed string

func (e errFixed) Error() string { return string(e) }

// Two builds of the same content at the same instant must be
// byte-identical — the determinism CI relies on to diff bundles.
func TestBundleDeterministicBytes(t *testing.T) {
	fill := func(b *Builder) {
		b.manifest.Tool = "test v1"
		tw := b.target("r0", "http://x")
		tw.add(ArtifactMetrics, KindMetrics, []byte("m 1\n"))
		tw.add(ArtifactTraces, KindTraces, []byte("[]"))
		b.addFile("config.json", KindConfig, []byte("{}"))
	}
	_, first := build(t, fill)
	_, second := build(t, fill)
	if !bytes.Equal(first, second) {
		t.Fatal("identical builds differ byte-for-byte")
	}
}

func TestBundleManifestIsFirstEntry(t *testing.T) {
	_, raw := build(t, func(b *Builder) {
		b.target("r0", "").add(ArtifactMetrics, KindMetrics, []byte("m 1\n"))
	})
	// The gzip stream must start with the manifest entry so `tar tzf`
	// and streaming readers see the table of contents first.
	names := tarNames(t, raw)
	if len(names) == 0 || names[0] != ManifestName {
		t.Fatalf("tar entries %v; want %s first", names, ManifestName)
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"r0":                  "r0",
		"127.0.0.1:8080":      "127.0.0.1-8080",
		"http://host/../etc":  "http---host-..-etc",
		"":                    "target",
		"..":                  "target",
		"ok-name_2.suffix":    "ok-name_2.suffix",
		"weird name\twith ws": "weird-name-with-ws",
	} {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTargetDedup(t *testing.T) {
	bb, _ := build(t, func(b *Builder) {
		b.target("r0", "http://x").add(ArtifactMetrics, KindMetrics, []byte("m 1\n"))
		b.target("r0", "ignored").add(ArtifactTraces, KindTraces, []byte("[]"))
	})
	if len(bb.Manifest.Targets) != 1 {
		t.Fatalf("targets %+v, want one deduped entry", bb.Manifest.Targets)
	}
	if n := len(bb.Manifest.Targets[0].Artifacts); n != 2 {
		t.Fatalf("deduped target has %d artifacts, want 2", n)
	}
}

func TestReadRejectsBadBundles(t *testing.T) {
	if _, err := Read(strings.NewReader("not a gzip stream")); err == nil {
		t.Fatal("non-gzip input accepted")
	}
	// A bundle claiming a newer format must be refused, not
	// misinterpreted.
	b := newBuilder(captureInstant)
	b.manifest.FormatVersion = FormatVersion + 1
	var buf bytes.Buffer
	if _, err := b.write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("newer-format bundle accepted: %v", err)
	}
}

// tarNames lists a bundle stream's entry names in order.
func tarNames(t *testing.T, raw []byte) []string {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	var names []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, hdr.Name)
	}
	return names
}

// targetOf returns the named target's manifest entry, nil when absent.
func targetOf(m *Manifest, name string) *TargetManifest {
	for i := range m.Targets {
		if m.Targets[i].Name == name {
			return &m.Targets[i]
		}
	}
	return nil
}
