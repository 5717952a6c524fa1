package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI subcommands are exercised end to end through a real temp-file
// model: train writes it, every other command consumes it.

func modelPath(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := cmdTrain([]string{"-sessions", "12000", "-o", path}); err != nil {
		t.Fatalf("train: %v", err)
	}
	return path
}

func TestTrainInfoScoreDriftScript(t *testing.T) {
	path := modelPath(t)
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("model file: %v", err)
	}

	if err := cmdInfo([]string{"-model", path}); err != nil {
		t.Fatalf("info: %v", err)
	}

	// Score with a synthetic vector: load the model to learn the
	// honest values for a release, then feed them through the CLI path.
	m, err := loadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]string, m.Dim())
	for i := range values {
		values[i] = "0"
	}
	if err := cmdScore([]string{
		"-model", path,
		"-ua", "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36",
		"-values", strings.Join(values, ","),
	}); err != nil {
		t.Fatalf("score: %v", err)
	}

	if err := cmdScript([]string{"-model", path}); err != nil {
		t.Fatalf("script: %v", err)
	}
	if err := cmdScript(nil); err != nil {
		t.Fatalf("script default: %v", err)
	}

	if err := cmdDrift([]string{"-model", path}); err != nil {
		t.Fatalf("drift: %v", err)
	}
}

func TestScoreValidation(t *testing.T) {
	path := modelPath(t)
	if err := cmdScore([]string{"-model", path}); err == nil {
		t.Fatal("missing -ua/-values accepted")
	}
	if err := cmdScore([]string{"-model", path, "-ua", "x", "-values", "1,2"}); err == nil {
		t.Fatal("wrong value count accepted")
	}
	if err := cmdScore([]string{"-model", path, "-ua", "x", "-values", strings.Repeat("z,", 27) + "z"}); err == nil {
		t.Fatal("non-numeric values accepted")
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := loadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing model accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if _, err := loadModel(bad); err == nil {
		t.Fatal("junk model accepted")
	}
	if err := cmdInfo([]string{"-model", bad}); err == nil {
		t.Fatal("info on junk model succeeded")
	}
	if err := cmdDrift([]string{"-model", bad}); err == nil {
		t.Fatal("drift on junk model succeeded")
	}
	if err := cmdScript([]string{"-model", bad}); err == nil {
		t.Fatal("script on junk model succeeded")
	}
}

func TestGenerateTrainReplayPipeline(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "sessions.jsonl")
	model := filepath.Join(dir, "model.json")
	if err := cmdGenerate([]string{"-sessions", "8000", "-o", data, "-tags"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := cmdTrain([]string{"-data", data, "-o", model}); err != nil {
		t.Fatalf("train from data: %v", err)
	}
	if err := cmdReplay([]string{"-model", model, "-data", data, "-min-risk", "21"}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := cmdReplay([]string{"-model", model}); err == nil {
		t.Fatal("replay without -data accepted")
	}
}

// TestTrainNoveltyFlag: -novelty arms the novelty guard of the model
// train writes, and the guard stays off without it.
func TestTrainNoveltyFlag(t *testing.T) {
	for _, novelty := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "model.json")
		args := []string{"-sessions", "10000", "-o", path}
		if novelty {
			args = append(args, "-novelty")
		}
		if err := cmdTrain(args); err != nil {
			t.Fatal(err)
		}
		m, err := loadModel(path)
		if err != nil {
			t.Fatal(err)
		}
		if armed := m.NoveltyThreshold > 0; armed != novelty {
			t.Fatalf("-novelty=%v: novelty threshold %v", novelty, m.NoveltyThreshold)
		}
	}
}
