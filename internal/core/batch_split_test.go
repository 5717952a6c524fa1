package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"polygraph/internal/ua"
)

// TestScoreBatchSplit drives ScoreStringBatchContext past batchSplitRows, where it cuts
// the batch into one span per goroutine: every row must equal the
// per-request call whatever the goroutine bound, the lowest-index bad row
// must be the one reported even when later spans hold bad rows too, and
// a done context must win over both.
func TestScoreBatchSplit(t *testing.T) {
	m, _, _ := trainFixtureModel(t, 40)
	samples, _ := trainFixture(t, 40)
	const n = 5*batchSplitRows + 37 // not a multiple of any span count tried
	vectors := make([][]float64, n)
	agents := make([]string, n)
	for i := range vectors {
		s := samples[(i*7)%len(samples)]
		vectors[i] = s.Vector
		agents[i] = ua.UserAgent(s.UA, ua.Windows10)
		if i%5 == 0 { // unparseable: the predict-only rule
			agents[i] = fmt.Sprintf("weird-bot/%d", i)
		}
	}
	want := make([]Result, n)
	for i := range want {
		var err error
		if want[i], err = m.ScoreStringWith(nil, vectors[i], agents[i]); err != nil {
			t.Fatal(err)
		}
	}

	bad := append([][]float64(nil), vectors...)
	for _, i := range []int{n - 1, 3*batchSplitRows + 1, batchSplitRows + 200} {
		bad[i] = []float64{1, 2, 3}
	}
	lowest := fmt.Sprintf("row %d:", batchSplitRows+200)
	done, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{0, 1, 2, 8} {
		got, err := m.ScoreStringBatchContext(context.Background(), vectors, agents, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: batch %+v, per-request %+v", workers, i, got[i], want[i])
			}
		}
		if _, err := m.ScoreStringBatchContext(context.Background(), bad, agents, workers); err == nil || !strings.Contains(err.Error(), lowest) {
			t.Fatalf("workers=%d: bad rows reported as %v, want %q", workers, err, lowest)
		}
		if _, err := m.ScoreStringBatchContext(done, bad, agents, workers); !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d under a done context: %v, want ErrCanceled", workers, err)
		}
	}
}
