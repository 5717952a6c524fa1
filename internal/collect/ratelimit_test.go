package collect

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives the limiter deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestLimiter(rate float64, burst int) (*RateLimiter, *fakeClock) {
	rl := NewRateLimiter(rate, burst)
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	rl.now = clock.now
	return rl, clock
}

func TestRateLimiterBurstThenBlock(t *testing.T) {
	rl, _ := newTestLimiter(10, 5)
	for i := 0; i < 5; i++ {
		if !rl.Allow("1.2.3.4") {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	if rl.Allow("1.2.3.4") {
		t.Fatal("request over burst allowed")
	}
	// Other clients unaffected.
	if !rl.Allow("5.6.7.8") {
		t.Fatal("independent client denied")
	}
}

func TestRateLimiterRefills(t *testing.T) {
	rl, clock := newTestLimiter(10, 5)
	for i := 0; i < 5; i++ {
		rl.Allow("k")
	}
	if rl.Allow("k") {
		t.Fatal("exhausted bucket allowed")
	}
	clock.advance(200 * time.Millisecond) // 2 tokens
	if !rl.Allow("k") || !rl.Allow("k") {
		t.Fatal("refilled tokens denied")
	}
	if rl.Allow("k") {
		t.Fatal("over-refill allowed")
	}
	// Refill caps at burst.
	clock.advance(time.Hour)
	for i := 0; i < 5; i++ {
		if !rl.Allow("k") {
			t.Fatalf("request %d after long idle denied", i)
		}
	}
	if rl.Allow("k") {
		t.Fatal("burst cap not enforced after idle")
	}
}

func TestRateLimiterDefaults(t *testing.T) {
	rl := NewRateLimiter(0, 0)
	if rl.rate != 50 || rl.burst != 100 {
		t.Fatalf("defaults %v/%v", rl.rate, rl.burst)
	}
}

func TestRateLimiterEviction(t *testing.T) {
	rl, clock := newTestLimiter(100, 10)
	// Fill one shard beyond the eviction threshold; keys sharing a
	// shard is fine — we just need many buckets overall.
	for i := 0; i < 16*4200; i++ {
		rl.Allow(string(rune(i)) + "x")
	}
	clock.advance(time.Hour) // everything refills => evictable
	rl.Allow("fresh-key")
	total := 0
	for i := range rl.shards {
		rl.shards[i].mu.Lock()
		total += len(rl.shards[i].buckets)
		rl.shards[i].mu.Unlock()
	}
	if total > 16*4200 {
		t.Fatalf("no eviction happened: %d buckets", total)
	}
}

func TestRateLimiterConcurrent(t *testing.T) {
	rl, _ := newTestLimiter(1000, 1000)
	var wg sync.WaitGroup
	allowed := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if rl.Allow("shared") {
					allowed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range allowed {
		total += n
	}
	// 4000 attempts against burst 1000 (no time passes): exactly the
	// burst may pass.
	if total != 1000 {
		t.Fatalf("allowed %d, want exactly 1000", total)
	}
}
