package collect

import (
	"sync"
	"time"
)

// RateLimiter is a sharded token-bucket limiter keyed by client address.
// The collection endpoint is internet-facing; a misbehaving client (or a
// fingerprint-replay loop) must not be able to monopolize the scoring
// tier. Buckets refill at Rate tokens/second up to Burst; idle buckets
// are evicted lazily.
type RateLimiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	shards [16]limiterShard
}

type limiterShard struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter allowing ratePerSec sustained requests
// with the given burst per client key.
func NewRateLimiter(ratePerSec float64, burst int) *RateLimiter {
	if ratePerSec <= 0 {
		ratePerSec = 50
	}
	if burst <= 0 {
		burst = 100
	}
	rl := &RateLimiter{rate: ratePerSec, burst: float64(burst), now: time.Now}
	for i := range rl.shards {
		rl.shards[i].buckets = map[string]*bucket{}
	}
	return rl
}

// Allow consumes one token for key, reporting whether the request may
// proceed.
func (rl *RateLimiter) Allow(key string) bool {
	sh := &rl.shards[fnvShard(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := rl.now()
	b := sh.buckets[key]
	if b == nil {
		// Lazy eviction: when a shard grows large, drop buckets that
		// have fully refilled (they carry no state worth keeping).
		if len(sh.buckets) > 4096 {
			for k, old := range sh.buckets {
				if now.Sub(old.last).Seconds()*rl.rate >= rl.burst {
					delete(sh.buckets, k)
				}
			}
		}
		b = &bucket{tokens: rl.burst, last: now}
		sh.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * rl.rate
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func fnvShard(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h % 16
}
