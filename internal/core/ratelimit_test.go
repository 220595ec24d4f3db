package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qrio/internal/cluster/api"
)

// tickClock is a mutex-protected virtual clock driving bucket refills.
type tickClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTickClock() *tickClock {
	return &tickClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tickClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestBucketRateAndBurst pins the token-bucket arithmetic: burst admits
// immediately, then admission tracks the refill rate, and the 429 carries
// the time until a full token.
func TestBucketRateAndBurst(t *testing.T) {
	fc := newTickClock()
	l := rateLimiter{clock: fc}
	limit := api.TenantRateLimit{SubmitPerSecond: 2, Burst: 3}

	for i := 0; i < 3; i++ {
		if err := l.allow("alice", limit); err != nil {
			t.Fatalf("burst submission %d refused: %v", i, err)
		}
	}
	err := l.allow("alice", limit)
	var rl *RateLimitedError
	if !errors.As(err, &rl) {
		t.Fatalf("over-burst submission: got %v, want *RateLimitedError", err)
	}
	// Empty bucket at 2 tokens/s: a full token is 500ms away.
	if rl.Wait != 500*time.Millisecond {
		t.Fatalf("Retry-After wait = %s, want 500ms", rl.Wait)
	}
	if rl.Tenant != "alice" {
		t.Fatalf("error tenant = %q", rl.Tenant)
	}

	fc.Advance(500 * time.Millisecond)
	if err := l.allow("alice", limit); err != nil {
		t.Fatalf("refilled token refused: %v", err)
	}
	if err := l.allow("alice", limit); err == nil {
		t.Fatal("second submission admitted on one refilled token")
	}

	// Long idle refills only to burst, never beyond.
	fc.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if err := l.allow("alice", limit); err != nil {
			t.Fatalf("post-idle submission %d refused: %v", i, err)
		}
	}
	if err := l.allow("alice", limit); err == nil {
		t.Fatal("idle refill exceeded burst")
	}
}

// TestBurstDefault: burst 0 defaults to max(1, ceil(rate)).
func TestBurstDefault(t *testing.T) {
	fc := newTickClock()
	l := rateLimiter{clock: fc}

	// Sub-1/s rate still admits a single submission.
	slow := api.TenantRateLimit{SubmitPerSecond: 0.5}
	if err := l.allow("slow", slow); err != nil {
		t.Fatalf("first slow submission refused: %v", err)
	}
	if err := l.allow("slow", slow); err == nil {
		t.Fatal("second slow submission admitted within the burst of 1")
	}

	// rate 2.5 → burst ceil = 3.
	mid := api.TenantRateLimit{SubmitPerSecond: 2.5}
	for i := 0; i < 3; i++ {
		if err := l.allow("mid", mid); err != nil {
			t.Fatalf("mid submission %d refused: %v", i, err)
		}
	}
	if err := l.allow("mid", mid); err == nil {
		t.Fatal("mid burst exceeded ceil(rate)")
	}
}

// TestHotReload: the bucket re-reads rate and burst per call, so an
// operator override applies to the very next submission; going unlimited
// forgets the bucket entirely (a re-limited tenant starts fresh).
func TestHotReload(t *testing.T) {
	fc := newTickClock()
	l := rateLimiter{clock: fc}

	strict := api.TenantRateLimit{SubmitPerSecond: 1, Burst: 1}
	if err := l.allow("bob", strict); err != nil {
		t.Fatal(err)
	}
	if err := l.allow("bob", strict); err == nil {
		t.Fatal("strict limit admitted past burst")
	}

	// Raise the limit: the drained bucket refills at the new rate.
	raised := api.TenantRateLimit{SubmitPerSecond: 100, Burst: 1}
	fc.Advance(100 * time.Millisecond) // 10 tokens at the raised rate, capped at burst 1
	if err := l.allow("bob", raised); err != nil {
		t.Fatalf("raised limit refused: %v", err)
	}

	// Unlimited admits and forgets history.
	if err := l.allow("bob", api.TenantRateLimit{}); err != nil {
		t.Fatalf("unlimited refused: %v", err)
	}
	l.mu.Lock()
	_, kept := l.buckets["bob"]
	l.mu.Unlock()
	if kept {
		t.Fatal("unlimited tenant kept a bucket")
	}
	// Re-limiting starts from a full burst, not the stricter past.
	if err := l.allow("bob", strict); err != nil {
		t.Fatalf("re-limited tenant refused its fresh burst: %v", err)
	}
}

// TestBucketPrune: at the map cap, buckets idle long enough to have
// fully refilled are dropped — a fresh bucket behaves identically.
func TestBucketPrune(t *testing.T) {
	fc := newTickClock()
	l := rateLimiter{clock: fc}
	limit := api.TenantRateLimit{SubmitPerSecond: 10, Burst: 1}

	for i := 0; i < maxIdleBuckets; i++ {
		if err := l.allow(fmt.Sprintf("tenant-%d", i), limit); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(2 * time.Minute)
	if err := l.allow("newcomer", limit); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	size := len(l.buckets)
	l.mu.Unlock()
	if size != 1 {
		t.Fatalf("bucket map holds %d entries after prune, want 1", size)
	}
}
