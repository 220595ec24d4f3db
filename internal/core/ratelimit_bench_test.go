package core

import (
	"fmt"
	"testing"

	"qrio/internal/cluster/api"
)

// BenchmarkRateLimit measures the intake's rate-limit hot path — it sits ahead
// of admission on every submission, so it must stay cheap exactly when
// the orchestrator is being flooded. Guarded by the CI bench-compare job.
func BenchmarkRateLimit(b *testing.B) {
	// The common production case: no limit configured — one map delete
	// under the mutex, no bucket state.
	b.Run("unlimited", func(b *testing.B) {
		l := rateLimiter{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.allow("tenant", api.TenantRateLimit{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A limited tenant admitting under its rate: refill arithmetic plus
	// one bucket lookup per call.
	b.Run("limited-admit", func(b *testing.B) {
		l := rateLimiter{}
		limit := api.TenantRateLimit{SubmitPerSecond: 1e12, Burst: 1 << 30}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.allow("tenant", limit); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The flood case: an exhausted bucket rejecting — the 429 path must
	// not be more expensive than the admit path, or shedding load would
	// itself be load.
	b.Run("limited-reject", func(b *testing.B) {
		l := rateLimiter{}
		limit := api.TenantRateLimit{SubmitPerSecond: 1e-9, Burst: 1}
		l.allow("tenant", limit) // drain the single token
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.allow("tenant", limit); err == nil {
				b.Fatal("exhausted bucket admitted")
			}
		}
	})
	// Many tenants: the per-tenant map stays O(1) per call at fleet scale.
	b.Run("many-tenants", func(b *testing.B) {
		l := rateLimiter{}
		limit := api.TenantRateLimit{SubmitPerSecond: 1e12, Burst: 1 << 30}
		tenants := make([]string, 512)
		for i := range tenants {
			tenants[i] = fmt.Sprintf("tenant-%03d", i)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.allow(tenants[i%len(tenants)], limit); err != nil {
				b.Fatal(err)
			}
		}
	})
}
