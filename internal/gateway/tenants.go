// GET /v1/tenants: the operator's view of every tenant's usage, weight,
// quota and rate limit. The quota and rate-limit gates themselves are the
// orchestrator's intake (core.QRIO.Submit) and state.SubmitJob's
// per-tenant gate, the one exact quota gate.
package gateway

import (
	"net/http"
	"sort"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/httpx"
)

// TenantStatus is one row of GET /v1/tenants: the tenant's live usage
// from the cluster index, its fair-share weight and its governing quota.
type TenantStatus struct {
	state.TenantUsage
	Weight    int                 `json:"weight"`
	Quota     api.TenantQuota     `json:"quota"`
	RateLimit api.TenantRateLimit `json:"rateLimit,omitempty"`
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	usages := s.Core.State.TenantUsages()
	seen := make(map[string]bool, len(usages))
	for _, u := range usages {
		seen[u.Tenant] = true
	}
	// Configured-but-idle tenants (live overrides, static quota entries,
	// scheduler weights) are listed too, with zero usage — the operator's
	// full tenancy view.
	for _, cfg := range s.Core.State.TenantConfigList() {
		if !seen[cfg.Name] {
			seen[cfg.Name] = true
			usages = append(usages, state.TenantUsage{Tenant: cfg.Name})
		}
	}
	for t := range s.Core.Quotas.Tenants {
		if !seen[t] {
			seen[t] = true
			usages = append(usages, state.TenantUsage{Tenant: t})
		}
	}
	for t := range s.Core.Scheduler.TenantWeights {
		if !seen[t] {
			seen[t] = true
			usages = append(usages, state.TenantUsage{Tenant: t})
		}
	}
	out := make([]TenantStatus, 0, len(usages))
	for _, u := range usages {
		// Resolution order mirrors the scheduler's: live override first,
		// static flag configuration second.
		weight, ok := s.Core.State.TenantWeight(u.Tenant)
		if !ok {
			weight = 1
			if w := s.Core.Scheduler.TenantWeights[u.Tenant]; w > 0 {
				weight = w
			}
		}
		out = append(out, TenantStatus{
			TenantUsage: u,
			Weight:      weight,
			Quota:       s.Core.State.QuotaFor(u.Tenant),
			RateLimit:   s.Core.State.RateLimitFor(u.Tenant),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	httpx.WriteJSON(w, http.StatusOK, out)
}
