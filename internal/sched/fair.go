// Weighted fair queueing across tenants. A scheduling pass does not walk
// the pending backlog in raw global-FIFO order: jobs are grouped
// into per-tenant FIFO sub-queues and interleaved by smooth weighted
// round-robin (the nginx algorithm), so one tenant flooding the queue
// cannot starve the others — with equal weights, two backlogged tenants
// converge to a 50/50 share of binds regardless of their submission
// rates, and weights skew that share proportionally.
//
// With a single tenant the interleaving degenerates to the exact global
// FIFO order.
package sched

import (
	"sort"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// weightOf resolves a tenant's effective weight: a live TenantConfig
// override (set through PUT /v1/tenants/{name}, hot-reloaded) wins over
// the static flag configuration; missing or non-positive entries mean
// weight 1, so unconfigured tenants compete equally instead of being
// shut out.
func (s *Scheduler) weightOf(tenant string) int {
	if w, ok := s.State.TenantWeight(tenant); ok {
		return w
	}
	if w := s.TenantWeights[tenant]; w > 0 {
		return w
	}
	return 1
}

// quotaFor resolves a tenant's effective quota the same way: live
// override first, static policy second.
func (s *Scheduler) quotaFor(tenant string) api.TenantQuota {
	if cfg, ok := s.State.TenantConfig(tenant); ok {
		return cfg.Quota
	}
	return s.TenantQuotas.For(tenant)
}

// fairOrderer returns the pass's dispatch iterator: next(n) yields the
// next ≤n jobs in weighted-fair order (smooth weighted round-robin
// across tenants, FIFO within each tenant), nil when drained. The
// interleave is generated lazily — a pass that binds its Concurrency
// budget from the first chunk never pays to order the rest of a deep
// backlog. With zero or one tenant present the iterator serves slices of
// the input untouched — byte-identical to the pre-tenancy scheduler.
//
// The ordering runs on a scratch copy of the credit state: only a
// handful of binds may land this pass, so the persistent credits advance
// per *actual* bind (chargeBind, called by the binder) — that is what
// makes shares converge to the weight ratio across passes instead of
// resetting every pass.
func (s *Scheduler) fairOrderer(pending []api.QuantumJob) func(n int) []api.QuantumJob {
	// Single-tenant fast path: detected with a scan, no copies — the
	// dominant case must cost nothing over the pre-tenancy scheduler.
	multi := false
	for i := 1; i < len(pending); i++ {
		if state.TenantOf(&pending[i]) != state.TenantOf(&pending[0]) {
			multi = true
			break
		}
	}
	if !multi {
		s.passTenants = nil // single tenant: binds are never charged
		pos := 0
		return func(n int) []api.QuantumJob {
			if pos >= len(pending) || n <= 0 {
				return nil
			}
			end := pos + n
			if end > len(pending) {
				end = len(pending)
			}
			chunk := pending[pos:end]
			pos = end
			return chunk
		}
	}

	// Group into per-tenant sub-queues of indices (job structs are big;
	// only the emitted interleave copies them). The global snapshot is
	// already (CreatedAt, Name)-sorted, so each sub-queue inherits FIFO
	// order.
	queues := make(map[string][]int)
	tenants := make([]string, 0, 4)
	for i := range pending {
		t := state.TenantOf(&pending[i])
		if _, seen := queues[t]; !seen {
			tenants = append(tenants, t)
		}
		queues[t] = append(queues[t], i)
	}
	sort.Strings(tenants) // deterministic credit accrual and tie-breaks

	if s.wrrCredit == nil {
		s.wrrCredit = make(map[string]int)
	}
	// Drop credit for tenants with no backlog this pass: a drained (or
	// departed) tenant re-enters later on equal footing, and the map
	// stays bounded by the set of currently-backlogged tenants.
	for t := range s.wrrCredit {
		if _, ok := queues[t]; !ok {
			delete(s.wrrCredit, t)
		}
	}
	s.passTenants = tenants
	s.passTotalWeight = 0
	for _, t := range tenants {
		s.passTotalWeight += s.weightOf(t)
	}

	credit := make(map[string]int, len(tenants))
	for _, t := range tenants {
		credit[t] = s.wrrCredit[t]
	}
	heads := make(map[string]int, len(tenants))
	remaining := len(pending)
	return func(n int) []api.QuantumJob {
		if remaining == 0 || n <= 0 {
			return nil
		}
		if n > remaining {
			n = remaining
		}
		out := make([]api.QuantumJob, 0, n)
		for len(out) < n {
			total := 0
			for _, t := range tenants {
				if heads[t] < len(queues[t]) {
					total += s.weightOf(t)
				}
			}
			best := ""
			for _, t := range tenants {
				if heads[t] >= len(queues[t]) {
					continue
				}
				credit[t] += s.weightOf(t)
				if best == "" || credit[t] > credit[best] {
					best = t
				}
			}
			credit[best] -= total
			out = append(out, pending[queues[best][heads[best]]])
			heads[best]++
			remaining--
		}
		return out
	}
}

// fairOrder drains fairOrderer into one slice — the full pass order,
// used by tests pinning the interleave shape.
func (s *Scheduler) fairOrder(pending []api.QuantumJob) []api.QuantumJob {
	next := s.fairOrderer(pending)
	out := make([]api.QuantumJob, 0, len(pending))
	for chunk := next(len(pending)); chunk != nil; chunk = next(len(pending)) {
		out = append(out, chunk...)
	}
	return out
}

// capActiveBudget enforces the MaxActive quota bound at dispatch time:
// each tenant contributes at most (MaxActive − currently active) jobs to
// the pass, so a burst admitted while the tenant was idle cannot bind
// past the cap. With no active bounds configured the input is returned
// untouched — the pre-tenancy scheduler's exact behaviour.
func (s *Scheduler) capActiveBudget(pending []api.QuantumJob) []api.QuantumJob {
	if len(pending) == 0 || !s.hasActiveBound() {
		return pending
	}
	budget := make(map[string]int)
	kept := pending[:0]
	for i := range pending {
		t := state.TenantOf(&pending[i])
		b, ok := budget[t]
		if !ok {
			if max := s.quotaFor(t).MaxActive; max <= 0 {
				b = -1 // unlimited
			} else {
				b = max - s.State.TenantUsage(t).Active
				if b < 0 {
					b = 0
				}
			}
		}
		if b == 0 {
			budget[t] = b
			continue
		}
		if b > 0 {
			b--
		}
		budget[t] = b
		kept = append(kept, pending[i])
	}
	return kept
}

// hasActiveBound reports whether any configured quota — static or live
// override — caps active jobs.
func (s *Scheduler) hasActiveBound() bool {
	if s.TenantQuotas.Default.MaxActive > 0 {
		return true
	}
	for _, q := range s.TenantQuotas.Tenants {
		if q.MaxActive > 0 {
			return true
		}
	}
	return s.State.HasActiveQuotaOverride()
}

// chargeBind settles one actual bind against the persistent SWRR state:
// every backlogged tenant accrues its weight, the tenant that got the
// bind pays the full round. A tenant whose head job kept failing to bind
// therefore accumulates credit and goes first in later passes.
func (s *Scheduler) chargeBind(job *api.QuantumJob) {
	if len(s.passTenants) <= 1 {
		return
	}
	for _, t := range s.passTenants {
		s.wrrCredit[t] += s.weightOf(t)
	}
	s.wrrCredit[state.TenantOf(job)] -= s.passTotalWeight
}
