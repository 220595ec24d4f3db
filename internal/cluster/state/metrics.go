package state

import "qrio/internal/obs"

// Metrics is the state layer's instrumentation handle: the hot-path
// counters and histograms the cluster bumps as jobs move. A nil handle
// (the default — every call site guards) costs one predictable branch,
// so clusters built without a registry (benches, the paper experiments)
// pay nothing. Depth gauges (pending/active/terminal/archived) are NOT
// here: they are cheap instantaneous reads, sampled at scrape time by
// the core wiring's OnGather hook instead of updated per event.
type Metrics struct {
	// SubmitToBind observes CreatedAt→bind latency at every successful
	// BindJob — the queueing delay a tenant actually experiences.
	SubmitToBind *obs.Histogram
	// TenantBinds counts successful binds per tenant: the fair-share
	// outcome the weighted scheduler is supposed to converge.
	TenantBinds *obs.CounterVec
	// QuotaRejections counts quota-rejected submissions per tripped
	// limit ("pending", "active", "qubit-seconds"). CheckTenantQuota is
	// the single counting point: the gateway's admission layer rejects
	// before SubmitJob re-checks, so each rejected submission counts
	// exactly once on whichever surface it arrived through.
	QuotaRejections *obs.CounterVec
	// WatchResumes counts resume attempts by outcome: "replayed" (the
	// journal still covered the token) or "compacted" (the client gets
	// 410 and falls back to a fresh watch).
	WatchResumes *obs.CounterVec
}

// NewMetrics registers the state layer's families on a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	// Submit→bind spans milliseconds (idle fleet) to many seconds (deep
	// backlog); the default latency buckets cover exactly that range.
	return &Metrics{
		SubmitToBind: r.Histogram("qrio_state_submit_to_bind_seconds",
			"Latency from job submission to its bind to a node.", nil).With(),
		TenantBinds: r.Counter("qrio_state_tenant_binds_total",
			"Jobs bound to nodes, per tenant.", "tenant"),
		QuotaRejections: r.Counter("qrio_state_quota_rejections_total",
			"Submissions rejected by tenant quota, per tripped limit.", "limit"),
		WatchResumes: r.Counter("qrio_watch_resume_total",
			"Watch resume attempts by outcome (replayed or compacted).", "outcome"),
	}
}
