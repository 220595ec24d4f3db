package sched

import "qrio/internal/obs"

// Metrics is the scheduler's instrumentation handle. Nil (the default)
// costs one branch per pass — schedulers built without a registry (the
// paper experiments, benches) pay nothing. Degraded-mode episodes are
// not counted here: the breaker already counts its own opens
// (resilience.Breaker.Opens), which the core wiring mirrors at scrape
// time as qrio_sched_degraded_episodes_total.
type Metrics struct {
	// PassSeconds observes the wall time of each non-empty scheduling
	// pass (an empty one measures nothing).
	PassSeconds *obs.Histogram
	// PassJobs counts per-pass work by outcome: "ranked" (pending jobs
	// the pass considered) and "bound" (jobs it placed). The gap between
	// the two is the backlog the fleet couldn't absorb.
	PassJobs *obs.CounterVec
	// BindConflicts counts version-conditional binds lost because another
	// writer — a cancel, a requeue or the archiver — moved the job between
	// the pass's snapshot and its bind; the pass leaves the job alone.
	BindConflicts *obs.Counter
}

// NewMetrics registers the scheduler's families on a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		PassSeconds: r.Histogram("qrio_sched_pass_duration_seconds",
			"Wall time of each non-empty scheduling pass.", nil).With(),
		PassJobs: r.Counter("qrio_sched_pass_jobs_total",
			"Jobs considered (ranked) and placed (bound) by scheduling passes.", "outcome"),
		BindConflicts: r.Counter("qrio_sched_bind_conflicts_total",
			"Version-conditional binds lost to a concurrent cancel, requeue or archival.").With(),
	}
}
