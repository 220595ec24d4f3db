package sched

import (
	"context"
	"sync/atomic"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// Scheduler drives the cluster's scheduling loop: it sleeps until a job
// event (see Run) and, each pass, binds up to Concurrency pending jobs
// through one pipeline — snapshot the pending queue, cap each tenant at
// its active budget, walk the jobs in weighted-fair order (FIFO within a
// tenant, and globally with one tenant; see fair.go), rank each distinct
// spec against the fleet once (Framework.Rank) and bind greedily, best
// score first with deterministic name tie-breaks, so no node slot is ever
// double-booked (see Dispatch). A budget of 1 is a batch of one. Every
// bind is conditional on the resource version the pass observed the job
// at, so a cancel, requeue or archival that lands mid-pass makes the bind
// lose cleanly instead of overwriting it. Plugins see the owning tenant
// on every job via Spec.Tenant.
type Scheduler struct {
	State     *state.Cluster
	Framework *Framework
	// Concurrency is the per-pass bind budget (default 1, the paper's
	// one job at a time).
	Concurrency int
	// TenantWeights skews the weighted fair queue every pass drains: a
	// tenant with weight 3 receives three binds for every one a weight-1
	// tenant gets while both are backlogged. Missing tenants weigh 1; nil
	// means every tenant competes equally.
	TenantWeights map[string]int
	// TenantQuotas lets the scheduler enforce the MaxActive bound at
	// dispatch time: a pass never considers more of a tenant's queue than
	// its remaining active budget, so a burst admitted while the tenant
	// was idle still cannot exceed the cap once bound. The zero policy
	// disables the check (byte-identical pre-tenancy behaviour).
	TenantQuotas api.TenantQuotaPolicy
	// MaxPendingPerTenant bounds how much of each tenant's queue a pass
	// snapshots (0 = unlimited). Within-tenant FIFO order is preserved —
	// the cap trims only the tail — so a pass under deep overload costs
	// O(tenants × cap) instead of O(total backlog).
	MaxPendingPerTenant int
	// Metrics is the optional instrumentation handle (nil = no metrics,
	// the zero-overhead default). Set once at wiring time.
	Metrics *Metrics

	// wrrCredit is the smooth weighted round-robin accumulator behind
	// fairOrder, advanced one round per actual bind (see fair.go) and
	// persisted across passes. passTenants/passTotalWeight carry the
	// current pass's backlogged-tenant context from fairOrder to
	// chargeBind. All three are accessed only from SchedulePass, which is
	// not safe for concurrent use.
	wrrCredit       map[string]int
	passTenants     []string
	passTotalWeight int

	// fleetRank keeps spec-class rankings ACROSS passes while the
	// framework's chain is static (Framework.static) and the fleet epoch
	// it was built against (state.Cluster.Fleet) still holds: a static
	// chain ranks the same spec the same way until a node joins, leaves
	// or changes device. Accessed only from SchedulePass, like wrrCredit.
	fleetRank      map[uint64][]NodeScore
	fleetRankEpoch uint64
	// passes counts SchedulePass calls (tests hold Run to its wake-ups).
	passes atomic.Int64
}

// New assembles a scheduler over cluster state.
func New(st *state.Cluster, fw *Framework) *Scheduler {
	return &Scheduler{State: st, Framework: fw, Concurrency: 1}
}

// Run schedules until the context is cancelled: one pass at start (jobs
// Pending since boot or WAL replay), one per burst of job events (the
// state's SchedulerWake token), and one every 10 ms while a job waits,
// since a node, a slot, a tenant budget or the scorer's breaker can open
// without a job event. Idle, it sleeps.
func (s *Scheduler) Run(ctx context.Context) {
	const retryEvery = 10 * time.Millisecond
	wake := s.State.SchedulerWake()
	select {
	case <-wake: // the first pass covers every event before Run
	default:
	}
	for {
		s.SchedulePass()
		var retry <-chan time.Time // nil: never fires
		if s.State.PendingCount() > 0 {
			retry = time.After(retryEvery)
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		case <-retry:
		}
	}
}

// SchedulePass binds up to Concurrency pending jobs and returns the
// number bound. It pulls weighted-fair chunks until the budget is bound or
// the queue is exhausted, so unschedulable jobs at the head cannot starve
// feasible jobs behind them. The fair order is generated lazily: in the
// common case only the first chunk of a deep backlog is ever interleaved.
// Ranking, the greedy walk and the pass-local headroom that keeps it from
// double-booking a node are Dispatch's; BindJobAt's own capacity check
// remains the authoritative guard against races with kubelets and other
// actors.
func (s *Scheduler) SchedulePass() int {
	s.passes.Add(1)
	limit := s.Concurrency
	if limit <= 0 {
		limit = 1
	}
	// The incremental pending index makes this O(pending work): terminal
	// jobs resident in the store are never touched, let alone deep-copied.
	// Each job copy carries the resource version it was read at
	// (ObjectMeta.ResourceVersion) — the observation its bind is
	// conditioned on.
	pending := s.capActiveBudget(s.State.PendingJobsCapped(s.MaxPendingPerTenant))
	if len(pending) == 0 || s.Framework == nil {
		return 0
	}
	// Pass duration is real compute, so it reads the wall clock even under
	// the simulator's virtual time.
	m := s.Metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	d := s.newDispatch()
	next := s.fairOrderer(pending)
	bound := 0
	for bound < limit {
		chunk := next(limit)
		if len(chunk) == 0 {
			break
		}
		bound += d.Place(chunk, limit-bound)
	}
	if m != nil {
		m.PassSeconds.Observe(time.Since(start).Seconds())
		m.PassJobs.With("ranked").Add(uint64(len(pending)))
		m.PassJobs.With("bound").Add(uint64(bound))
	}
	return bound
}

// bind places one job at the version it was observed at. A ConflictError
// means another writer (a cancel, requeue or archival) moved the job since
// the snapshot — count it and pass it up for the caller to treat as
// "job moved on", not as a scheduling failure.
func (s *Scheduler) bind(job *api.QuantumJob, nodeName string, score float64) error {
	err := s.State.BindJobAt(job.Name, nodeName, score, job.ResourceVersion)
	if state.IsConflict(err) {
		if m := s.Metrics; m != nil {
			m.BindConflicts.Inc()
		}
	}
	return err
}

// newDispatch starts the pass's placement over the state's node table:
// rank is Framework.Rank, bind is BindJobAt at the observed version.
func (s *Scheduler) newDispatch() *Dispatch {
	nodes, epoch := s.State.Fleet()
	d := NewDispatch(nodes, s.Framework.Rank, func(job *api.QuantumJob, node string, score float64) BindOutcome {
		err := s.bind(job, node, score)
		switch {
		case err == nil:
			s.chargeBind(job)
			return Bound
		case state.IsCapacity(err):
			return NodeUnavailable
		}
		return JobMoved // ConflictError, or the job no longer exists
	})
	d.record = func(jobName, reason, message string) {
		s.State.RecordEvent("Job", jobName, reason, message)
	}
	if s.Framework.static() {
		if s.fleetRank == nil || s.fleetRankEpoch != epoch {
			s.fleetRank, s.fleetRankEpoch = map[uint64][]NodeScore{}, epoch
		}
		d.rankings = s.fleetRank
	} else {
		s.fleetRank = nil
	}
	return d
}
