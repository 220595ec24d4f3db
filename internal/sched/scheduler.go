package sched

import (
	"context"
	"fmt"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// Scheduler drives the cluster's scheduling loop: it watches for pending
// jobs, runs the framework's filter/score pipeline, and binds each job to
// the winning node. By default it processes one job at a time in FIFO
// order, matching the paper's current architecture (§5); Concurrency > 1
// enables the future-work extension: each pass collects up to Concurrency
// pending jobs, ranks each distinct spec among them against the fleet
// once (in parallel, calling Framework.Rank), and binds greedily — FIFO
// job order, best-score-first candidates, deterministic name tie-breaks —
// so no node slot is ever double-booked (see Dispatch). Every bind, on
// either path, is conditional on the resource version the pass observed
// the job at, so any number of schedulers can share one pending queue:
// exactly one wins each job. When jobs from several tenants are queued,
// batched dispatch walks them in weighted-fair order instead of raw FIFO
// (see fair.go and TenantWeights); plugins see the owning tenant on every
// job via Spec.Tenant.
type Scheduler struct {
	State     *state.Cluster
	Framework *Framework
	// Interval is the reconcile cadence (default 10ms; in-process stores
	// make this cheap).
	Interval time.Duration
	// Concurrency caps jobs dispatched per pass (default 1 = paper's
	// serial path; >1 selects batched dispatch).
	Concurrency int
	// FleetResync is the level-triggered fallback cadence at which the
	// node snapshot cache re-Lists the store, healing dropped watch events
	// (default 1s). Tests shrink it to force relists.
	FleetResync time.Duration
	// TenantWeights skews the weighted fair queue that batched dispatch
	// drains: a tenant with weight 3 receives three binds for every one a
	// weight-1 tenant gets while both are backlogged. Missing tenants
	// weigh 1; nil means every tenant competes equally. The serial path
	// (Concurrency == 1) ignores weights and stays strictly FIFO.
	TenantWeights map[string]int
	// TenantQuotas lets the scheduler enforce the MaxActive bound at
	// dispatch time: a pass never considers more of a tenant's queue than
	// its remaining active budget, so a burst admitted while the tenant
	// was idle still cannot exceed the cap once bound. The zero policy
	// disables the check (byte-identical pre-tenancy behaviour).
	TenantQuotas api.TenantQuotaPolicy
	// Clock is the scheduler's time source — the fleet cache's resync
	// cadence reads it, so the virtual-time simulator can drive relists
	// on virtual time. Nil means the wall clock.
	Clock clock.Clock
	// MaxPendingPerTenant bounds how much of each tenant's queue a pass
	// snapshots (0 = unlimited). Within-tenant FIFO order is preserved —
	// the cap trims only the tail — so a pass under deep overload costs
	// O(tenants × cap) instead of O(total backlog).
	MaxPendingPerTenant int
	// Partition restricts this scheduler to its share of an N-way
	// replica partition of the pending queue (nil = own everything, the
	// single-replica default). See Partition for the takeover protocol.
	Partition *Partition
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

	// fleet is the watch-fed node snapshot cache: passes rank against this
	// cached view instead of deep-copying the whole fleet each pass.
	fleet fleetCache

	// fleetRank keeps spec-class rankings ACROSS passes while the
	// framework's chain is static (Framework.static) and the fleet
	// membership epoch it was built against still holds: a static chain
	// ranks the same spec the same way until a node joins or leaves.
	// Accessed only from SchedulePass, like wrrCredit.
	fleetRank      map[uint64][]NodeScore
	fleetRankEpoch uint64
}

// New assembles a scheduler over cluster state.
func New(st *state.Cluster, fw *Framework) *Scheduler {
	return &Scheduler{State: st, Framework: fw, Interval: 10 * time.Millisecond, Concurrency: 1}
}

// Run reconciles until the context is cancelled.
func (s *Scheduler) Run(ctx context.Context) {
	interval := s.Interval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	events, cancel := s.State.Jobs.Watch(128)
	defer cancel()
	defer s.fleet.stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-events:
			s.SchedulePass()
		case <-ticker.C:
			s.SchedulePass()
		}
	}
}

// SchedulePass schedules up to Concurrency pending jobs, oldest first.
// It returns the number of jobs bound. Concurrency == 1 runs the
// paper-faithful serial pipeline; larger values dispatch a batch.
func (s *Scheduler) SchedulePass() int {
	limit := s.Concurrency
	if limit <= 0 {
		limit = 1
	}
	// The incremental pending index makes this O(pending work): terminal
	// jobs resident in the store are never touched, let alone deep-copied.
	pending := s.capActiveBudget(s.snapshotPending())
	if len(pending) == 0 {
		return 0
	}
	// Pass duration is real compute, so it reads the wall clock even when
	// a virtual Clock drives the cadence.
	m := s.Metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	var bound int
	if limit == 1 {
		// Paper-faithful serial path: strict global FIFO, no fair queue.
		bound = s.serialPass(pending)
	} else {
		bound = s.batchedPass(pending, limit)
	}
	if m != nil {
		m.PassSeconds.Observe(time.Since(start).Seconds())
		m.PassJobs.With("ranked").Add(uint64(len(pending)))
		m.PassJobs.With("bound").Add(uint64(bound))
	}
	return bound
}

// snapshotPending builds the pass's work queue: the pending index capped
// per tenant and filtered to this replica's partition. Each job copy
// carries the resource version it was read at (ObjectMeta.ResourceVersion)
// — the observation its bind is conditioned on.
func (s *Scheduler) snapshotPending() []api.QuantumJob {
	pending := s.State.PendingJobsCapped(s.MaxPendingPerTenant)
	if s.Partition == nil {
		return pending
	}
	owned := pending[:0]
	for _, j := range pending {
		if s.Partition.Owns(j.Name) {
			owned = append(owned, j)
		}
	}
	return owned
}

// bind places one job at the version it was observed at. A ConflictError
// means another actor moved the job since the snapshot — count it (the
// replica-contention signal) and pass it up for the caller to treat as
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

// serialPass is the paper's architecture: one job at a time through the
// full filter/score/pick pipeline — the first job in FIFO order that can
// be scheduled is bound, and the pass ends.
func (s *Scheduler) serialPass(pending []api.QuantumJob) int {
	for _, job := range pending {
		err := s.ScheduleOne(job)
		if err == nil {
			return 1
		}
		if !state.IsConflict(err) {
			// A conflict is another replica (or a cancel) winning the job
			// between snapshot and bind — expected, not a failure.
			s.State.RecordEvent("Job", job.Name, failureReason(err), err.Error())
		}
	}
	return 0
}

// batchedPass dispatches pending jobs against one node snapshot — limit
// at a time, pulling weighted-fair chunks until limit jobs are bound or
// the queue is exhausted, so unschedulable jobs at the head cannot starve
// feasible jobs behind them (the serial loop's guarantee). The fair order
// is generated lazily: in the common case only the first chunk of a deep
// backlog is ever interleaved. Ranking, the greedy walk and the pass-local
// headroom that keeps it from double-booking a node are Dispatch's;
// BindJobAt's own capacity check remains the authoritative guard against
// races with kubelets and other actors.
func (s *Scheduler) batchedPass(pending []api.QuantumJob, limit int) int {
	if s.Framework == nil {
		return 0
	}
	nodes, epoch := s.fleetNodes()
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
	next := s.fairOrderer(pending)
	bound := 0
	for bound < limit {
		chunk := next(limit)
		if len(chunk) == 0 {
			break
		}
		bound += d.Place(chunk, limit-bound)
	}
	return bound
}

// fleetNodes returns the cached fleet view (watch-fed, with a periodic
// re-List fallback) the pass ranks against, plus its membership epoch.
func (s *Scheduler) fleetNodes() ([]api.Node, uint64) {
	return s.fleet.snapshot(s.State.Nodes, s.FleetResync, clock.Now(s.Clock))
}

// Stop releases the fleet cache's store watcher. Run does this on exit;
// callers driving SchedulePass/ScheduleOne directly (tests, benchmarks,
// library embeddings) should Stop a scheduler they abandon so the store
// isn't left broadcasting to a channel nobody drains. The scheduler
// remains usable afterwards — the next pass resubscribes.
func (s *Scheduler) Stop() {
	s.fleet.stop()
}

// ScheduleOne runs the pipeline for a single job and binds it — at
// job.ResourceVersion when the caller observed one, unconditionally at 0.
func (s *Scheduler) ScheduleOne(job api.QuantumJob) error {
	if s.Framework == nil {
		return fmt.Errorf("sched: scheduler has no framework")
	}
	nodes, _ := s.fleetNodes()
	choice, err := s.Framework.Select(job, nodes)
	if err != nil {
		return err
	}
	return s.bind(&job, choice.Node, choice.Score)
}
