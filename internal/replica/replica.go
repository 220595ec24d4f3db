// Package replica implements an out-of-process scheduler replica: a
// stateless scheduling loop that talks to a QRIO deployment exclusively
// through the public /v1 gateway. Its fleet and queue views are watch-fed
// (GET /v1/watch, resume-token reconnects), ranking goes through the Meta
// Server's batch scoring surface, and every placement is a
// version-conditional POST /v1/bind — so N replicas race safely over one
// pending queue: exactly one wins each job, the rest observe a counted
// conflict and move on. Placement itself is sched.Dispatch, the same
// code the embedded scheduler runs; what is the replica's own is the
// cache it schedules from and the remote rank and bind steps it plugs
// in. Shard partitioning (sched.Partition, hash(job) mod N) keeps the
// replicas off each other's jobs in the steady state; Assume() takes
// over a lost peer's shard.
//
// This is the Qunicorn-style decoupling the paper's Kubernetes lineage
// implies: the scheduler is just another API client, so scheduling
// capacity scales by starting processes (cmd/qrio-sched) instead of
// growing one.
package replica

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/meta"
	"qrio/internal/sched"
)

// BatchScorer ranks one job against many backends in a single call. The
// gateway client (client.Client, over GET /v1/score/batch) satisfies it;
// tests substitute their own.
type BatchScorer interface {
	ScoreBatch(ctx context.Context, jobName string, backendNames []string) ([]meta.BatchResult, error)
}

// Stats are a replica's monotonic counters, readable while it runs.
type Stats struct {
	// Passes counts non-empty scheduling passes.
	Passes uint64
	// Binds counts jobs this replica placed.
	Binds uint64
	// Conflicts counts optimistic binds lost to another replica (or a
	// racing cancel) — the cross-replica contention signal.
	Conflicts uint64
	// Errors counts bind/score attempts that failed for any other reason.
	Errors uint64
}

// Replica is one out-of-process scheduler instance.
type Replica struct {
	// Client is the gateway connection (required).
	Client *client.Client
	// Scorer ranks candidate nodes (default: Client's batch scoring
	// route).
	Scorer BatchScorer
	// Partition is this replica's share of the pending queue (nil = own
	// everything, the single-replica default).
	Partition *sched.Partition
	// Interval is the pass cadence (default 50ms — remote binds are
	// network round trips, so the loop is coarser than the in-process
	// scheduler's 10ms).
	Interval time.Duration
	// Concurrency caps binds per pass (default 16).
	Concurrency int

	mu sync.Mutex
	// jobs caches each job stamped (ObjectMeta.ResourceVersion) with the
	// version it was last observed at — the version its bind is
	// conditioned on.
	jobs  map[string]api.QuantumJob
	nodes map[string]api.Node
	ready atomic.Bool // first SYNC snapshot consumed

	passes, binds, conflicts, errors atomic.Uint64
}

// Stats snapshots the replica's counters.
func (r *Replica) Stats() Stats {
	return Stats{
		Passes:    r.passes.Load(),
		Binds:     r.binds.Load(),
		Conflicts: r.conflicts.Load(),
		Errors:    r.errors.Load(),
	}
}

// Ready reports whether the watch feed has delivered its initial
// snapshot (the replica schedules nothing before that).
func (r *Replica) Ready() bool { return r.ready.Load() }

// Assume takes over a lost peer's shard: the next pass drains its jobs
// too. No-op without a partition.
func (r *Replica) Assume(index int) {
	if r.Partition != nil {
		r.Partition.Assume(index)
	}
}

// Run drives the replica until the context ends: one goroutine consumes
// the self-healing watch stream into the local cache, the loop fires a
// scheduling pass every Interval. Returns the watch setup error, or nil
// on context end.
func (r *Replica) Run(ctx context.Context) error {
	if r.Client == nil {
		return fmt.Errorf("replica: no gateway client")
	}
	r.mu.Lock()
	if r.jobs == nil {
		r.jobs = make(map[string]api.QuantumJob)
		r.nodes = make(map[string]api.Node)
	}
	r.mu.Unlock()
	events, err := r.Client.Watch(ctx, client.WatchOptions{Reconnect: true})
	if err != nil {
		return fmt.Errorf("replica: opening watch: %w", err)
	}
	interval := r.Interval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case ev, ok := <-events:
			if !ok {
				return nil // context ended; the healing watch closes only then
			}
			r.observe(ev)
		case <-ticker.C:
			r.Pass(ctx)
		}
	}
}

// observe folds one watch event into the cache. SYNC and live events are
// handled identically (level-triggered): latest version wins.
func (r *Replica) observe(ev client.WatchEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case ev.Job != nil:
		if ev.Type == client.EventDeleted {
			delete(r.jobs, ev.Job.Name)
		} else {
			job := *ev.Job
			job.ResourceVersion = ev.Version
			r.jobs[job.Name] = job
		}
	case ev.Node != nil:
		if ev.Type == client.EventDeleted {
			delete(r.nodes, ev.Node.Name)
		} else {
			r.nodes[ev.Node.Name] = *ev.Node
		}
	}
	r.ready.Store(true)
}

// markBound evicts a just-bound job from the cache so the next pass
// (which may fire before the Scheduled watch event lands) doesn't re-bind
// it against itself. Conditional on the bound version: if the cache
// already moved past what we bound at, the newer observation wins.
func (r *Replica) markBound(name string, version int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[name]; ok && j.ResourceVersion == version {
		delete(r.jobs, name)
	}
}

// snapshot extracts this replica's pending jobs (FIFO: CreatedAt, then
// name) and the Ready fleet from the cache.
func (r *Replica) snapshot() ([]api.QuantumJob, []api.Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var pending []api.QuantumJob
	for name, j := range r.jobs {
		if j.Status.Phase == api.JobPending && r.Partition.Owns(name) {
			pending = append(pending, j)
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if !pending[i].CreatedAt.Equal(pending[j].CreatedAt) {
			return pending[i].CreatedAt.Before(pending[j].CreatedAt)
		}
		return pending[i].Name < pending[j].Name
	})
	var nodes []api.Node
	for _, n := range r.nodes {
		if n.Status.Phase == api.NodeReady {
			nodes = append(nodes, n)
		}
	}
	return pending, nodes
}

// Pass runs one scheduling pass over the cached views and returns how
// many jobs it bound. Exported so harnesses (and tests) can drive the
// replica without the Run loop.
func (r *Replica) Pass(ctx context.Context) int {
	if !r.ready.Load() || ctx.Err() != nil {
		return 0
	}
	limit := r.Concurrency
	if limit <= 0 {
		limit = 16
	}
	pending, nodes := r.snapshot()
	if len(pending) == 0 || len(nodes) == 0 {
		return 0
	}
	r.passes.Add(1)
	scorer := r.Scorer
	if scorer == nil {
		scorer = r.Client
	}
	rank := func(job api.QuantumJob, nodes []api.Node) ([]sched.NodeScore, error) {
		names := make([]string, len(nodes))
		for i := range nodes {
			names[i] = nodes[i].Name
		}
		results, err := scorer.ScoreBatch(ctx, job.Name, names)
		if err != nil {
			r.errors.Add(1)
			return nil, err
		}
		ranked := make([]sched.NodeScore, 0, len(results))
		for _, res := range results {
			if res.Error == "" {
				ranked = append(ranked, sched.NodeScore{Node: res.Backend, Score: res.Score})
			}
		}
		sched.SortRanking(ranked)
		return ranked, nil
	}
	bind := func(job *api.QuantumJob, node string, score float64) sched.BindOutcome {
		_, err := r.Client.Bind(ctx, job.Name, node, score, job.ResourceVersion)
		switch {
		case err == nil:
			r.binds.Add(1)
			r.markBound(job.Name, job.ResourceVersion)
			return sched.Bound
		case client.IsNodeUnavailable(err):
			// The cached headroom was stale; the server's check is the
			// authoritative one. The job is still ours to place.
			return sched.NodeUnavailable
		case client.IsConflict(err):
			// Another replica (or a cancel) won the job; the watch feed
			// will deliver its new state.
			r.conflicts.Add(1)
		default:
			r.errors.Add(1)
		}
		return sched.JobMoved
	}
	return sched.NewDispatch(nodes, rank, bind).Place(pending, limit)
}
