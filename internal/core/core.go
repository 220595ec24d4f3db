// Package core assembles the complete QRIO system — the paper's primary
// contribution (§3): cluster state, Meta Server, Master Server, image
// registry, scheduler (filter + meta-score ranking), one kubelet per node
// and the lifecycle controller — into a single deployable orchestrator.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/controller"
	"qrio/internal/cluster/durability"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
	"qrio/internal/faults"
	"qrio/internal/master"
	"qrio/internal/meta"
	"qrio/internal/obs"
	"qrio/internal/registry"
	"qrio/internal/resilience"
	"qrio/internal/sched"
)

// Config describes a QRIO deployment.
type Config struct {
	// Backends are the vendor devices forming the cluster (§3.1).
	Backends []*device.Backend
	// Meta tunes the Meta Server's scoring engines.
	Meta meta.Options
	// Concurrency is the scheduler's per-pass bind budget (default 1, the
	// paper's one job at a time; larger values are the §5 extension: the
	// pass ranks that many pending jobs in parallel and binds them greedily
	// to free container slots).
	Concurrency int
	// NodeConcurrency caps how many job containers a single node executes
	// at once (default 1 = the paper's serial node). Values > 1 are
	// additionally bounded per node by its classical CPU capacity: a node
	// never gets more slots than max(1, CPUMillis/1000).
	NodeConcurrency int
	// KubeletSeed seeds node execution RNGs for reproducible runs.
	KubeletSeed int64
	// TenantWeights skews the scheduler's weighted fair queue: while
	// several tenants are backlogged, binds are shared proportionally to
	// their weights (missing tenants weigh 1), at every Concurrency.
	TenantWeights map[string]int
	// TenantQuotas bounds each tenant's admitted-but-unfinished work; the
	// intake (Submit) enforces it on every submission. The zero policy
	// admits everything.
	TenantQuotas api.TenantQuotaPolicy
	// TenantRateLimits bounds each tenant's submission arrival rate; the
	// intake (Submit) enforces it (live TenantConfig overrides win). The
	// zero policy rate-limits nobody.
	TenantRateLimits api.TenantRateLimitPolicy
	// Faults is the fault-injection registry threaded through the
	// deployment's dependency edges (meta scoring, kubelet runtimes, WAL
	// appends, archive spill). Nil resolves to faults.Default, which is
	// inert unless armed (the daemon's -faults flag arms it).
	Faults *faults.Registry
	// Clock is the deployment's time source (nil = wall clock). Virtual
	// clocks drive the scheduler, controller, state timestamps, scoring
	// circuit breaker and rate-limit refills — the chaos harness runs
	// outage cool-downs in virtual time.
	Clock clock.Clock
	// Breaker overrides the Meta-scoring circuit breaker configuration
	// (nil = defaults: 5 consecutive failures, 5s cool-down).
	Breaker *resilience.Breaker
	// Retention bounds how long terminal jobs stay resident in the hot
	// store: the controller's sweep moves older/overflowing ones (with
	// their event trails) into the archive tier, keeping scheduler and
	// watch-recovery cost proportional to live work. The zero policy
	// retains everything forever — the pre-archive behaviour. Archived
	// history stays queryable (GET /v1/jobs?archived=true and the by-name
	// fallthrough).
	Retention state.RetentionPolicy
	// Metrics is the deployment's observability registry. Nil disables
	// instrumentation entirely — hot paths pay one nil check and the
	// gateway's GET /v1/metrics answers 404. With a registry set, every
	// layer registers its families on it at wiring time and cmd/qrio, the
	// simulator and tests share one scrapeable view (QRIO.Metrics).
	Metrics *obs.Registry
	// Durability configures crash-recoverable cluster state: a data
	// directory with the write-ahead log, periodic compacted
	// snapshots and the archive spill file. The zero value keeps the
	// cluster fully in-memory — the pre-durability behaviour, byte for
	// byte. With durability on, New replays the directory before anything
	// else runs: jobs, results, events, tenant overrides and the archive
	// come back; Running jobs are re-queued (their containers died with
	// the old process); replayed nodes are refreshed against Backends.
	Durability durability.Options
}

// containerSlots resolves a backend's container capacity under the
// deployment's NodeConcurrency cap.
func containerSlots(nodeConcurrency int, b *device.Backend) int {
	if nodeConcurrency <= 1 {
		return 1
	}
	capacity := int(b.CPUMillis / 1000)
	if capacity < 1 {
		capacity = 1
	}
	if nodeConcurrency < capacity {
		return nodeConcurrency
	}
	return capacity
}

// applySlots writes a backend's resolved container capacity back onto a
// node RefreshNode reset; a new registration carries it in its one record
// (AddNodeSlots).
func applySlots(st *state.Cluster, nodeConcurrency int, b *device.Backend) {
	if slots := containerSlots(nodeConcurrency, b); slots > 1 {
		st.Nodes.Update(b.Name, func(n api.Node) (api.Node, error) {
			n.Spec.MaxContainers = slots
			return n, nil
		})
	}
}

// QRIO is a running orchestrator instance.
type QRIO struct {
	State      *state.Cluster
	Meta       *meta.Server
	Master     *master.Server
	Registry   *registry.Registry
	Scheduler  *sched.Scheduler
	Controller *controller.Controller
	Kubelets   []*kubelet.Kubelet
	// Heartbeats is the one heartbeat loop: Start runs it, and it beats
	// the node of every kubelet whose Run is live.
	Heartbeats *kubelet.Heartbeats
	// Quotas is the deployment's tenant quota policy (Config.TenantQuotas);
	// GET /v1/tenants lists its tenants (live TenantConfig overrides win —
	// resolve through State.QuotaFor).
	Quotas api.TenantQuotaPolicy
	// Durability is the durable-state manager, nil when the deployment
	// runs in-memory.
	Durability *durability.Manager
	// Faults is the registry the deployment's fault points resolve to
	// (Config.Faults; nil means faults.Default).
	Faults *faults.Registry
	// ScorerBreaker is the circuit breaker guarding Meta-Server scoring;
	// its state is observable (degraded-mode scheduling, admin surfaces).
	ScorerBreaker *resilience.Breaker
	// Metrics is the deployment's observability registry (Config.Metrics);
	// nil when the deployment runs uninstrumented. The gateway serves it
	// as GET /v1/metrics.
	Metrics *obs.Registry

	mu              sync.Mutex
	ctx             context.Context
	cancel          context.CancelFunc
	wg              sync.WaitGroup
	started         bool
	draining        atomic.Bool
	nextKubeletSeed int64
	kubeletMetrics  *kubelet.Metrics // nil without a registry; shared by every agent
	nodeConcurrency int

	// The intake's state (intake.go): the per-tenant token buckets and the
	// names of the submissions between their claim and their create.
	limiter rateLimiter
	claimMu sync.Mutex
	claimed map[string]bool
}

// New wires a QRIO deployment from the config. Backends are registered
// both as cluster nodes and with the Meta Server (§3.1: a copy of every
// vendor backend file is kept in the Meta Server).
func New(cfg Config) (*QRIO, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("core: a QRIO cluster needs at least one backend")
	}
	st := state.New()
	st.Quotas = cfg.TenantQuotas
	st.RateLimits = cfg.TenantRateLimits
	if cfg.Clock != nil {
		st.Clock = cfg.Clock
	}
	var dur *durability.Manager
	if cfg.Durability.Enabled() {
		if cfg.Durability.Faults == nil {
			cfg.Durability.Faults = cfg.Faults
		}
		var err error
		if dur, err = durability.Open(st, cfg.Durability); err != nil {
			return nil, err
		}
	}
	metaSrv := meta.NewServer(cfg.Meta)
	metaSrv.Faults = cfg.Faults
	reg := registry.New()
	for _, b := range cfg.Backends {
		if _, err := st.AddNodeSlots(b, containerSlots(cfg.NodeConcurrency, b)); err != nil {
			var exists store.ErrExists
			if dur == nil || !errors.As(err, &exists) {
				return nil, fmt.Errorf("core: adding node %s: %w", b.Name, err)
			}
			// The node came back from durable state; refresh it in place so
			// identity and reservations survive while the spec follows the
			// current flags.
			if _, err := st.RefreshNode(b); err != nil {
				return nil, fmt.Errorf("core: refreshing node %s: %w", b.Name, err)
			}
			applySlots(st, cfg.NodeConcurrency, b)
		}
		if err := metaSrv.RegisterBackend(b); err != nil {
			return nil, fmt.Errorf("core: registering backend %s: %w", b.Name, err)
		}
	}
	// The scoring path is circuit-broken: the Meta Server (which fires the
	// meta.score fault point) feeds ResilientMetaScore, which degrades to
	// stale-cache / heuristic scoring when the Meta Server is down and
	// records one SchedulingDegraded event per outage.
	breaker := cfg.Breaker
	if breaker == nil {
		breaker = &resilience.Breaker{Clock: cfg.Clock}
	}
	scorer := &sched.ResilientMetaScore{
		Scorer:  metaSrv,
		Breaker: breaker,
		Clock:   cfg.Clock,
		OnDegraded: func(detail string) {
			st.RecordEvent("Scheduler", "scheduler", "SchedulingDegraded", detail)
		},
	}
	fw := sched.NewFramework(scorer, sched.DefaultFilters()...)
	scheduler := sched.New(st, fw)
	if cfg.Concurrency > 0 {
		scheduler.Concurrency = cfg.Concurrency
	}
	scheduler.TenantWeights = cfg.TenantWeights
	scheduler.TenantQuotas = cfg.TenantQuotas
	ctl := controller.New(st)
	ctl.Retention = cfg.Retention
	if cfg.Clock != nil {
		ctl.Clock = cfg.Clock
	}
	q := &QRIO{
		State:         st,
		Meta:          metaSrv,
		Master:        master.NewServer(st, reg),
		Registry:      reg,
		Scheduler:     scheduler,
		Controller:    ctl,
		Quotas:        cfg.TenantQuotas,
		Durability:    dur,
		Faults:        cfg.Faults,
		ScorerBreaker: breaker,
		Heartbeats:    kubelet.NewHeartbeats(st),
		limiter:       rateLimiter{clock: st.Clock},
		claimed:       make(map[string]bool),
	}
	for i, b := range cfg.Backends {
		k := kubelet.New(b.Name, st, reg, cfg.KubeletSeed+int64(i))
		k.Faults = cfg.Faults
		k.Beats = q.Heartbeats
		if cfg.Clock != nil {
			k.Clock = cfg.Clock
		}
		q.Kubelets = append(q.Kubelets, k)
	}
	q.nextKubeletSeed = cfg.KubeletSeed + int64(len(cfg.Backends))
	q.nodeConcurrency = cfg.NodeConcurrency
	if cfg.Metrics != nil {
		q.Metrics = cfg.Metrics
		registerMetrics(q, cfg.Metrics)
	}
	if dur != nil {
		q.rederive()
	}
	return q, nil
}

// rederive re-runs Submit's two in-memory steps — the Meta upload and the
// containerisation — from the stored spec of every replayed job that can
// still be scheduled or run. Scoring metadata and images are not durable
// state; without this a restarted daemon ranks its backlog with the
// degraded heuristic and fails each job at image pull. A job whose spec no
// longer rebuilds keeps its place in the queue and gets an event saying why
// it is about to fail.
func (q *QRIO) rederive() {
	jobs := q.State.Jobs.ListFunc(func(j api.QuantumJob) bool {
		return !j.Status.Phase.Terminal() || q.Controller.WillRetry(j)
	})
	for _, j := range jobs {
		err := q.uploadMeta(meta.JobMeta{
			JobName:        j.Name,
			Strategy:       j.Spec.Strategy,
			TargetFidelity: j.Spec.TargetFidelity,
			CircuitQASM:    j.Spec.QASM,
			TopologyQASM:   j.Spec.TopologyQASM,
		})
		if err == nil {
			err = q.Master.Recontainerize(j)
		}
		if err != nil {
			q.State.RecordEvent("Job", j.Name, "RestoreFailed", err.Error())
		}
	}
}

// AddBackend registers a new vendor device at runtime (the vendor
// dashboard path): the backend becomes a labelled node, is copied to the
// Meta Server, and gets a kubelet — started immediately when the
// orchestrator is already running. A name that was registered before and
// removed keeps the kubelet it had: agents outlive their node object, and a
// second one would double the node's container slots.
func (q *QRIO) AddBackend(b *device.Backend) error {
	if _, err := q.State.AddNodeSlots(b, containerSlots(q.nodeConcurrency, b)); err != nil {
		return err
	}
	if err := q.Meta.RegisterBackend(b); err != nil {
		// No node without a Meta backend: the scheduler could bind to it
		// but never score it.
		q.State.Nodes.Delete(b.Name)
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, k := range q.Kubelets {
		if k.NodeName == b.Name {
			return nil
		}
	}
	k := kubelet.New(b.Name, q.State, q.Registry, q.nextKubeletSeed)
	k.Faults = q.Faults
	k.Metrics = q.kubeletMetrics
	k.Beats = q.Heartbeats
	if q.State.Clock != nil {
		k.Clock = q.State.Clock
	}
	q.nextKubeletSeed++
	q.Kubelets = append(q.Kubelets, k)
	if q.started {
		q.wg.Add(1)
		ctx := q.ctx
		go func() {
			defer q.wg.Done()
			k.Run(ctx)
		}()
	}
	return nil
}

// Start launches the control loops (scheduler, controller, heartbeat
// loop, kubelets).
func (q *QRIO) Start() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.started {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	q.ctx = ctx
	q.cancel = cancel
	q.started = true
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		q.Scheduler.Run(ctx)
	}()
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		q.Controller.Run(ctx)
	}()
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		q.Heartbeats.Run(ctx)
	}()
	for _, k := range q.Kubelets {
		k := k
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			k.Run(ctx)
		}()
	}
	if q.Durability != nil {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			q.Durability.Run(ctx)
		}()
	}
}

// Stop halts all control loops and waits for them to exit.
func (q *QRIO) Stop() {
	q.mu.Lock()
	if !q.started {
		q.mu.Unlock()
		return
	}
	q.cancel()
	q.started = false
	q.mu.Unlock()
	q.wg.Wait()
}

// BeginDrain flips the orchestrator into draining mode: Submit refuses
// new submissions with DrainingError (503 draining over HTTP) while reads,
// watches and in-flight work continue. Idempotent; there is no undrain —
// a draining process is on its way out.
func (q *QRIO) BeginDrain() { q.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (q *QRIO) Draining() bool { return q.draining.Load() }

// Drain performs the graceful half of a SIGTERM shutdown: it begins
// draining (no new intake), stops the control loops — which blocks until
// in-flight containers finish, because each kubelet's Run waits for its
// jobs before returning — then requeues any job the scheduler bound but
// no kubelet claimed, so a drained restart re-binds it instead of
// leaving it parked in Scheduled forever. With durability on it ends
// with a compacted snapshot, so the next boot replays nothing. Returns
// how many unclaimed jobs were requeued. Call Close afterwards to
// release durable-state resources.
func (q *QRIO) Drain() (requeued int, err error) {
	q.BeginDrain()
	q.Stop()
	requeued = q.State.RequeueAll(api.JobScheduled,
		"requeued: daemon drained before a kubelet claimed the job")
	if q.Durability != nil {
		if _, serr := q.Durability.Snapshot(); serr != nil {
			err = fmt.Errorf("core: final drain snapshot: %w", serr)
		}
	}
	return requeued, err
}

// Close stops the control loops and releases durable-state resources
// (WAL writers, archive spill). The orchestrator cannot be restarted
// after Close; use Stop for a pausable halt.
func (q *QRIO) Close() error {
	q.Stop()
	if q.Durability != nil {
		return q.Durability.Close()
	}
	return nil
}

// Cancel requests cancellation of a job through the full lifecycle:
// pending jobs leave the queue, scheduled jobs give their slot back, and
// running jobs have their container aborted by the owning kubelet. It
// returns the job as of the request; use WaitForJob to observe the final
// JobCancelled phase of a running job.
func (q *QRIO) Cancel(jobName string) (api.QuantumJob, error) {
	return q.State.CancelJob(jobName)
}

// WaitForJob blocks until the job reaches a terminal phase or the timeout
// elapses, returning the final job object.
func (q *QRIO) WaitForJob(jobName string, timeout time.Duration) (api.QuantumJob, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	j, err := q.WaitForJobCtx(ctx, jobName)
	if errors.Is(err, context.DeadlineExceeded) {
		return j, fmt.Errorf("core: job %s still %s after %v", jobName, j.Status.Phase, timeout)
	}
	return j, err
}

// WaitForJobCtx blocks until the job reaches a terminal phase or the
// context ends. It follows the job on the cluster's broadcast hub instead
// of polling; a stream closed because the waiter fell behind is replaced
// by a fresh one and the job re-read, so no transition goes unseen. On
// context expiry the job's last observed state is returned alongside the
// context error.
func (q *QRIO) WaitForJobCtx(ctx context.Context, jobName string) (api.QuantumJob, error) {
	var last api.QuantumJob
	for {
		sub, _, cancel, _ := q.State.Subscribe(256, state.ResumeToken{}) // from now: cannot fail
		j, done, err := q.followJob(ctx, sub, jobName, last)
		cancel()
		if done {
			return j, err
		}
		last = j
	}
}

// followJob reads the job once the stream is open — so a transition
// between the two cannot be missed — then follows it on sub. done is
// false only when sub closed first; the caller re-subscribes.
func (q *QRIO) followJob(ctx context.Context, sub <-chan state.Notification, jobName string, last api.QuantumJob) (_ api.QuantumJob, done bool, _ error) {
	j, _, err := q.State.Jobs.Get(jobName)
	if err != nil {
		// An archived job already finished; report its terminal state.
		if entry, ok := q.State.Archived.Get(jobName); ok {
			return entry.Job, true, nil
		}
		return last, true, err
	}
	last = j
	for !last.Status.Phase.Terminal() {
		select {
		case <-ctx.Done():
			if j, _, err := q.State.Jobs.Get(jobName); err == nil {
				last = j
			}
			return last, true, ctx.Err()
		case n, ok := <-sub:
			if !ok {
				return last, false, nil
			}
			if n.Kind != state.KindJob || n.Job.Name != jobName {
				continue
			}
			if n.Type == store.Deleted {
				// The retention sweep deletes terminal jobs from the hot
				// store when it archives them; that is a normal end of the
				// lifecycle, not the job vanishing.
				if n.Job.Status.Phase.Terminal() {
					return *n.Job, true, nil
				}
				return *n.Job, true, store.ErrNotFound{Name: jobName}
			}
			last = *n.Job
		}
	}
	return last, true, nil
}

// SubmitAndWait is the end-to-end convenience: submit, wait, fetch logs.
func (q *QRIO) SubmitAndWait(req master.SubmitRequest, timeout time.Duration) (api.QuantumJob, api.Result, error) {
	if _, err := q.Submit(req); err != nil {
		return api.QuantumJob{}, api.Result{}, err
	}
	job, err := q.WaitForJob(req.JobName, timeout)
	if err != nil {
		return job, api.Result{}, err
	}
	res, ok := q.State.ResultFor(req.JobName)
	if !ok {
		return job, api.Result{}, fmt.Errorf("core: job %s finished without logs", req.JobName)
	}
	return job, res, nil
}
