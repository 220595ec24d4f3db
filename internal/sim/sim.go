// Package sim is QRIO's virtual-time fleet simulator: a seeded,
// single-threaded discrete-event engine that drives the REAL cluster
// state, scheduler and controller — the same code paths production
// traffic takes — against thousands of simulated nodes and millions of
// simulated job arrivals, in seconds of wall-clock time. There are no
// goroutine kubelets and no sleeps: time is an event heap, the virtual
// clock advances only when the next event pops, and the clock seam
// (internal/clock) injects that virtual clock into every timestamp the
// cluster takes. Same seed, same config → byte-identical results.
//
// The execution model replaces kubelets with events: when the scheduler
// binds a job (observed through a Jobs store hook), the engine claims it
// to Running exactly as a kubelet would — the same row of the lifecycle
// table (api.JobStatus.Apply) — and schedules a Finish event at now + the
// arrival's sampled service time. Finishing releases the node slot and
// lands the terminal phase; failed jobs flow through the real
// controller's retry loop, and the real retention sweep archives
// terminal jobs so the hot store stays bounded at million-job scale.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/archive"
	"qrio/internal/cluster/controller"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/obs"
	"qrio/internal/sched"
	"qrio/internal/simload"
)

// Epoch is the fixed instant virtual time starts from. A constant epoch
// (not time.Now) is what makes every timestamp in a run reproducible.
var Epoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// Clock is the virtual time source the engine injects through the clock
// seam. It satisfies clock.Clock; Now is safe for concurrent readers
// (the scheduler's ranking pool may read timestamps), while only the
// event loop advances it.
type Clock struct {
	mu  sync.RWMutex
	now time.Time
}

// Now implements clock.Clock.
func (c *Clock) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

func (c *Clock) set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

var _ clock.Clock = (*Clock)(nil)

// FleetClass describes one homogeneous slice of the simulated fleet.
type FleetClass struct {
	// Name prefixes the node names ("<name>-0017").
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Qubits sizes the device (a line coupling graph; placement filters
	// only read the label-projected qubit count and error figures).
	Qubits int `json:"qubits"`
	// Slots is the node's concurrent-container capacity.
	Slots int `json:"slots"`
	// TwoQErr is the uniform two-qubit error — the static score the
	// simulator's ranking prefers lower values of.
	TwoQErr float64 `json:"twoQErr"`
}

// Config is one simulation scenario.
type Config struct {
	Fleet   []FleetClass    `json:"fleet"`
	Profile simload.Profile `json:"profile"`

	// PassEvery is the scheduler cadence in virtual time (default 10ms —
	// the live scheduler's default Interval).
	PassEvery simload.Duration `json:"passEvery,omitempty"`
	// Concurrency is the scheduler's per-pass dispatch budget (default
	// 256; the simulator always runs the batched path).
	Concurrency int `json:"concurrency,omitempty"`
	// MaxPendingPerTenant bounds the per-pass queue snapshot (default
	// 4×Concurrency; 0 keeps the default, -1 means unlimited).
	MaxPendingPerTenant int `json:"maxPendingPerTenant,omitempty"`
	// TenantWeights configures weighted-fair dispatch.
	TenantWeights map[string]int `json:"tenantWeights,omitempty"`

	// SweepEvery is the controller cadence in virtual time (default 1s).
	SweepEvery simload.Duration `json:"sweepEvery,omitempty"`
	// MaxRetries is the controller's failed-job retry budget (default 2).
	MaxRetries int `json:"maxRetries,omitempty"`
	// MaxTerminalResident caps terminal jobs resident in the hot store;
	// the real retention sweep archives the overflow (default 20000).
	MaxTerminalResident int `json:"maxTerminalResident,omitempty"`
	// ArchiveResident, when > 0, bounds cold-tier entries resident in
	// memory (oldest evicted; see archive.Options.MaxResident) — needed to
	// keep million-job runs inside a flat memory budget. 0 keeps every
	// archived entry, the live server's default.
	ArchiveResident int `json:"archiveResident,omitempty"`

	// SampleEvery is the queue-depth sampling cadence (default 1s).
	SampleEvery simload.Duration `json:"sampleEvery,omitempty"`
	// DrainGrace bounds how long past the arrival horizon the engine
	// keeps simulating to drain in-flight work (default 60s virtual).
	DrainGrace simload.Duration `json:"drainGrace,omitempty"`

	// Obs, when set, threads the deployment-style metrics registry through
	// the simulated scheduler and state — the same families a live server
	// exposes on /v1/metrics, fed by a virtual-time run. Programmatic only
	// (not part of the JSON scenario format).
	Obs *obs.Registry `json:"-"`
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PassEvery <= 0 {
		out.PassEvery = simload.Duration(10 * time.Millisecond)
	}
	if out.Concurrency <= 0 {
		out.Concurrency = 256
	}
	switch {
	case out.MaxPendingPerTenant == 0:
		out.MaxPendingPerTenant = 4 * out.Concurrency
	case out.MaxPendingPerTenant < 0:
		out.MaxPendingPerTenant = 0
	}
	if out.SweepEvery <= 0 {
		out.SweepEvery = simload.Duration(time.Second)
	}
	if out.MaxRetries == 0 {
		out.MaxRetries = 2
	}
	if out.MaxTerminalResident <= 0 {
		out.MaxTerminalResident = 20000
	}
	if out.SampleEvery <= 0 {
		out.SampleEvery = simload.Duration(time.Second)
	}
	if out.DrainGrace <= 0 {
		out.DrainGrace = simload.Duration(60 * time.Second)
	}
	return out
}

// labelScorer ranks nodes by their average two-qubit error label —
// prefer the most faithful device, deterministic name tie-break.
type labelScorer struct{}

// Name implements sched.ScorePlugin.
func (labelScorer) Name() string { return "SimLabelScore" }

// Static implements sched.StaticPlugin: the score reads only labels.
func (labelScorer) Static() {}

// Score implements sched.ScorePlugin.
func (labelScorer) Score(_ api.QuantumJob, n api.Node) (float64, error) {
	v, ok := api.ParseFloatLabel(n.Labels, api.LabelAvg2QErr)
	if !ok {
		return 0, fmt.Errorf("sim: node %s has no %s label", n.Name, api.LabelAvg2QErr)
	}
	return v, nil
}

// event is one heap entry. seq breaks virtual-time ties in scheduling
// order, so simultaneous events run deterministically.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event   { return h[0] }

// jobMeta is what the engine remembers about an in-flight job.
type jobMeta struct {
	tenant  string
	service time.Duration
	submit  time.Time
	fail    bool
	bound   bool // first bind already measured (sticky across retries)
	running bool // currently claimed on a node
}

// Engine is one simulation run. Build with New, run with Run; an engine
// is single-use.
type Engine struct {
	cfg Config
	lib simload.Library
	src simload.Source

	clk *Clock
	st  *state.Cluster
	sch *sched.Scheduler
	ctl *controller.Controller

	events eventHeap
	seq    uint64

	// bindQ collects Scheduled transitions observed by the Jobs hook.
	// The hook runs under a store shard lock, synchronously inside the
	// event loop's own store calls; the mutex satisfies the hook contract
	// without real contention.
	bindMu sync.Mutex
	bindQ  []string

	jobs      map[string]*jobMeta
	remaining int // jobs not yet finally terminal
	horizon   time.Time

	metrics *Metrics
	stopped bool
}

// New assembles an engine: fleet registered, clock seam threaded, hooks
// installed, workload stream compiled. src may be nil to generate from
// cfg.Profile; pass a simload.TraceSource to replay a recorded trace.
func New(cfg Config, src simload.Source) (*Engine, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("sim: config has no fleet")
	}
	lib, err := simload.DefaultLibrary()
	if err != nil {
		return nil, err
	}
	if src == nil {
		stream, err := simload.NewStream(cfg.Profile, lib)
		if err != nil {
			return nil, err
		}
		src = stream
	}

	clk := &Clock{now: Epoch}
	st := state.New()
	st.Clock = clk
	if cfg.ArchiveResident > 0 {
		st.Archived = archive.New(archive.Options{MaxResident: cfg.ArchiveResident})
	}

	e := &Engine{
		cfg:     cfg,
		lib:     lib,
		src:     src,
		clk:     clk,
		st:      st,
		jobs:    make(map[string]*jobMeta),
		horizon: Epoch.Add(time.Duration(cfg.Profile.Duration)),
		metrics: newMetrics(),
	}
	// The bind hook must be registered before any traffic (store hook
	// contract): it may only note the name — no store calls under the
	// shard lock.
	st.Jobs.OnEvent(func(ev store.WatchEvent[api.QuantumJob]) {
		if ev.Type != store.Deleted && ev.Object.Status.Phase == api.JobScheduled {
			e.bindMu.Lock()
			e.bindQ = append(e.bindQ, ev.Object.Name)
			e.bindMu.Unlock()
		}
	})

	if err := e.buildFleet(); err != nil {
		return nil, err
	}

	// The simulator's framework chain is static by construction — label
	// filters plus a label scorer, every one a sched.StaticPlugin — so
	// the scheduler keeps each spec's ranking across passes, which is
	// what lets a million jobs through in seconds. NodeReady/ResourceFit
	// are load plugins; the dispatcher's headroom bookkeeping and
	// BindJobAt's authoritative capacity check cover what they filter.
	fw := sched.NewFramework(labelScorer{}, sched.QubitCount{}, sched.Characteristics{})
	e.sch = sched.New(st, fw)
	e.sch.Clock = clk
	e.sch.Concurrency = cfg.Concurrency
	e.sch.MaxPendingPerTenant = cfg.MaxPendingPerTenant
	e.sch.TenantWeights = cfg.TenantWeights
	e.sch.FleetResync = time.Minute // virtual; watch events carry the cache

	e.ctl = controller.New(st)
	e.ctl.Clock = clk
	e.ctl.MaxRetries = cfg.MaxRetries
	// Simulated nodes have no heartbeats; never declare them stale, and
	// never requeue for staleness.
	e.ctl.NodeTimeout = 1000 * time.Hour
	e.ctl.StuckTimeout = 1000 * time.Hour
	e.ctl.Retention = state.RetentionPolicy{MaxTerminalCount: cfg.MaxTerminalResident}

	if cfg.Obs != nil {
		st.Metrics = state.NewMetrics(cfg.Obs)
		e.sch.Metrics = sched.NewMetrics(cfg.Obs)
	}
	return e, nil
}

// buildFleet registers every configured node through the real AddNode
// path, one shared coupling graph per qubit count.
func (e *Engine) buildFleet() error {
	graphs := map[int]*graph.Graph{}
	for _, cl := range e.cfg.Fleet {
		if cl.Count <= 0 || cl.Qubits < 2 {
			return fmt.Errorf("sim: fleet class %q needs count ≥ 1 and qubits ≥ 2", cl.Name)
		}
		g, ok := graphs[cl.Qubits]
		if !ok {
			g = graph.Line(cl.Qubits)
			graphs[cl.Qubits] = g
		}
		slots := cl.Slots
		if slots <= 0 {
			slots = 1
		}
		for i := 0; i < cl.Count; i++ {
			name := fmt.Sprintf("%s-%04d", cl.Name, i)
			b, err := device.UniformBackend(name, g, cl.TwoQErr, cl.TwoQErr/10, 0.02, 100e3, 100e3)
			if err != nil {
				return fmt.Errorf("sim: building node %s: %w", name, err)
			}
			if _, err := e.st.AddNode(b); err != nil {
				return err
			}
			if slots > 1 {
				if _, _, err := e.st.Nodes.Update(name, func(n api.Node) (api.Node, error) {
					n.Spec.MaxContainers = slots
					return n, nil
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (e *Engine) schedule(at time.Time, fn func()) {
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, fn: fn})
}

// Run executes the simulation to completion and returns its report.
func (e *Engine) Run() (*Report, error) {
	defer e.sch.Stop()
	heap.Init(&e.events)

	// Prime the recurring machinery and the first arrival.
	e.scheduleNextArrival()
	e.schedule(Epoch.Add(time.Duration(e.cfg.PassEvery)), e.passTick)
	e.schedule(Epoch.Add(time.Duration(e.cfg.SweepEvery)), e.sweepTick)
	e.schedule(Epoch, e.sampleTick)

	deadline := e.horizon.Add(time.Duration(e.cfg.DrainGrace))
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(event)
		if ev.at.After(deadline) {
			e.stopped = true
			break
		}
		e.clk.set(ev.at)
		ev.fn()
		e.processBinds()
	}
	e.clk.set(e.latestOrHorizon())
	return e.report(), nil
}

func (e *Engine) latestOrHorizon() time.Time {
	if now := e.clk.Now(); now.After(e.horizon) {
		return now
	}
	return e.horizon
}

// done reports whether all offered work has finally terminated.
func (e *Engine) done() bool { return e.remaining == 0 }

// scheduleNextArrival pulls one arrival from the stream and turns it
// into a submit event; the submit event pulls the next, keeping exactly
// one pending arrival event regardless of trace length.
func (e *Engine) scheduleNextArrival() {
	a, ok := e.src.Next()
	if !ok {
		return
	}
	at := Epoch.Add(time.Duration(a.T))
	e.schedule(at, func() {
		e.submit(a)
		e.scheduleNextArrival()
	})
}

func (e *Engine) submit(a simload.Arrival) {
	spec, err := e.lib.Spec(a)
	if err != nil {
		e.metrics.rejected++
		return
	}
	name := fmt.Sprintf("sim-%07d", e.metrics.submitted)
	job := api.QuantumJob{ObjectMeta: api.ObjectMeta{Name: name}, Spec: spec}
	if err := e.st.SubmitJob(job); err != nil {
		e.metrics.rejected++
		return
	}
	e.jobs[name] = &jobMeta{
		tenant:  spec.Tenant,
		service: time.Duration(a.Service),
		submit:  e.clk.Now(),
		fail:    a.Fail,
	}
	e.remaining++
	e.metrics.submitted++
}

// passTick runs one real scheduling pass and reschedules itself while
// arrivals or in-flight work remain.
func (e *Engine) passTick() {
	bound := e.sch.SchedulePass()
	e.metrics.binds += bound
	now := e.clk.Now()
	if now.Before(e.horizon) || !e.done() {
		e.schedule(now.Add(time.Duration(e.cfg.PassEvery)), e.passTick)
	}
}

// sweepTick runs one real controller reconcile pass (retry, retention,
// event GC) on the virtual cadence.
func (e *Engine) sweepTick() {
	e.ctl.ReconcileOnce()
	now := e.clk.Now()
	if now.Before(e.horizon) || !e.done() {
		e.schedule(now.Add(time.Duration(e.cfg.SweepEvery)), e.sweepTick)
	}
}

// sampleTick records the queue-depth timeline.
func (e *Engine) sampleTick() {
	now := e.clk.Now()
	e.metrics.sample(now.Sub(Epoch), e.st.PendingCount(), e.running())
	if now.Before(e.horizon) || !e.done() {
		e.schedule(now.Add(time.Duration(e.cfg.SampleEvery)), e.sampleTick)
	}
}

func (e *Engine) running() int {
	n := 0
	for _, m := range e.jobs {
		if m.running {
			n++
		}
	}
	return n
}

// processBinds claims every newly Scheduled job to Running — the
// kubelet's transition, minus the kubelet — and schedules its finish.
func (e *Engine) processBinds() {
	e.bindMu.Lock()
	batch := e.bindQ
	e.bindQ = nil
	e.bindMu.Unlock()
	now := e.clk.Now()
	for _, name := range batch {
		meta := e.jobs[name]
		if meta == nil {
			continue
		}
		if _, err := e.st.TransitionJob(name, api.JobEventClaim, state.Transition{}); err != nil {
			continue
		}
		meta.running = true
		if !meta.bound {
			meta.bound = true
			e.metrics.bind(meta.tenant, now.Sub(meta.submit))
		}
		jobName := name
		e.schedule(now.Add(meta.service), func() { e.finish(jobName) })
	}
}

// finish lands one running job's terminal phase, releasing its node —
// the kubelet's epilogue. A job the user cancelled meanwhile is aborted
// (modelled at the end of its service time, not at the request).
func (e *Engine) finish(name string) {
	meta := e.jobs[name]
	if meta == nil {
		return
	}
	// No cluster events: a million-job run would only feed the event GC.
	ev, t := api.JobEventSucceed, state.Transition{Message: "sim: executed", NoEvent: true}
	if meta.fail {
		ev, t.Message = api.JobEventFail, "sim: injected failure"
	}
	e.st.Jobs.Peek(name, func(j api.QuantumJob, _ int64) {
		if j.Status.CancelRequested {
			ev, t.Message = api.JobEventAbort, "sim: cancelled by user"
		}
	})
	done, err := e.st.TransitionJob(name, ev, t)
	if err != nil {
		return // another actor finalised it; leave to them
	}
	meta.running = false
	// A failed job stays tracked while the real controller's retry rule
	// will requeue it; anything else is finally terminal.
	if ev != api.JobEventFail || done.Status.Attempts > e.cfg.MaxRetries {
		e.metrics.finish(meta.tenant, ev == api.JobEventSucceed)
		e.remaining--
		delete(e.jobs, name)
	}
}

// report assembles the run's metrics.
func (e *Engine) report() *Report {
	r := e.metrics.report(e.clk.Now().Sub(Epoch), time.Duration(e.cfg.Profile.Duration))
	r.Drained = e.done() && !e.stopped
	r.Leftover = e.remaining
	r.TerminalResident = e.st.TerminalCount()
	r.Archived = e.st.Archived.Len() + e.st.Archived.Dropped()
	tenants := make([]string, 0, len(r.Tenants))
	for t := range r.Tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	r.TenantOrder = tenants
	return r
}
