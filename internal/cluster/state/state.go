// Package state bundles the typed object stores that make up a QRIO
// cluster's control-plane state (the API server's backing storage) and the
// constructors that turn vendor backends into labelled cluster nodes.
//
// On top of the raw stores the Cluster maintains incremental indexes, fed
// synchronously by store mutation hooks so they can never drift from the
// stored objects — among them:
//
//   - a FIFO-ordered pending-job index, so the scheduler's hot path costs
//     O(pending work) instead of O(every job ever submitted),
//   - an About-keyed event index with a per-object ring-buffer cap, so
//     EventsAbout no longer scans (and copies) the whole event log, and
//   - a scheduled-by-node index that also wakes each node's kubelet for
//     exactly the job events that concern it.
//
// Node liveness (liveness.go) is deliberately NOT stored: heartbeats land
// in a volatile table and only Ready↔NotReady transitions are journaled.
package state

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/archive"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
)

// EventIndexCap bounds how many events the per-object index retains per
// About key (a ring buffer: the oldest entries fall out first). EventsAbout
// therefore returns at most this many events for one object — far above
// anything a job lifecycle produces, and the controller's global event GC
// trims the store itself long before a healthy object gets near it.
const EventIndexCap = 512

// Cluster is the complete control-plane state.
type Cluster struct {
	Nodes   *store.Store[api.Node]
	Jobs    *store.Store[api.QuantumJob]
	Results *store.Store[api.Result]
	Events  *store.Store[api.Event]

	// TenantConfigs holds operator-set per-tenant overrides (fair-share
	// weight + quota) as regular store objects, so updates hot-reload
	// without a restart and ride the same write-ahead log as every other
	// object. Write through SetTenantConfig; read through QuotaFor /
	// TenantWeight (a hook-fed cache, no store traffic on the hot paths).
	TenantConfigs *store.Store[api.TenantConfig]

	// Archived is the cold tier: terminal jobs (plus their event trails)
	// the retention sweep moved out of the hot stores. History queries
	// fall through to it; job names stay unique across both tiers.
	Archived *archive.Archive

	// Quotas is the deployment's tenant quota policy. SubmitJob enforces
	// it for every submission surface (gateway, master, cluster API,
	// visualizer) — the state layer is the one choke point jobs cannot
	// route around. Set once at wiring time, before any traffic.
	Quotas api.TenantQuotaPolicy

	// RateLimits is the deployment's static tenant rate-limit policy
	// (submission arrival bounds). The gateway enforces it; the state
	// layer only resolves it (RateLimitFor) so live TenantConfig
	// overrides hot-reload exactly like quotas. Set once at wiring time.
	RateLimits api.TenantRateLimitPolicy

	// Clock is the time source behind every timestamp the state layer
	// mints (CreatedAt, FinishedAt, heartbeats, event times). Nil means
	// the wall clock; the fleet simulator injects its virtual clock here.
	// Set once at wiring time, before any traffic.
	Clock clock.Clock

	// Metrics is the optional instrumentation handle (nil = no metrics,
	// the zero-overhead default). Set once at wiring time, before any
	// traffic.
	Metrics *Metrics

	syncLog func() // see SetSync; nil on an in-memory cluster

	uid atomic.Int64
	// backendCache avoids re-decoding node backend JSON on every access;
	// a Nodes hook drops an entry when its node goes or changes device.
	mu           sync.Mutex
	backendCache map[string]cachedBackend

	pending    pendingIndex
	usage      usageIndex
	eventIdx   eventIndex
	terminal   terminalIndex
	scheduled  scheduledIndex
	liveness   nodeLiveness
	tenantConf tenantConfIndex
	hub        hubRegistry

	// submitGates serialises SubmitJob per tenant (hash-striped) so the
	// quota check and the store create are atomic with respect to
	// same-tenant racers — the hook-fed usage index updates under the
	// store write, inside the window the gate covers, making admission
	// accounting exact. Striping bounds memory; cross-tenant collisions
	// only cost a moment of false serialisation.
	submitGates [64]sync.Mutex
}

// New returns an empty cluster state with its indexes wired.
func New() *Cluster {
	c := &Cluster{
		Nodes:         store.New(api.Node.DeepCopy, func(n api.Node) string { return n.Name }),
		Jobs:          store.New(api.QuantumJob.DeepCopy, func(j api.QuantumJob) string { return j.Name }),
		Results:       store.New(api.Result.DeepCopy, func(r api.Result) string { return r.Name }),
		Events:        store.New(api.Event.DeepCopy, func(e api.Event) string { return e.Name }),
		TenantConfigs: store.New(api.TenantConfig.DeepCopy, func(t api.TenantConfig) string { return t.Name }),
		Archived:      archive.New(archive.Options{}),
		backendCache:  make(map[string]cachedBackend),
	}
	// Only job and node watches resume from a token (hub.go); a journal
	// ring on the other stores would keep every result and event a second
	// time for a replay nobody can ask for.
	c.Results.SetJournalCap(0)
	c.Events.SetJournalCap(0)
	c.TenantConfigs.SetJournalCap(0)
	c.pending.queues = make(map[string][]pendingEntry)
	c.pending.member = make(map[string]pendingRef)
	c.usage.jobs = make(map[string]usageEntry)
	c.usage.tenants = make(map[string]*TenantUsage)
	c.eventIdx.byAbout = make(map[string][]string)
	c.eventIdx.cap = EventIndexCap
	c.terminal.member = make(map[string]terminalEntry)
	c.scheduled.byNode = make(map[string]map[string]api.QuantumJob)
	c.scheduled.node = make(map[string]string)
	c.scheduled.wake = make(map[string]chan struct{})
	c.liveness.last = make(map[string]time.Time)
	c.tenantConf.m = make(map[string]api.TenantConfig)
	c.hub.streams = make(map[int]chan Notification)
	// The hooks run under the mutated shard's lock: they may only touch the
	// index mutexes (never a store), keeping the lock order store→index.
	c.Jobs.OnEvent(c.pending.onJobEvent)
	c.Jobs.OnEvent(c.usage.onJobEvent)
	c.Jobs.OnEvent(c.terminal.onJobEvent)
	c.Jobs.OnEvent(c.scheduled.onJobEvent)
	c.Nodes.OnEvent(c.onNodeEvent)
	c.Nodes.OnEvent(c.dropStaleBackend)
	c.Events.OnEvent(c.eventIdx.onEventEvent)
	c.TenantConfigs.OnEvent(c.tenantConf.onTenantEvent)
	return c
}

// SetSync installs the durable log's barrier (the durability layer, at
// boot, before any traffic).
func (c *Cluster) SetSync(fn func()) { c.syncLog = fn }

// Sync blocks until every store write made so far — by anyone — is
// durable: the one wait that ends a no-wait write sequence (SubmitJob,
// BindJobAt, TransitionJob) and the barrier the HTTP surface holds every
// response behind. One atomic compare when nothing is pending; a no-op on
// an in-memory cluster.
func (c *Cluster) Sync() {
	if c.syncLog != nil {
		c.syncLog()
	}
}

// NextUID mints a unique object UID.
func (c *Cluster) NextUID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, c.uid.Add(1))
}

// now reads the cluster's clock (wall clock when none is injected).
func (c *Cluster) now() time.Time { return clock.Now(c.Clock) }

// --- pending-job index --------------------------------------------------

// TenantOf returns the job's quota/fairness principal, normalising the
// pre-tenancy empty field to the default tenant.
func TenantOf(j *api.QuantumJob) string {
	if j.Spec.Tenant == "" {
		return api.DefaultTenant
	}
	return j.Spec.Tenant
}

// pendingEntry is one queued job, ordered by (CreatedAt, Name) — the FIFO
// order within a tenant's sub-queue.
type pendingEntry struct {
	name    string
	created time.Time
}

// pendingRef locates a queued job for O(log n) removal.
type pendingRef struct {
	tenant  string
	created time.Time
}

// pendingIndex is the incrementally maintained pending-job queue, kept as
// per-tenant FIFO sub-queues (the weighted-fair scheduler drains tenants
// against each other; within one tenant order is strictly FIFO). Every
// job mutation flows through onJobEvent (a store hook), covering not just
// SubmitJob/BindJob/CancelJob but also the controller's requeue/retry
// transitions and any future writer — the index cannot go stale.
type pendingIndex struct {
	mu     sync.Mutex
	queues map[string][]pendingEntry // tenant → entries sorted by (created, name)
	member map[string]pendingRef     // job name → its sub-queue position key
	count  int
}

func (p *pendingIndex) onJobEvent(ev store.WatchEvent[api.QuantumJob]) {
	j := ev.Object
	if ev.Type != store.Deleted && j.Status.Phase == api.JobPending {
		p.add(j.Name, TenantOf(&j), j.CreatedAt)
		return
	}
	p.remove(j.Name)
}

// slot returns the sorted position of (created, name) in one sub-queue.
func slot(entries []pendingEntry, name string, created time.Time) int {
	return sort.Search(len(entries), func(i int) bool {
		e := entries[i]
		if !e.created.Equal(created) {
			return e.created.After(created)
		}
		return e.name >= name
	})
}

func (p *pendingIndex) add(name, tenant string, created time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.member[name]; ok {
		return
	}
	q := p.queues[tenant]
	i := slot(q, name, created)
	q = append(q, pendingEntry{})
	copy(q[i+1:], q[i:])
	q[i] = pendingEntry{name: name, created: created}
	p.queues[tenant] = q
	p.member[name] = pendingRef{tenant: tenant, created: created}
	p.count++
}

func (p *pendingIndex) remove(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ref, ok := p.member[name]
	if !ok {
		return
	}
	delete(p.member, name)
	q := p.queues[ref.tenant]
	i := slot(q, name, ref.created)
	if i < len(q) && q[i].name == name {
		q = append(q[:i], q[i+1:]...)
		if len(q) == 0 {
			delete(p.queues, ref.tenant)
		} else {
			p.queues[ref.tenant] = q
		}
		p.count--
	}
}

// names snapshots the queued job names in global FIFO order — the merge
// of every tenant sub-queue by (created, name), which is exactly the
// pre-tenancy single-queue order.
func (p *pendingIndex) names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, p.count)
	if len(p.queues) == 1 {
		// Single tenant (the dominant case): its sub-queue already is the
		// global order — no merge, no sort.
		for _, q := range p.queues {
			for _, e := range q {
				out = append(out, e.name)
			}
		}
		return out
	}
	merged := make([]pendingEntry, 0, p.count)
	for _, q := range p.queues {
		merged = append(merged, q...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].created.Equal(merged[j].created) {
			return merged[i].created.Before(merged[j].created)
		}
		return merged[i].name < merged[j].name
	})
	for _, e := range merged {
		out = append(out, e.name)
	}
	return out
}

// namesCapped snapshots at most perTenant queued names per tenant, in
// the same global FIFO merge order names() produces for what it keeps.
// Each sub-queue is FIFO, so the cap trims only the tail: under deep
// overload a pass still sees the oldest work of every tenant, at
// O(tenants × perTenant) cost instead of O(total backlog).
func (p *pendingIndex) namesCapped(perTenant int) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	merged := make([]pendingEntry, 0, min(p.count, len(p.queues)*perTenant))
	for _, q := range p.queues {
		if len(q) > perTenant {
			q = q[:perTenant]
		}
		merged = append(merged, q...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].created.Equal(merged[j].created) {
			return merged[i].created.Before(merged[j].created)
		}
		return merged[i].name < merged[j].name
	})
	out := make([]string, 0, len(merged))
	for _, e := range merged {
		out = append(out, e.name)
	}
	return out
}

// PendingJobs returns copies of the pending jobs oldest-first (stable on
// name) — the scheduler's work queue. Each copy carries the resource
// version it was read at in ObjectMeta.ResourceVersion: the observation a
// scheduler's BindJobAt compare-and-swap binds against. Cost is
// proportional to the pending backlog, independent of how many terminal
// jobs remain resident. The index snapshot is taken before any store read
// (index lock is never held across a store lock), so a job racing to a
// new phase is simply filtered by the per-job re-check.
func (c *Cluster) PendingJobs() []api.QuantumJob {
	return c.pendingByName(c.pending.names())
}

// PendingJobsCapped is PendingJobs bounded to the oldest perTenant jobs
// of each tenant's sub-queue (perTenant <= 0 means no cap). The deep
// copies a pass pays for — and the memory it pins — stop growing with
// the backlog; jobs beyond the cap are simply picked up by later passes
// once the head drains. The virtual-time simulator relies on this to
// push million-job open-loop traces through real scheduling passes.
func (c *Cluster) PendingJobsCapped(perTenant int) []api.QuantumJob {
	if perTenant <= 0 {
		return c.PendingJobs()
	}
	return c.pendingByName(c.pending.namesCapped(perTenant))
}

func (c *Cluster) pendingByName(names []string) []api.QuantumJob {
	out := make([]api.QuantumJob, 0, len(names))
	for _, name := range names {
		j, v, err := c.Jobs.Get(name)
		if err == nil && j.Status.Phase == api.JobPending {
			j.ResourceVersion = v
			out = append(out, j)
		}
	}
	return out
}

// PendingCount reports the queued-job count without copying anything.
func (c *Cluster) PendingCount() int {
	c.pending.mu.Lock()
	defer c.pending.mu.Unlock()
	return c.pending.count
}

// ActiveCount reports how many jobs currently hold node resources
// (Scheduled or Running), summed across tenants from the usage index —
// no store scan.
func (c *Cluster) ActiveCount() int {
	c.usage.mu.Lock()
	defer c.usage.mu.Unlock()
	n := 0
	for _, t := range c.usage.tenants {
		n += t.Active
	}
	return n
}

// --- tenant usage index -------------------------------------------------

// TenantUsage aggregates one tenant's admitted-but-unfinished work — the
// figures the gateway's admission layer checks quotas against and
// GET /v1/tenants reports.
type TenantUsage struct {
	Tenant string `json:"tenant"`
	// Pending counts jobs waiting in the queue.
	Pending int `json:"pending"`
	// Active counts jobs holding node resources (Scheduled or Running).
	Active int `json:"active"`
	// QubitSeconds sums the estimated device-time demand of every
	// non-terminal job (api.EstimateQubitSeconds).
	QubitSeconds float64 `json:"qubitSeconds"`
}

// usageEntry remembers how one live job was last counted, so a phase
// transition can be applied as an exact decrement/increment pair.
type usageEntry struct {
	tenant  string
	pending bool
	active  bool
	qsec    float64
}

// usageIndex maintains per-tenant aggregates, fed by the same store hook
// chain as the pending index — every writer is covered, the counters
// cannot drift from the stored jobs.
type usageIndex struct {
	mu      sync.Mutex
	jobs    map[string]usageEntry
	tenants map[string]*TenantUsage
}

func (u *usageIndex) onJobEvent(ev store.WatchEvent[api.QuantumJob]) {
	j := ev.Object
	u.mu.Lock()
	defer u.mu.Unlock()
	if prev, ok := u.jobs[j.Name]; ok {
		u.applyLocked(prev, -1)
		delete(u.jobs, j.Name)
	}
	if ev.Type == store.Deleted || j.Status.Phase.Terminal() {
		return
	}
	e := usageEntry{
		tenant:  TenantOf(&j),
		pending: j.Status.Phase == api.JobPending,
		active:  j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning,
		qsec:    j.Spec.QubitSecondsDemand(),
	}
	u.jobs[j.Name] = e
	u.applyLocked(e, +1)
}

func (u *usageIndex) applyLocked(e usageEntry, sign int) {
	t := u.tenants[e.tenant]
	if t == nil {
		if sign < 0 {
			return
		}
		t = &TenantUsage{Tenant: e.tenant}
		u.tenants[e.tenant] = t
	}
	if e.pending {
		t.Pending += sign
	}
	if e.active {
		t.Active += sign
	}
	t.QubitSeconds += float64(sign) * e.qsec
	if t.Pending <= 0 && t.Active <= 0 {
		delete(u.tenants, e.tenant)
	}
}

// TenantUsage reports one tenant's live aggregate (zero value when the
// tenant has no admitted work).
func (c *Cluster) TenantUsage(tenant string) TenantUsage {
	if tenant == "" {
		tenant = api.DefaultTenant
	}
	c.usage.mu.Lock()
	defer c.usage.mu.Unlock()
	if t := c.usage.tenants[tenant]; t != nil {
		return *t
	}
	return TenantUsage{Tenant: tenant}
}

// TenantUsages lists every tenant with admitted work, name-ordered.
func (c *Cluster) TenantUsages() []TenantUsage {
	c.usage.mu.Lock()
	out := make([]TenantUsage, 0, len(c.usage.tenants))
	for _, t := range c.usage.tenants {
		out = append(out, *t)
	}
	c.usage.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// --- event index --------------------------------------------------------

// eventIndex maintains per-About lists of event names, in creation order,
// with a ring-buffer cap. The events themselves live once, in the store.
type eventIndex struct {
	mu      sync.Mutex
	byAbout map[string][]string
	cap     int
}

func (x *eventIndex) onEventEvent(ev store.WatchEvent[api.Event]) {
	switch ev.Type {
	case store.Added:
		x.add(ev.Object.About, ev.Object.Name)
	case store.Deleted:
		x.remove(ev.Object.About, ev.Object.Name)
	}
}

func (x *eventIndex) add(about, name string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	list := append(x.byAbout[about], name)
	if x.cap > 0 && len(list) > x.cap {
		copy(list, list[len(list)-x.cap:])
		list = list[:x.cap]
	}
	x.byAbout[about] = list
}

func (x *eventIndex) remove(about, name string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	list := x.byAbout[about]
	for i, e := range list {
		if e == name {
			x.byAbout[about] = append(list[:i], list[i+1:]...)
			if len(x.byAbout[about]) == 0 {
				delete(x.byAbout, about)
			}
			return
		}
	}
}

// about returns a copy of the indexed event names for one object.
func (x *eventIndex) about(about string) []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]string(nil), x.byAbout[about]...)
}

// --- nodes --------------------------------------------------------------

// NodeLabels derives the scheduling labels of §3.1 from a backend.
func NodeLabels(b *device.Backend) map[string]string {
	return map[string]string{
		api.LabelQubits:     strconv.Itoa(b.NumQubits),
		api.LabelAvg2QErr:   api.FormatFloatLabel(b.AvgTwoQubitErr()),
		api.LabelAvgT1us:    api.FormatFloatLabel(b.AvgT1us()),
		api.LabelAvgT2us:    api.FormatFloatLabel(b.AvgT2us()),
		api.LabelAvgReadout: api.FormatFloatLabel(b.AvgReadoutErr()),
		api.LabelCPUMillis:  strconv.FormatInt(b.CPUMillis, 10),
		api.LabelMemoryMB:   strconv.FormatInt(b.MemoryMB, 10),
	}
}

// AddNode registers a vendor backend as a ready cluster node with the
// paper's one container slot.
func (c *Cluster) AddNode(b *device.Backend) (api.Node, error) { return c.AddNodeSlots(b, 1) }

// AddNodeSlots is AddNode with the node's container capacity in the same
// record: a registration waits for the disk once.
func (c *Cluster) AddNodeSlots(b *device.Backend, slots int) (api.Node, error) {
	if err := b.Validate(); err != nil {
		return api.Node{}, fmt.Errorf("state: refusing invalid backend: %w", err)
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return api.Node{}, err
	}
	now := c.now()
	n := api.Node{
		ObjectMeta: api.ObjectMeta{
			Name:      b.Name,
			UID:       c.NextUID("node"),
			CreatedAt: now,
			Labels:    NodeLabels(b),
		},
		Spec: api.NodeSpec{
			BackendJSON: raw,
			CPUMillis:   b.CPUMillis,
			MemoryMB:    b.MemoryMB,
		},
		Status: api.NodeStatus{Phase: api.NodeReady, LastHeartbeat: now},
	}
	if slots > 1 {
		n.Spec.MaxContainers = slots
	}
	if _, err := c.Nodes.Create(n); err != nil {
		return api.Node{}, err
	}
	return n, nil
}

// cachedBackend is a decoded device and the node JSON it was decoded from.
type cachedBackend struct {
	raw     []byte
	backend *device.Backend
}

// dropStaleBackend is the Nodes hook behind the backend cache: a deleted
// node takes its entry with it, and so does a node whose BackendJSON is no
// longer the bytes the entry was decoded from (a refresh at boot, a vendor
// deleting a device and adding another under the same name). The bytes are
// immutable and shared between versions of a node, so the comparison of an
// unchanged device — every slot reservation is a node event — is a pointer
// check.
func (c *Cluster) dropStaleBackend(ev store.WatchEvent[api.Node]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := ev.Object.Name
	if cached, ok := c.backendCache[name]; ok &&
		(ev.Type == store.Deleted || !bytes.Equal(cached.raw, ev.Object.Spec.BackendJSON)) {
		delete(c.backendCache, name)
	}
}

// Backend decodes (and caches) the device behind a node.
func (c *Cluster) Backend(nodeName string) (*device.Backend, error) {
	c.mu.Lock()
	cached, ok := c.backendCache[nodeName]
	c.mu.Unlock()
	if ok {
		return cached.backend, nil
	}
	n, _, err := c.Nodes.Get(nodeName)
	if err != nil {
		return nil, err
	}
	var b device.Backend
	if err := json.Unmarshal(n.Spec.BackendJSON, &b); err != nil {
		return nil, fmt.Errorf("state: node %s backend corrupt: %w", nodeName, err)
	}
	// Cache under the node's shard lock, and only if the node still carries
	// the bytes just decoded: the hook runs under the same lock, so a change
	// of device cannot slip between this check and the insert.
	c.Nodes.Peek(nodeName, func(cur api.Node, _ int64) {
		if bytes.Equal(cur.Spec.BackendJSON, n.Spec.BackendJSON) {
			c.mu.Lock()
			c.backendCache[nodeName] = cachedBackend{raw: n.Spec.BackendJSON, backend: &b}
			c.mu.Unlock()
		}
	})
	return &b, nil
}

// QuotaExceededError reports a submission rejected by the deployment's
// tenant quota policy. Limit names the bound that tripped ("pending",
// "active" or "qubit-seconds").
type QuotaExceededError struct {
	Tenant string
	Limit  string
	Detail string
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("state: tenant %s over %s quota: %s", e.Tenant, e.Limit, e.Detail)
}

// HTTPStatus implements httpx.StatusCoder: quota rejections map to 429
// with the "quota_exceeded" envelope code.
func (e *QuotaExceededError) HTTPStatus() (int, string) { return 429, "quota_exceeded" }

// RetryAfter implements httpx.RetryAfterer. Quotas release when in-flight
// work finishes, which the server cannot forecast; one second is the
// shortest hint the Retry-After header can carry and stops well-behaved
// clients from busy-looping on a full quota.
func (e *QuotaExceededError) RetryAfter() time.Duration { return time.Second }

// CheckTenantQuota evaluates the tenant's quota against its live usage
// plus one prospective submission of qsec qubit-seconds. Callers that
// need exactness against concurrent submitters must hold the tenant's
// submit gate (SubmitJob does; the gateway's admission layer holds its
// own gate across the whole submission pipeline).
func (c *Cluster) CheckTenantQuota(tenant string, qsec float64) error {
	quota := c.QuotaFor(tenant)
	if quota.Unlimited() {
		return nil
	}
	usage := c.TenantUsage(tenant)
	if quota.MaxPending > 0 && usage.Pending >= quota.MaxPending {
		return c.rejectQuota(&QuotaExceededError{
			Tenant: tenant, Limit: "pending",
			Detail: fmt.Sprintf("%d pending of %d allowed", usage.Pending, quota.MaxPending),
		})
	}
	if quota.MaxActive > 0 && usage.Active >= quota.MaxActive {
		return c.rejectQuota(&QuotaExceededError{
			Tenant: tenant, Limit: "active",
			Detail: fmt.Sprintf("%d jobs on nodes of %d allowed — wait for one to finish",
				usage.Active, quota.MaxActive),
		})
	}
	if quota.MaxQubitSeconds > 0 && usage.QubitSeconds+qsec > quota.MaxQubitSeconds {
		return c.rejectQuota(&QuotaExceededError{
			Tenant: tenant, Limit: "qubit-seconds",
			Detail: fmt.Sprintf("%.3f in flight + %.3f requested exceeds %.3f allowed",
				usage.QubitSeconds, qsec, quota.MaxQubitSeconds),
		})
	}
	return nil
}

// rejectQuota counts and passes through a quota rejection. The gateway's
// admission layer rejects before SubmitJob would re-check, so each
// rejected submission increments exactly once.
func (c *Cluster) rejectQuota(err *QuotaExceededError) error {
	if m := c.Metrics; m != nil {
		m.QuotaRejections.With(err.Limit).Inc()
	}
	return err
}

// submitGate returns the tenant's submit-serialisation stripe.
func (c *Cluster) submitGate(tenant string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return &c.submitGates[h.Sum32()%uint32(len(c.submitGates))]
}

// Note is one more event SubmitJob records about the job it stores.
type Note struct{ Reason, Message string }

// SubmitJob validates and stores a new job in the Pending phase. The
// tenant quota policy is enforced here — the choke point every
// submission surface (gateway, master, cluster API, visualizer) flows
// through — under a per-tenant gate so concurrent same-tenant
// submissions cannot overshoot the last quota slot. The job, its
// Submitted event and the caller's notes (the Master Server's
// Containerized) are written back to back and waited for once.
func (c *Cluster) SubmitJob(j api.QuantumJob, notes ...Note) error {
	if j.Spec.Shots == 0 {
		j.Spec.Shots = api.DefaultShots
	}
	if j.Spec.Tenant == "" {
		j.Spec.Tenant = api.DefaultTenant
	}
	if err := j.Validate(); err != nil {
		return err
	}
	// Names are unique across the hot store AND the archive: letting a new
	// job shadow an archived one would make history queries ambiguous.
	if c.Archived.Has(j.Name) {
		return store.ErrExists{Name: j.Name}
	}
	// The gate covers the quota check and the create only: the usage hook
	// counts the job at create, so the next same-tenant submission may
	// proceed while this one waits for the disk.
	created, err := func() (int64, error) {
		gate := c.submitGate(j.Spec.Tenant)
		gate.Lock()
		defer gate.Unlock()
		if err := c.CheckTenantQuota(j.Spec.Tenant, j.Spec.QubitSecondsDemand()); err != nil {
			return 0, err
		}
		j.UID = c.NextUID("job")
		j.CreatedAt = c.now()
		j.Status = api.JobStatus{Phase: api.JobPending}
		return c.Jobs.NoWait().Create(j)
	}()
	if err != nil {
		return err
	}
	defer c.Sync()
	// Re-check the archive AFTER the create: a sweep that was between its
	// archive-copy and hot-delete steps when the pre-check ran makes both
	// tiers look name-free for one window. If the name surfaced in the
	// archive meanwhile, the sweep's conditional delete cannot have taken
	// our fresh object (different version), so its copy stands — undo the
	// create and report the conflict, keeping names unique across tiers.
	if c.Archived.Has(j.Name) {
		err := c.Jobs.DeleteFunc(j.Name, func(_ api.QuantumJob, v int64) error {
			if v != created {
				return fmt.Errorf("state: job %s advanced during duplicate-name rollback", j.Name)
			}
			return nil
		})
		if err == nil {
			return store.ErrExists{Name: j.Name}
		}
		// Another actor already advanced the fresh job (sub-microsecond
		// window); let the accepted submission stand.
	}
	c.writeEvent("Job", j.Name, "Submitted", "job accepted by the API server")
	for _, n := range notes {
		c.writeEvent("Job", j.Name, n.Reason, n.Message)
	}
	return nil
}

// ConflictError reports a bind that lost the job: between the caller's
// observation and the bind transaction the job's resource version moved
// (another scheduler replica, a cancel, a kubelet transition won the
// race) or, for an unconditional bind, the job left Pending. The caller
// should skip the job, not retry or alarm — and the node it tried is
// still as good a candidate as it was.
type ConflictError struct {
	Job      string
	Observed int64        // the version the caller bound against (0 = unconditional)
	Current  int64        // the version the store held at transaction time
	Phase    api.JobPhase // set when the job was found outside Pending
}

func (e ConflictError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("state: job %s is %s, not pending", e.Job, e.Phase)
	}
	return fmt.Sprintf("state: job %s moved from version %d to %d during binding",
		e.Job, e.Observed, e.Current)
}

// HTTPStatus implements httpx.StatusCoder: a lost bind is the canonical
// 409.
func (e ConflictError) HTTPStatus() (int, string) { return 409, "conflict" }

// IsConflict reports whether err is (or wraps) a lost bind.
func IsConflict(err error) bool {
	var c ConflictError
	return errors.As(err, &c)
}

// CapacityError reports a bind the NODE refused: it is not registered,
// not Ready, out of container slots, or short of the CPU or memory the
// job requests. The job is still Pending and still the caller's to
// place — on another node; this one is spent until its status changes.
type CapacityError struct {
	Node   string
	Reason string
}

func (e CapacityError) Error() string {
	return fmt.Sprintf("state: node %s %s", e.Node, e.Reason)
}

// HTTPStatus implements httpx.StatusCoder: still a 409, but under its
// own envelope code so a remote scheduler can tell "try the next node"
// from ConflictError's "drop the job".
func (e CapacityError) HTTPStatus() (int, string) { return 409, "node_unavailable" }

// IsCapacity reports whether err is (or wraps) a node-side bind refusal.
func IsCapacity(err error) bool {
	var c CapacityError
	return errors.As(err, &c)
}

// BindJob assigns a pending job to a node (the scheduler's binding step)
// and reserves one of the node's container slots plus the job's classical
// resources. The node update is the serialisation point: concurrent binds
// racing for the last free slot fail here rather than overcommitting.
func (c *Cluster) BindJob(jobName, nodeName string, score float64) error {
	return c.BindJobAt(jobName, nodeName, score, 0)
}

// BindJobAt is BindJob with optimistic concurrency: when version > 0 the
// bind commits only if the job's resource version still equals version at
// the phase-transition step (compare-and-swap under the job shard's
// lock). Racing scheduler replicas each bind at the version they observed
// in their pending snapshot, so exactly one wins per job and the losers
// learn cheaply. version 0 skips the check — the form for callers that
// hold no observation.
//
// Every refusal is typed, so no caller decides by message or by
// re-reading the job: ConflictError means the job moved (stale version,
// or no longer Pending), CapacityError means this node cannot take it,
// store.ErrNotFound means the job does not exist.
func (c *Cluster) BindJobAt(jobName, nodeName string, score float64, version int64) error {
	job, cur, err := c.Jobs.Get(jobName)
	if err != nil {
		return err
	}
	// Fast path: a stale observation loses before it touches the node
	// shard, so conflict storms don't serialise on node locks.
	if version > 0 && cur != version {
		return ConflictError{Job: jobName, Observed: version, Current: cur}
	}
	if job.Status.Phase != api.JobPending {
		return ConflictError{Job: jobName, Observed: version, Current: cur, Phase: job.Status.Phase}
	}
	refuse := func(format string, args ...any) error {
		return CapacityError{Node: nodeName, Reason: fmt.Sprintf(format, args...)}
	}
	_, _, err = c.Nodes.NoWait().Update(nodeName, func(n api.Node) (api.Node, error) {
		if n.Status.Phase != api.NodeReady {
			return n, refuse("not ready")
		}
		if slots := n.ContainerSlots(); len(n.Status.RunningJobs) >= slots {
			return n, refuse("at container capacity (%d/%d)", len(n.Status.RunningJobs), slots)
		}
		if n.Status.HasRunningJob(jobName) {
			// Another binder reserved this node for this very job and is
			// between its reservation and its phase flip: the job is
			// moving, which is a conflict on the job, not a full node.
			return n, ConflictError{Job: jobName, Observed: version, Current: cur}
		}
		if free := n.Spec.CPUMillis - n.Status.CPUMillisInUse; job.Spec.Resources.CPUMillis > free {
			return n, refuse("has %dm CPU free, job %s needs %dm", free, jobName, job.Spec.Resources.CPUMillis)
		}
		if free := n.Spec.MemoryMB - n.Status.MemoryMBInUse; job.Spec.Resources.MemoryMB > free {
			return n, refuse("has %dMB memory free, job %s needs %dMB", free, jobName, job.Spec.Resources.MemoryMB)
		}
		n.Status.RunningJobs = append(n.Status.RunningJobs, jobName)
		n.Status.CPUMillisInUse += job.Spec.Resources.CPUMillis
		n.Status.MemoryMBInUse += job.Spec.Resources.MemoryMB
		return n, nil
	})
	var gone store.ErrNotFound
	if errors.As(err, &gone) {
		return refuse("not registered")
	}
	if err != nil {
		return err
	}
	// Reservation, phase flip and event (or the give-back) are one wait.
	defer c.Sync()
	// The phase flip re-checks under the job shard's lock: a CancelJob (or
	// any other transition) that landed since the pending check above
	// wins, and with version > 0 so does any write at all.
	_, err = c.transition(jobName, api.JobEventBind, Transition{
		Node: nodeName, Score: score, Version: version,
		Detail: fmt.Sprintf("bound to node %s (score %.4f)", nodeName, score),
	})
	if err != nil {
		// The node reservation above is now orphaned; give it back.
		c.release(nodeName, jobName)
		var illegal api.IllegalTransitionError
		if errors.As(err, &illegal) {
			return ConflictError{Job: jobName, Observed: version, Phase: illegal.Phase}
		}
		return err
	}
	if m := c.Metrics; m != nil {
		m.SubmitToBind.Observe(c.now().Sub(job.CreatedAt).Seconds())
		m.TenantBinds.With(TenantOf(&job)).Inc()
	}
	return nil
}

// Transition is what a caller of TransitionJob knows beyond the event.
type Transition struct {
	// Node is the node a bind assigns; for every other event a non-empty
	// Node requires the job to still be on it (a kubelet's "still ours").
	Node  string
	Score float64 // bind only
	// Version > 0 applies the event only at that resource version
	// (compare-and-swap, ConflictError otherwise).
	Version int64
	Message string // the job's new Status.Message ("" = the table's default, else unchanged)
	Detail  string // the recorded event's message ("" = the job's Status.Message)
	NoEvent bool   // record no cluster event (the simulator's kubelet model)
	// Result is the execution record a kubelet publishes with a finishing
	// event; stored first, whether or not the event applies (results are
	// keyed by job name and a retry overwrites the previous log).
	Result *api.Result
}

// TransitionJob is the one writer of job phases: it applies ev through the
// lifecycle table (api.JobStatus.Apply) atomically under the job shard's
// lock, then releases the node the move vacated — latching a release that
// cannot land — then records the table's event, in that order, and waits
// for the disk once, after the last of them. An event the table has no row
// for in the job's current phase moves nothing and returns
// api.IllegalTransitionError.
func (c *Cluster) TransitionJob(name string, ev api.JobEvent, t Transition) (api.QuantumJob, error) {
	defer c.Sync()
	return c.transition(name, ev, t)
}

// transition is TransitionJob without the wait; the caller ends in Sync.
func (c *Cluster) transition(name string, ev api.JobEvent, t Transition) (api.QuantumJob, error) {
	if res := t.Result; res != nil {
		results := c.Results.NoWait()
		if _, err := results.Create(*res); err != nil {
			results.Update(res.Name, func(api.Result) (api.Result, error) { return *res, nil })
		}
	}
	var move api.JobMove
	updated, _, err := c.Jobs.NoWait().UpdateFunc(name, func(_ api.QuantumJob, v int64) error {
		if t.Version > 0 && v != t.Version {
			return ConflictError{Job: name, Observed: t.Version, Current: v}
		}
		return nil
	}, func(j api.QuantumJob) (api.QuantumJob, error) {
		var err error
		move, err = j.Status.Apply(ev, api.JobInput{Now: c.now(), Node: t.Node, Score: t.Score, Message: t.Message})
		return j, err
	})
	if err != nil {
		return api.QuantumJob{}, err
	}
	if move.Vacated != "" {
		c.release(move.Vacated, name)
	}
	if move.Reason != "" && !t.NoEvent {
		detail := t.Detail
		if detail == "" {
			detail = updated.Status.Message
		}
		c.writeEvent("Job", name, move.Reason, detail)
	}
	return updated, nil
}

// TerminalJobError reports a lifecycle operation against a job that has
// already reached a terminal phase (the /v1 conflict case).
type TerminalJobError struct {
	Job   string
	Phase api.JobPhase
}

func (e TerminalJobError) Error() string {
	return fmt.Sprintf("state: job %s is already %s", e.Job, e.Phase)
}

// HTTPStatus implements httpx.StatusCoder: terminal-phase conflicts map to
// 409 with the "conflict" envelope code.
func (e TerminalJobError) HTTPStatus() (int, string) { return 409, "conflict" }

// CancelJob drives the user-initiated cancellation path and returns the
// updated job. Pending jobs leave the queue immediately; scheduled jobs
// additionally give their node slot back; running jobs are flagged with
// CancelRequested and the owning kubelet aborts the container (the job
// reaches JobCancelled when the abort lands). Cancelling a terminal job
// returns TerminalJobError — including a job the retention sweep has
// already moved to the archive: the cancel must NOT resurrect it, and a
// cancel racing the sweep resolves to either "sweep lost, normal conflict"
// or "sweep won, archived conflict", never a ghost job. The job update is
// atomic with the phase check, so a cancel racing a kubelet's
// Scheduled→Running claim resolves cleanly: exactly one of the two
// transitions wins.
func (c *Cluster) CancelJob(name string) (api.QuantumJob, error) {
	updated, err := c.TransitionJob(name, api.JobEventCancel, Transition{})
	var illegal api.IllegalTransitionError
	var notFound store.ErrNotFound
	switch {
	case errors.As(err, &illegal): // cancel applies to every non-terminal phase
		return api.QuantumJob{}, TerminalJobError{Job: name, Phase: illegal.Phase}
	case errors.As(err, &notFound):
		// Not in the hot store — the sweep may already have archived it.
		// An archived job is terminal by construction: answer with the
		// same typed conflict a resident terminal job gets, so the
		// caller cannot tell (or care) which tier it rests in.
		if entry, ok := c.Archived.Get(name); ok {
			return api.QuantumJob{}, TerminalJobError{Job: name, Phase: entry.Job.Status.Phase}
		}
	}
	return updated, err
}

// ReleaseNode frees the container slot and resource reservation a job held
// on a node. The job lookup happens before the node update so no store
// read nests inside the node shard's lock; a job the retention sweep has
// already archived resolves through the archive tier (the ResultFor
// two-tier pattern) so its CPU/memory reservation is still decremented —
// releasing only the slot would leak classical-resource accounting until
// the node re-registers. The returned error is the node update failing
// (typically the node deregistered mid-release).
func (c *Cluster) ReleaseNode(nodeName, jobName string) error {
	defer c.Sync()
	return c.releaseNode(nodeName, jobName)
}

// releaseNode is ReleaseNode without the wait; the caller ends in Sync.
func (c *Cluster) releaseNode(nodeName, jobName string) error {
	job, _, jobErr := c.Jobs.Get(jobName)
	if jobErr != nil {
		if entry, ok := c.Archived.Get(jobName); ok {
			job, jobErr = entry.Job, nil
		}
	}
	_, _, err := c.Nodes.NoWait().Update(nodeName, func(n api.Node) (api.Node, error) {
		if !n.Status.HasRunningJob(jobName) {
			return n, nil
		}
		kept := n.Status.RunningJobs[:0]
		for _, j := range n.Status.RunningJobs {
			if j != jobName {
				kept = append(kept, j)
			}
		}
		n.Status.RunningJobs = kept
		if len(n.Status.RunningJobs) == 0 {
			n.Status.RunningJobs = nil
		}
		if jobErr == nil {
			n.Status.CPUMillisInUse -= job.Spec.Resources.CPUMillis
			n.Status.MemoryMBInUse -= job.Spec.Resources.MemoryMB
			if n.Status.CPUMillisInUse < 0 {
				n.Status.CPUMillisInUse = 0
			}
			if n.Status.MemoryMBInUse < 0 {
				n.Status.MemoryMBInUse = 0
			}
		}
		return n, nil
	})
	return err
}

// release is releaseNode for callers that cannot retry: a release that
// cannot land (typically the node deregistered mid-flight) is latched as
// a ReleaseFailed event on the job plus the
// qrio_state_release_failures_total counter. The reservation may be
// orphaned until the node re-registers (registration rebuilds accounting
// from scratch), so the failure must be visible, not silently dropped.
func (c *Cluster) release(nodeName, jobName string) {
	err := c.releaseNode(nodeName, jobName)
	if err == nil {
		return
	}
	if m := c.Metrics; m != nil {
		m.ReleaseFailures.Inc()
	}
	c.writeEvent("Job", jobName, "ReleaseFailed",
		fmt.Sprintf("could not release reservation on node %s: %v", nodeName, err))
}

// RecordEvent appends an observability event.
func (c *Cluster) RecordEvent(kind, about, reason, message string) {
	c.writeEvent(kind, about, reason, message)
	c.Sync()
}

// writeEvent is RecordEvent without the wait; the caller ends in Sync. The
// timestamp is taken once so CreatedAt and Time can never disagree.
func (c *Cluster) writeEvent(kind, about, reason, message string) {
	now := c.now()
	c.Events.NoWait().Create(api.Event{
		ObjectMeta: api.ObjectMeta{Name: c.NextUID("event"), CreatedAt: now},
		Kind:       kind,
		About:      about,
		Reason:     reason,
		Message:    message,
		Time:       now,
	})
}

// EventsAbout lists events for one object, oldest first, by name from the
// incremental index — no scan over the global event log. At most
// EventIndexCap (the newest) are indexed per object.
func (c *Cluster) EventsAbout(about string) []api.Event {
	names := c.eventIdx.about(about)
	out := make([]api.Event, 0, len(names))
	for _, name := range names {
		if e, _, err := c.Events.Get(name); err == nil { // else deleted since
			out = append(out, e)
		}
	}
	sortEventsByTime(out)
	return out
}

func sortEventsByTime(events []api.Event) {
	// SliceStable: events recorded within one clock tick keep their
	// creation order (the index appends in creation order).
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
}
