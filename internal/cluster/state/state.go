// Package state bundles the typed object stores that make up a QRIO
// cluster's control-plane state (the API server's backing storage) and the
// constructors that turn vendor backends into labelled cluster nodes.
//
// On top of the raw stores the Cluster maintains incremental indexes, fed
// synchronously by store mutation hooks so they can never drift from the
// stored objects. The ordered ones are one type, jobOrder (order.go), and
// each is only a key function: the pending queue (per tenant, FIFO), the
// placed-by-node lists that also wake each node's kubelet, the terminal
// jobs the archive sweep takes oldest first, and the failed jobs the
// controller retries. Per-node sums of the placed jobs' requests are the
// view a node's reservations are read from. CheckIndexes holds them all to
// a rebuild. An About-keyed event ring, capped per object, serves
// EventsAbout without scanning the whole event log.
//
// Everything kept per node beside the stored object — the fleet view the
// scheduler ranks against, the last heartbeat and the decoded device — is
// one hook-fed table (nodes.go), which CheckIndexes also holds to the
// store. Heartbeats are deliberately NOT stored: only Ready↔NotReady
// transitions are journaled.
package state

import (
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

	pending    *jobOrder // tenant → Pending jobs by (CreatedAt, name)
	terminal   *jobOrder // one group of terminal jobs by (finish time, name)
	failed     *jobOrder // one group of Failed jobs by (finish time, name)
	scheduled  scheduledIndex
	ctlWake    chan struct{} // see ControllerWake
	usage      usageIndex
	eventIdx   eventIndex
	fleet      nodeTable
	tenantConf tenantConfIndex
	hub        hubRegistry

	// submitGates serialises SubmitJob per tenant (hash-striped) so the
	// quota check and the store create are atomic with respect to
	// same-tenant racers — the hook-fed usage index updates under the
	// store write, inside the window the gate covers, making admission
	// accounting exact. Striping bounds memory; cross-tenant collisions
	// only cost a moment of false serialisation.
	submitGates [64]sync.Mutex
	// bindGates does the same per node for BindJobAt's capacity check and
	// the job write that moves the node's load sums.
	bindGates [64]sync.Mutex
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
	}
	// Only job and node watches resume from a token (hub.go); a journal
	// ring on the other stores would keep every result and event a second
	// time for a replay nobody can ask for.
	c.Results.SetJournalCap(0)
	c.Events.SetJournalCap(0)
	c.TenantConfigs.SetJournalCap(0)
	c.pending = newJobOrder(pendingKey)
	c.terminal = newJobOrder(terminalKey)
	c.failed = newJobOrder(failedKey)
	c.ctlWake = make(chan struct{}, 1)
	c.scheduled = scheduledIndex{
		jobOrder:  newJobOrder(placedKey),
		load:      make(map[string]nodeLoad),
		schedWake: make(chan struct{}, 1),
		wake:      make(map[string]chan struct{}),
	}
	c.usage.jobs = make(map[string]usageEntry)
	c.usage.tenants = make(map[string]*TenantUsage)
	c.eventIdx.byAbout = make(map[string][]string)
	c.eventIdx.cap = EventIndexCap
	c.fleet.entries = make(map[string]*nodeEntry)
	c.tenantConf.m = make(map[string]api.TenantConfig)
	c.hub.streams = make(map[int]chan Notification)
	// The hooks run under the mutated shard's lock: they may only touch the
	// index mutexes (never a store), keeping the lock order store→index.
	c.Jobs.OnEvent(func(ev store.WatchEvent[api.QuantumJob]) { c.pending.onJobEvent(ev) })
	c.Jobs.OnEvent(c.usage.onJobEvent)
	c.Jobs.OnEvent(func(ev store.WatchEvent[api.QuantumJob]) { c.terminal.onJobEvent(ev) })
	c.Jobs.OnEvent(c.scheduled.onJobEvent)
	c.Jobs.OnEvent(func(ev store.WatchEvent[api.QuantumJob]) {
		if c.failed.onJobEvent(ev); ev.Type != store.Deleted && ev.Object.Status.Phase == api.JobFailed {
			poke(c.ctlWake)
		}
	})
	c.Nodes.OnEvent(c.onNodeEvent)
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

// --- pending jobs -------------------------------------------------------

// TenantOf returns the job's quota/fairness principal, normalising the
// pre-tenancy empty field to the default tenant.
func TenantOf(j *api.QuantumJob) string {
	if j.Spec.Tenant == "" {
		return api.DefaultTenant
	}
	return j.Spec.Tenant
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
	return c.PendingJobsCapped(0)
}

// PendingJobsCapped is PendingJobs bounded to the oldest perTenant jobs
// of each tenant's sub-queue (perTenant <= 0 means no cap). The deep
// copies a pass pays for — and the memory it pins — stop growing with
// the backlog; jobs beyond the cap are simply picked up by later passes
// once the head drains. The virtual-time simulator relies on this to
// push million-job open-loop traces through real scheduling passes.
func (c *Cluster) PendingJobsCapped(perTenant int) []api.QuantumJob {
	return c.jobsNamed(c.pending.names(perTenant), func(j *api.QuantumJob) bool {
		return j.Status.Phase == api.JobPending
	})
}

// jobsNamed copies the named jobs out of the store, each stamped with the
// version it was read at, keeping those still where the index filed them;
// a job still refuses is never copied.
func (c *Cluster) jobsNamed(names []string, still func(*api.QuantumJob) bool) []api.QuantumJob {
	out := make([]api.QuantumJob, 0, len(names))
	for _, name := range names {
		c.Jobs.Peek(name, func(j api.QuantumJob, v int64) {
			if still(&j) {
				j = j.DeepCopy()
				j.ResourceVersion = v
				out = append(out, j)
			}
		})
	}
	return out
}

// PendingCount reports the queued-job count without copying anything.
func (c *Cluster) PendingCount() int { return c.pending.len() }

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
// figures the intake's quota pre-check and SubmitJob's quota gate check
// against and GET /v1/tenants reports.
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
// plus one prospective submission of qsec qubit-seconds. Only SubmitJob's
// check, under the tenant's submit gate, is exact against concurrent
// submitters; the intake's (core.QRIO.Submit) is an early refusal ahead
// of the expensive work.
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

// rejectQuota counts and passes through a quota rejection. A submission
// the intake's pre-check refuses never reaches SubmitJob's re-check, so
// each rejected submission increments exactly once.
func (c *Cluster) rejectQuota(err *QuotaExceededError) error {
	if m := c.Metrics; m != nil {
		m.QuotaRejections.With(err.Limit).Inc()
	}
	return err
}

// stripe returns key's lock among a hash-striped set of gates.
func stripe(gates []sync.Mutex, key string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &gates[h.Sum32()%uint32(len(gates))]
}

// Note is one more event SubmitJob records about the job it stores.
type Note struct{ Reason, Message string }

// SubmitJob validates and stores a new job in the Pending phase. Outside
// tests its callers are the intake's last step (master.Server.Submit,
// reached only through core.QRIO.Submit) and the simulator. The tenant
// quota policy is enforced here, under a per-tenant gate so concurrent
// same-tenant submissions cannot overshoot the last quota slot: the one
// exact quota gate. The job, its
// Submitted event and the caller's notes (the Master Server's
// Containerized) are written back to back and waited for once. It
// returns the job as it installed it, stamped with its create version —
// not a re-read, which could see a bind that raced in.
func (c *Cluster) SubmitJob(j api.QuantumJob, notes ...Note) (api.QuantumJob, error) {
	if j.Spec.Shots == 0 {
		j.Spec.Shots = api.DefaultShots
	}
	if j.Spec.Tenant == "" {
		j.Spec.Tenant = api.DefaultTenant
	}
	if err := j.Validate(); err != nil {
		return api.QuantumJob{}, err
	}
	// Names are unique across the hot store AND the archive: letting a new
	// job shadow an archived one would make history queries ambiguous.
	if c.Archived.Has(j.Name) {
		return api.QuantumJob{}, store.ErrExists{Name: j.Name}
	}
	// The gate covers the quota check and the create only: the usage hook
	// counts the job at create, so the next same-tenant submission may
	// proceed while this one waits for the disk.
	created, err := func() (int64, error) {
		gate := stripe(c.submitGates[:], j.Spec.Tenant)
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
		return api.QuantumJob{}, err
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
			return api.QuantumJob{}, store.ErrExists{Name: j.Name}
		}
		// Another actor already advanced the fresh job (sub-microsecond
		// window); let the accepted submission stand.
	}
	c.writeEvent("Job", j.Name, "Submitted", "job accepted by the API server")
	for _, n := range notes {
		c.writeEvent("Job", j.Name, n.Reason, n.Message)
	}
	j.ResourceVersion = created
	return j, nil
}

// ConflictError reports a bind that lost the job: between the caller's
// observation and the bind transaction the job's resource version moved
// (a cancel, a requeue, an archival or another binder won the race) or,
// for an unconditional bind, the job left Pending. The caller should skip
// the job, not retry or alarm — and the node it tried is still as good a
// candidate as it was.
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

// IsCapacity reports whether err is (or wraps) a node-side bind refusal.
func IsCapacity(err error) bool {
	var c CapacityError
	return errors.As(err, &c)
}

// BindJob assigns a pending job to a node (the scheduler's binding step),
// which takes one of the node's container slots plus the job's classical
// resources: the node's reservations are the sums over its placed jobs.
// Concurrent binds racing for the last free slot serialise on the node's
// bind gate, so exactly one wins and the rest get a CapacityError.
func (c *Cluster) BindJob(jobName, nodeName string, score float64) error {
	return c.BindJobAt(jobName, nodeName, score, 0)
}

// BindJobAt is BindJob with optimistic concurrency: when version > 0 the
// bind commits only if the job's resource version still equals version at
// the phase-transition step (compare-and-swap under the job shard's
// lock). The scheduler binds at the version it observed in its pending
// snapshot: if a cancel, requeue or archival moved the job since, the
// bind loses cheaply, and any number of concurrent version-conditional
// binders resolve to exactly one winner per job. version 0 skips the
// check — the form for callers that hold no observation.
//
// The job write is the bind's one store write besides its event. Lock
// order: the node's bind gate, the job shard, the indexes.
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
	// Fast path: a stale observation loses before it takes the node's
	// gate, so conflict storms don't serialise on it.
	if version > 0 && cur != version {
		return ConflictError{Job: jobName, Observed: version, Current: cur}
	}
	if job.Status.Phase != api.JobPending {
		return ConflictError{Job: jobName, Observed: version, Current: cur, Phase: job.Status.Phase}
	}
	gate := stripe(c.bindGates[:], nodeName)
	gate.Lock()
	err = c.roomFor(nodeName, &job)
	if err == nil {
		// The phase flip re-checks under the job shard's lock: a CancelJob
		// (or any other transition) that landed since the pending check
		// above wins, and with version > 0 so does any write at all.
		_, err = c.transition(jobName, api.JobEventBind, Transition{
			Node: nodeName, Score: score, Version: version,
			Detail: fmt.Sprintf("bound to node %s (score %.4f)", nodeName, score),
		})
	}
	gate.Unlock()
	var illegal api.IllegalTransitionError
	if errors.As(err, &illegal) {
		return ConflictError{Job: jobName, Observed: version, Phase: illegal.Phase}
	}
	if err != nil {
		return err
	}
	defer c.Sync()
	if m := c.Metrics; m != nil {
		m.SubmitToBind.Observe(c.now().Sub(job.CreatedAt).Seconds())
		m.TenantBinds.With(TenantOf(&job)).Inc()
	}
	return nil
}

// roomFor refuses, with a CapacityError, a node that cannot take the job
// now: not registered, not Ready, or short of a container slot, CPU or
// memory beside what its placed jobs hold. The caller holds the node's
// bind gate.
func (c *Cluster) roomFor(nodeName string, job *api.QuantumJob) error {
	c.fleet.mu.Lock()
	e, ok := c.fleet.entries[nodeName]
	var n api.Node
	if ok {
		n = e.node
	}
	c.fleet.mu.Unlock()
	c.scheduled.loadMu.Lock()
	load := c.scheduled.load[nodeName]
	c.scheduled.loadMu.Unlock()
	cpu, mem := n.Spec.CPUMillis-load.cpu, n.Spec.MemoryMB-load.mem
	var why string
	switch res := job.Spec.Resources; {
	case !ok:
		why = "not registered"
	case n.Status.Phase != api.NodeReady:
		why = "not ready"
	case load.jobs >= n.ContainerSlots():
		why = fmt.Sprintf("at container capacity (%d/%d)", load.jobs, n.ContainerSlots())
	case res.CPUMillis > cpu:
		why = fmt.Sprintf("has %dm CPU free, job %s needs %dm", cpu, job.Name, res.CPUMillis)
	case res.MemoryMB > mem:
		why = fmt.Sprintf("has %dMB memory free, job %s needs %dMB", mem, job.Name, res.MemoryMB)
	default:
		return nil
	}
	return CapacityError{Node: nodeName, Reason: why}
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
// lock, then records the table's event, and waits for the disk once, after
// both. A move off a node frees its slot and resources there by the job
// write alone: the node's reservations are derived from its placed jobs. An event the table has no row
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
	var reason string
	updated, _, err := c.Jobs.NoWait().UpdateFunc(name, func(_ api.QuantumJob, v int64) error {
		if t.Version > 0 && v != t.Version {
			return ConflictError{Job: name, Observed: t.Version, Current: v}
		}
		return nil
	}, func(j api.QuantumJob) (api.QuantumJob, error) {
		var err error
		reason, err = j.Status.Apply(ev, api.JobInput{Now: c.now(), Node: t.Node, Score: t.Score, Message: t.Message})
		return j, err
	})
	if err != nil {
		return api.QuantumJob{}, err
	}
	if reason != "" && !t.NoEvent {
		detail := t.Detail
		if detail == "" {
			detail = updated.Status.Message
		}
		c.writeEvent("Job", name, reason, detail)
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
