package state

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/obs"
)

func testBackend(t *testing.T, name string) *device.Backend {
	t.Helper()
	b, err := device.UniformBackend(name, graph.Line(5), 0.1, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fidelityJob(name string) api.QuantumJob {
	return api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.JobSpec{
			QASM:           "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];",
			Strategy:       api.StrategyFidelity,
			TargetFidelity: 0.9,
		},
	}
}

func TestAddNodePublishesLabels(t *testing.T) {
	c := New()
	b := testBackend(t, "dev-a")
	n, err := c.AddNode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n.Labels[api.LabelQubits] != "5" {
		t.Errorf("qubit label = %q", n.Labels[api.LabelQubits])
	}
	if v, ok := api.ParseFloatLabel(n.Labels, api.LabelAvg2QErr); !ok || v != 0.1 {
		t.Errorf("avg 2q label = %v %v", v, ok)
	}
	if v, ok := api.ParseFloatLabel(n.Labels, api.LabelAvgT1us); !ok || v != 500e3 {
		t.Errorf("T1 label = %v %v", v, ok)
	}
	if got, _ := strconv.ParseInt(n.Labels[api.LabelCPUMillis], 10, 64); got != b.CPUMillis {
		t.Errorf("cpu label = %v", n.Labels[api.LabelCPUMillis])
	}
	if n.Status.Phase != api.NodeReady {
		t.Errorf("new node phase = %s", n.Status.Phase)
	}
	// Backend round trip through the node object.
	back, err := c.Backend("dev-a")
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "dev-a" || back.NumQubits != 5 {
		t.Errorf("backend decode = %v", back)
	}
}

func TestAddNodeRejectsDuplicatesAndInvalid(t *testing.T) {
	c := New()
	b := testBackend(t, "dev-a")
	if _, err := c.AddNode(b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(b); err == nil {
		t.Fatal("duplicate node accepted")
	}
	bad := testBackend(t, "dev-bad")
	bad.Name = "" // invalidate after construction
	if _, err := c.AddNode(bad); err == nil {
		t.Fatal("invalid backend accepted")
	}
}

func TestSubmitJobDefaultsAndValidation(t *testing.T) {
	c := New()
	if _, err := c.SubmitJob(fidelityJob("j1")); err != nil {
		t.Fatal(err)
	}
	j, _, err := c.Jobs.Get("j1")
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.Shots != 1024 {
		t.Errorf("default shots = %d", j.Spec.Shots)
	}
	if j.Status.Phase != api.JobPending {
		t.Errorf("phase = %s", j.Status.Phase)
	}
	bad := fidelityJob("j2")
	bad.Spec.TargetFidelity = 1.5
	if _, err := c.SubmitJob(bad); err == nil {
		t.Fatal("invalid fidelity accepted")
	}
	noStrategy := fidelityJob("j3")
	noStrategy.Spec.Strategy = "magic"
	if _, err := c.SubmitJob(noStrategy); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestBindJobLifecycle(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "dev-a"))
	job := fidelityJob("j1")
	job.Spec.Resources = api.ResourceRequirements{CPUMillis: 1000, MemoryMB: 512}
	if _, err := c.SubmitJob(job); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("j1", "dev-a", 0.25); err != nil {
		t.Fatal(err)
	}
	j, _, _ := c.Jobs.Get("j1")
	if j.Status.Phase != api.JobScheduled || j.Status.Node != "dev-a" || j.Status.Score != 0.25 {
		t.Fatalf("bound job = %+v", j.Status)
	}
	n, _, _ := c.Nodes.Get("dev-a")
	if !n.Status.HasRunningJob("j1") || n.Status.CPUMillisInUse != 1000 || n.Status.MemoryMBInUse != 512 {
		t.Fatalf("node after bind = %+v", n.Status)
	}
	// Double bind must fail as "the job moved" (no longer pending) —
	// typed, even for an unconditional bind.
	if err := c.BindJob("j1", "dev-a", 0); !IsConflict(err) {
		t.Fatalf("double bind error = %v, want ConflictError", err)
	}
	// A second pending job cannot bind to the busy node, an unregistered
	// one or one that is not Ready: each is the node's refusal, typed so.
	c.SubmitJob(fidelityJob("j2"))
	c.AddNode(testBackend(t, "dev-down"))
	c.Nodes.Update("dev-down", func(n api.Node) (api.Node, error) {
		n.Status.Phase = api.NodeNotReady
		return n, nil
	})
	for _, node := range []string{"dev-a", "dev-ghost", "dev-down"} {
		if err := c.BindJob("j2", node, 0); !IsCapacity(err) || IsConflict(err) {
			t.Fatalf("bind to %s error = %v, want CapacityError", node, err)
		}
	}
	c.ReleaseNode("dev-a", "j1")
	n, _, _ = c.Nodes.Get("dev-a")
	if len(n.Status.RunningJobs) != 0 || n.Status.CPUMillisInUse != 0 {
		t.Fatalf("node after release = %+v", n.Status)
	}
	if err := c.BindJob("j2", "dev-a", 0.5); err != nil {
		t.Fatalf("bind after release failed: %v", err)
	}
}

func TestBindJobMultiSlotNode(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "multi"))
	c.Nodes.Update("multi", func(n api.Node) (api.Node, error) {
		n.Spec.MaxContainers = 2
		return n, nil
	})
	for _, name := range []string{"j1", "j2", "j3"} {
		if _, err := c.SubmitJob(fidelityJob(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BindJob("j1", "multi", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("j2", "multi", 0); err != nil {
		t.Fatalf("second slot rejected: %v", err)
	}
	// Third bind exceeds the slot cap.
	if err := c.BindJob("j3", "multi", 0); !IsCapacity(err) {
		t.Fatalf("bind beyond container capacity: %v, want CapacityError", err)
	}
	n, _, _ := c.Nodes.Get("multi")
	if len(n.Status.RunningJobs) != 2 || !n.Status.HasRunningJob("j1") || !n.Status.HasRunningJob("j2") {
		t.Fatalf("running jobs = %v", n.Status.RunningJobs)
	}
	// Releasing one slot admits the waiting job.
	c.ReleaseNode("multi", "j1")
	if err := c.BindJob("j3", "multi", 0); err != nil {
		t.Fatalf("bind after slot release failed: %v", err)
	}
	n, _, _ = c.Nodes.Get("multi")
	if n.Status.HasRunningJob("j1") || !n.Status.HasRunningJob("j3") {
		t.Fatalf("running jobs after release = %v", n.Status.RunningJobs)
	}
}

func TestBindJobRejectsResourceOvercommit(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "dev"))
	c.Nodes.Update("dev", func(n api.Node) (api.Node, error) {
		n.Spec.MaxContainers = 8
		return n, nil
	})
	n, _, _ := c.Nodes.Get("dev")
	big := fidelityJob("big")
	big.Spec.Resources.CPUMillis = n.Spec.CPUMillis - 100
	if _, err := c.SubmitJob(big); err != nil {
		t.Fatal(err)
	}
	small := fidelityJob("small")
	small.Spec.Resources.CPUMillis = 500
	if _, err := c.SubmitJob(small); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("big", "dev", 0); err != nil {
		t.Fatal(err)
	}
	// Free slots remain, but CPU headroom is gone: bind must refuse.
	if err := c.BindJob("small", "dev", 0); !IsCapacity(err) {
		t.Fatalf("CPU overcommit: %v, want CapacityError", err)
	}
}

func TestEventsAboutSortsByTime(t *testing.T) {
	c := New()
	c.RecordEvent("Job", "j1", "A", "first")
	c.RecordEvent("Job", "j2", "X", "other subject")
	c.RecordEvent("Job", "j1", "B", "second")
	events := c.EventsAbout("j1")
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Reason != "A" || events[1].Reason != "B" {
		t.Fatalf("order wrong: %v %v", events[0].Reason, events[1].Reason)
	}
}

func TestNextUIDUnique(t *testing.T) {
	c := New()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		uid := c.NextUID("x")
		if seen[uid] {
			t.Fatalf("duplicate uid %s", uid)
		}
		seen[uid] = true
	}
}

// --- incremental index coverage -----------------------------------------

// terminalJob builds a job already in a terminal phase — resident history
// the hot paths must never touch.
func terminalJob(name string) api.QuantumJob {
	j := fidelityJob(name)
	j.Status = api.JobStatus{Phase: api.JobSucceeded}
	return j
}

// TestPendingJobsFIFOThroughLifecycle drives the pending index through
// every writer: submit, bind, cancel, and the controller-style direct
// phase flip back to Pending (which reaches the index via the store hook,
// not a state method).
func TestPendingJobsFIFOThroughLifecycle(t *testing.T) {
	c := New()
	if _, err := c.AddNode(testBackend(t, "dev-a")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"j1", "j2", "j3"} {
		if _, err := c.SubmitJob(fidelityJob(name)); err != nil {
			t.Fatal(err)
		}
	}
	names := func() []string {
		var out []string
		for _, j := range c.PendingJobs() {
			out = append(out, j.Name)
		}
		return out
	}
	if got := names(); len(got) != 3 || got[0] != "j1" || got[1] != "j2" || got[2] != "j3" {
		t.Fatalf("initial queue = %v", got)
	}
	if err := c.BindJob("j1", "dev-a", 1.0); err != nil {
		t.Fatal(err)
	}
	if got := names(); len(got) != 2 || got[0] != "j2" {
		t.Fatalf("after bind queue = %v", got)
	}
	if _, err := c.CancelJob("j2"); err != nil {
		t.Fatal(err)
	}
	if got := names(); len(got) != 1 || got[0] != "j3" {
		t.Fatalf("after cancel queue = %v", got)
	}
	// Controller requeue path: a direct store update back to Pending must
	// re-enter the queue in CreatedAt order (j1 is older than j3).
	if _, _, err := c.Jobs.Update("j1", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobPending
		j.Status.Node = ""
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := names(); len(got) != 2 || got[0] != "j1" || got[1] != "j3" {
		t.Fatalf("after requeue queue = %v (FIFO by CreatedAt broken)", got)
	}
	if c.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d", c.PendingCount())
	}
}

// TestPendingJobsCostIndependentOfHistory is the regression guard for the
// scheduler's hot path: listing the pending queue must not allocate
// proportionally to the terminal jobs resident in the store. Before the
// incremental index, this walked (and deep-copied) every job ever
// submitted.
func TestPendingJobsCostIndependentOfHistory(t *testing.T) {
	c := New()
	const history = 5000
	for i := 0; i < history; i++ {
		if _, err := c.Jobs.Create(terminalJob(fmt.Sprintf("done-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const pending = 8
	for i := 0; i < pending; i++ {
		if _, err := c.SubmitJob(fidelityJob(fmt.Sprintf("queued-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := len(c.PendingJobs()); got != pending {
			t.Fatalf("PendingJobs = %d, want %d", got, pending)
		}
	})
	// ~a handful of allocations per pending job; anything within an order
	// of magnitude of the history size means the full scan came back.
	if allocs > 40*pending {
		t.Fatalf("PendingJobs did %.0f allocs for %d pending jobs with %d terminal resident — scaling with history",
			allocs, pending, history)
	}
}

// TestEventsAboutUsesIndex: per-object retrieval, oldest first, unaffected
// by other objects' events, and consistent under event GC deletes.
func TestEventsAboutUsesIndex(t *testing.T) {
	c := New()
	c.RecordEvent("Job", "a", "R1", "first")
	c.RecordEvent("Job", "b", "other", "noise")
	c.RecordEvent("Job", "a", "R2", "second")
	evs := c.EventsAbout("a")
	if len(evs) != 2 || evs[0].Reason != "R1" || evs[1].Reason != "R2" {
		t.Fatalf("EventsAbout(a) = %+v", evs)
	}
	for _, e := range evs {
		if !e.Time.Equal(e.CreatedAt) {
			t.Fatalf("event %s stamped twice: Time %v != CreatedAt %v", e.Name, e.Time, e.CreatedAt)
		}
	}
	// GC path: deleting from the store must drop the index entry too.
	if err := c.Events.Delete(evs[0].Name); err != nil {
		t.Fatal(err)
	}
	evs = c.EventsAbout("a")
	if len(evs) != 1 || evs[0].Reason != "R2" {
		t.Fatalf("EventsAbout(a) after delete = %+v", evs)
	}
	if got := c.EventsAbout("nobody"); len(got) != 0 {
		t.Fatalf("EventsAbout(nobody) = %+v", got)
	}
}

// TestEventIndexRingCap: one chatty object cannot grow its index without
// bound — the oldest entries fall out once EventIndexCap is reached.
func TestEventIndexRingCap(t *testing.T) {
	c := New()
	const extra = 10
	for i := 0; i < EventIndexCap+extra; i++ {
		c.RecordEvent("Job", "chatty", "Tick", fmt.Sprintf("event %d", i))
	}
	evs := c.EventsAbout("chatty")
	if len(evs) != EventIndexCap {
		t.Fatalf("indexed %d events, want cap %d", len(evs), EventIndexCap)
	}
	if want := fmt.Sprintf("event %d", extra); evs[0].Message != want {
		t.Fatalf("oldest retained = %q, want %q (ring did not drop the head)", evs[0].Message, want)
	}
	if want := fmt.Sprintf("event %d", EventIndexCap+extra-1); evs[len(evs)-1].Message != want {
		t.Fatalf("newest retained = %q, want %q", evs[len(evs)-1].Message, want)
	}
}

func tenantFidelityJob(name, tenant string, shots int) api.QuantumJob {
	j := fidelityJob(name)
	j.Spec.Tenant = tenant
	j.Spec.Shots = shots
	j.Spec.Requirements.MinQubits = 2
	return j
}

// TestTenantUsageThroughLifecycle drives the hook-fed tenant usage index
// through submit → bind → terminal/cancel and checks every aggregate at
// each step, including the qubit-second accounting.
func TestTenantUsageThroughLifecycle(t *testing.T) {
	c := New()
	if _, err := c.AddNode(testBackend(t, "dev-a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.SubmitJob(tenantFidelityJob(fmt.Sprintf("a-%d", i), "alice", 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.SubmitJob(tenantFidelityJob("b-0", "bob", 500)); err != nil {
		t.Fatal(err)
	}
	perAliceJob := api.EstimateQubitSeconds(2, 1000)
	u := c.TenantUsage("alice")
	if u.Pending != 3 || u.Active != 0 || u.QubitSeconds != 3*perAliceJob {
		t.Fatalf("alice after submit: %+v", u)
	}
	if u := c.TenantUsage("bob"); u.Pending != 1 || u.QubitSeconds != api.EstimateQubitSeconds(2, 500) {
		t.Fatalf("bob after submit: %+v", u)
	}

	// Bind: pending → active, qubit-seconds unchanged (still in flight).
	if err := c.BindJob("a-0", "dev-a", 1.0); err != nil {
		t.Fatal(err)
	}
	u = c.TenantUsage("alice")
	if u.Pending != 2 || u.Active != 1 || u.QubitSeconds != 3*perAliceJob {
		t.Fatalf("alice after bind: %+v", u)
	}

	// Terminal phase releases everything the job was charged for.
	if _, _, err := c.Jobs.Update("a-0", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobSucceeded
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	u = c.TenantUsage("alice")
	if u.Pending != 2 || u.Active != 0 || u.QubitSeconds != 2*perAliceJob {
		t.Fatalf("alice after terminal: %+v", u)
	}

	// Cancel releases a pending job; deletion releases the other, and an
	// empty tenant vanishes from the listing.
	if _, err := c.CancelJob("a-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Jobs.Delete("a-2"); err != nil {
		t.Fatal(err)
	}
	if u = c.TenantUsage("alice"); u.Pending != 0 || u.Active != 0 || u.QubitSeconds != 0 {
		t.Fatalf("alice after cancel+delete: %+v", u)
	}
	usages := c.TenantUsages()
	if len(usages) != 1 || usages[0].Tenant != "bob" {
		t.Fatalf("TenantUsages = %+v, want only bob", usages)
	}

	// Pre-tenancy jobs (no tenant set anywhere) land on the default tenant.
	if _, err := c.Jobs.Create(api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: "legacy"},
		Spec:       api.JobSpec{QASM: "x", Strategy: api.StrategyFidelity, TargetFidelity: 1},
		Status:     api.JobStatus{Phase: api.JobPending},
	}); err != nil {
		t.Fatal(err)
	}
	if u := c.TenantUsage(""); u.Tenant != api.DefaultTenant || u.Pending != 1 {
		t.Fatalf("default-tenant usage: %+v", u)
	}
}

// TestPendingJobsGlobalFIFOAcrossTenants pins the merge contract: the
// per-tenant sub-queues reassemble into exactly the (CreatedAt, Name)
// global FIFO the pre-tenancy single queue produced.
func TestPendingJobsGlobalFIFOAcrossTenants(t *testing.T) {
	c := New()
	// Alternate tenants on submission; SubmitJob stamps increasing
	// CreatedAt, so global FIFO order is exactly submission order.
	var want []string
	for i := 0; i < 6; i++ {
		tenant := "alice"
		if i%2 == 1 {
			tenant = "bob"
		}
		name := fmt.Sprintf("j-%d", i)
		if _, err := c.SubmitJob(tenantFidelityJob(name, tenant, 1)); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	got := c.PendingJobs()
	if len(got) != len(want) {
		t.Fatalf("PendingJobs = %d jobs, want %d", len(got), len(want))
	}
	for i, j := range got {
		if j.Name != want[i] {
			t.Fatalf("global FIFO broken at %d: got %s, want %s", i, j.Name, want[i])
		}
	}
	if c.PendingCount() != len(want) {
		t.Fatalf("PendingCount = %d", c.PendingCount())
	}
}

// TestPendingJobsCappedPerTenant: the capped snapshot keeps each
// tenant's oldest jobs — never a later job before an earlier one — and
// merges what it keeps in the same global FIFO order PendingJobs uses.
func TestPendingJobsCappedPerTenant(t *testing.T) {
	c := New()
	for i := 0; i < 5; i++ {
		for _, tenant := range []string{"alice", "bob"} {
			name := fmt.Sprintf("%s-%d", tenant, i)
			if _, err := c.SubmitJob(tenantFidelityJob(name, tenant, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := c.PendingJobsCapped(2)
	if len(got) != 4 {
		t.Fatalf("capped snapshot has %d jobs, want 4: %+v", len(got), got)
	}
	want := []string{"alice-0", "bob-0", "alice-1", "bob-1"}
	for i, j := range got {
		if j.Name != want[i] {
			t.Fatalf("capped FIFO broken at %d: got %s, want %s", i, j.Name, want[i])
		}
	}
	// No cap (or a cap above the backlog) must match PendingJobs exactly.
	if full := c.PendingJobsCapped(0); len(full) != 10 {
		t.Fatalf("uncapped snapshot has %d jobs, want 10", len(full))
	}
	if full := c.PendingJobsCapped(100); len(full) != 10 {
		t.Fatalf("over-capped snapshot has %d jobs, want 10", len(full))
	}
}

// TestSubmitJobEnforcesQuota pins the choke-point property: the quota
// policy is enforced by SubmitJob itself, so submission surfaces that
// bypass the gateway (master REST, raw cluster API, visualizer) cannot
// route around admission control.
func TestSubmitJobEnforcesQuota(t *testing.T) {
	c := New()
	c.Quotas = api.TenantQuotaPolicy{Default: api.TenantQuota{MaxPending: 2}}
	for i := 0; i < 2; i++ {
		if _, err := c.SubmitJob(tenantFidelityJob(fmt.Sprintf("ok-%d", i), "alice", 1)); err != nil {
			t.Fatalf("submit %d under quota: %v", i, err)
		}
	}
	_, err := c.SubmitJob(tenantFidelityJob("over", "alice", 1))
	var quotaErr *QuotaExceededError
	if !errors.As(err, &quotaErr) || quotaErr.Limit != "pending" {
		t.Fatalf("over-quota submit: %v", err)
	}
	if status, code := quotaErr.HTTPStatus(); status != 429 || code != "quota_exceeded" {
		t.Fatalf("quota error maps to %d/%s", status, code)
	}
	// Other tenants are unaffected; draining re-admits.
	if _, err := c.SubmitJob(tenantFidelityJob("b-ok", "bob", 1)); err != nil {
		t.Fatalf("bob blocked by alice quota: %v", err)
	}
	if _, err := c.CancelJob("ok-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(tenantFidelityJob("over", "alice", 1)); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestSubmitReleasesTheGateBeforeTheDiskWait: a submission waiting for its
// log records to reach the disk does not hold its tenant's submit gate, so
// a second same-tenant submission is created and returns meanwhile.
func TestSubmitReleasesTheGateBeforeTheDiskWait(t *testing.T) {
	c := New()
	waiting, release := make(chan struct{}), make(chan struct{})
	var syncs atomic.Int32
	c.SetSync(func() {
		if syncs.Add(1) == 1 { // the first submission's wait
			close(waiting)
			<-release
		}
	})
	first := make(chan error, 1)
	go func() { _, err := c.SubmitJob(tenantFidelityJob("first", "alice", 1)); first <- err }()
	<-waiting
	second := make(chan error, 1)
	go func() { _, err := c.SubmitJob(tenantFidelityJob("second", "alice", 1)); second <- err }()
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("second submission: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a same-tenant submission waited behind another one's disk wait")
	}
	if _, _, err := c.Jobs.Get("second"); err != nil {
		t.Fatalf("second job not stored: %v", err)
	}
	select {
	case err := <-first:
		t.Fatalf("first submission returned before its wait ended: %v", err)
	default:
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first submission: %v", err)
	}
}

// scheduledJob submits a job with classical resources and binds it to the
// named node, returning the reserved amounts for accounting assertions.
func scheduledJob(t *testing.T, c *Cluster, name, node string) api.ResourceRequirements {
	t.Helper()
	res := api.ResourceRequirements{CPUMillis: 1000, MemoryMB: 512}
	j := fidelityJob(name)
	j.Spec.Resources = res
	if _, err := c.SubmitJob(j); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob(name, node, 0.5); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReleaseNodeAfterArchival is the accounting-leak regression: a job
// whose release races the retention sweep (terminal, swept to the archive,
// THEN released) must still give back its CPU/memory reservation via the
// archive tier — not just its container slot.
func TestReleaseNodeAfterArchival(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "dev-a"))
	scheduledJob(t, c, "j1", "dev-a")

	// The kubelet finishes the job but crashes before its release; the
	// sweep then moves the terminal job to the archive.
	finished := time.Now().Add(-time.Hour)
	if _, _, err := c.Jobs.Update("j1", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobSucceeded
		j.Status.FinishedAt = &finished
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := c.ArchiveTerminal(time.Now(), RetentionPolicy{MaxTerminalAge: time.Minute}); n != 1 {
		t.Fatalf("archived %d, want 1", n)
	}
	if _, _, err := c.Jobs.Get("j1"); err == nil {
		t.Fatal("j1 still resident after sweep")
	}

	if err := c.ReleaseNode("dev-a", "j1"); err != nil {
		t.Fatal(err)
	}
	n, _, err := c.Nodes.Get("dev-a")
	if err != nil {
		t.Fatal(err)
	}
	if n.Status.CPUMillisInUse != 0 || n.Status.MemoryMBInUse != 0 {
		t.Fatalf("release after archival leaked accounting: %dm CPU, %dMB memory still in use",
			n.Status.CPUMillisInUse, n.Status.MemoryMBInUse)
	}
	if len(n.Status.RunningJobs) != 0 {
		t.Fatalf("slot not released: %v", n.Status.RunningJobs)
	}
}

// TestReleaseNodeSurfacesNodeError: a release racing a node deregistration
// must report the failure instead of vanishing.
func TestReleaseNodeSurfacesNodeError(t *testing.T) {
	c := New()
	if err := c.ReleaseNode("ghost-node", "j1"); err == nil {
		t.Fatal("release against a missing node reported success")
	}
}

// TestCancelLatchesFailedRelease: cancelling a scheduled job whose node
// deregistered mid-flight still cancels the job, and the unreleasable
// reservation is latched as a ReleaseFailed event plus the
// qrio_state_release_failures_total counter.
func TestCancelLatchesFailedRelease(t *testing.T) {
	c := New()
	c.Metrics = NewMetrics(obs.NewRegistry())
	c.AddNode(testBackend(t, "dev-a"))
	scheduledJob(t, c, "j1", "dev-a")
	if err := c.Nodes.Delete("dev-a"); err != nil {
		t.Fatal(err)
	}

	updated, err := c.CancelJob("j1")
	if err != nil {
		t.Fatal(err)
	}
	if updated.Status.Phase != api.JobCancelled {
		t.Fatalf("phase = %s", updated.Status.Phase)
	}
	if got := c.Metrics.ReleaseFailures.Value(); got != 1 {
		t.Fatalf("release failures counter = %d, want 1", got)
	}
	found := false
	for _, ev := range c.EventsAbout("j1") {
		if ev.Reason == "ReleaseFailed" {
			found = true
		}
	}
	if !found {
		t.Fatal("no ReleaseFailed event recorded")
	}
}

// TestBindJobAtConflicts pins the optimistic-concurrency contract: a bind
// at the observed version wins; a bind at a stale version loses with a
// typed ConflictError and leaves no node reservation behind.
func TestBindJobAtConflicts(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "dev-a"))
	c.AddNode(testBackend(t, "dev-b"))
	j := fidelityJob("j1")
	j.Spec.Resources = api.ResourceRequirements{CPUMillis: 1000, MemoryMB: 512}
	if _, err := c.SubmitJob(j); err != nil {
		t.Fatal(err)
	}
	pend := c.PendingJobs()
	if len(pend) != 1 || pend[0].Name != "j1" || pend[0].ResourceVersion <= 0 {
		t.Fatalf("PendingJobs = %+v, want j1 stamped with its resource version", pend)
	}
	v := pend[0].ResourceVersion

	if err := c.BindJobAt("j1", "dev-a", 0.5, v); err != nil {
		t.Fatalf("bind at observed version failed: %v", err)
	}
	// A second binder still holding the pre-bind observation must lose
	// with the typed conflict — and learn on the fast path (the job is no
	// longer pending, but the version check fires first).
	err := c.BindJobAt("j1", "dev-b", 0.5, v)
	if !IsConflict(err) {
		t.Fatalf("stale bind error = %v, want ConflictError", err)
	}
	var conflict ConflictError
	if errors.As(err, &conflict); conflict.Job != "j1" || conflict.Observed != v {
		t.Fatalf("conflict detail = %+v", conflict)
	}
	// The loser must not have reserved anything on its node.
	nb, _, _ := c.Nodes.Get("dev-b")
	if nb.Status.CPUMillisInUse != 0 || len(nb.Status.RunningJobs) != 0 {
		t.Fatalf("losing bind reserved on dev-b: %+v", nb.Status)
	}
	// And the winner's bind stands untouched.
	got, _, _ := c.Jobs.Get("j1")
	if got.Status.Phase != api.JobScheduled || got.Status.Node != "dev-a" {
		t.Fatalf("winner's bind disturbed: %+v", got.Status)
	}
}

// TestBindJobAtExactlyOneWinner races binders placing one job at the same
// observed version toward different nodes: exactly one bind commits, every
// loser sees a typed refusal, and node accounting reflects one reservation.
func TestBindJobAtExactlyOneWinner(t *testing.T) {
	c := New()
	nodes := make([]string, 4)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("dev-%d", i)
		c.AddNode(testBackend(t, nodes[i]))
	}
	j := fidelityJob("j1")
	j.Spec.Resources = api.ResourceRequirements{CPUMillis: 500, MemoryMB: 256}
	if _, err := c.SubmitJob(j); err != nil {
		t.Fatal(err)
	}
	_, v, err := c.Jobs.Get("j1")
	if err != nil {
		t.Fatal(err)
	}

	var wins, conflicts atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := c.BindJobAt("j1", nodes[i%len(nodes)], 0.5, v)
			switch {
			case err == nil:
				wins.Add(1)
			case IsConflict(err), IsCapacity(err):
				// Lost on the job's version — or, for the two racers that
				// share a one-slot node, on the sibling's not-yet-rolled-back
				// reservation. Both are typed losses, neither a double bind.
				conflicts.Add(1)
			default:
				t.Errorf("racing bind got an untyped error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d binds won, want exactly 1 (%d conflicts)", wins.Load(), conflicts.Load())
	}
	// Exactly one node carries the reservation.
	reserved := 0
	for _, name := range nodes {
		n, _, _ := c.Nodes.Get(name)
		if len(n.Status.RunningJobs) > 0 {
			reserved++
		}
	}
	if reserved != 1 {
		t.Fatalf("%d nodes hold reservations, want 1", reserved)
	}
}

// TestNodeCopySurvivesRefresh: api.Node.DeepCopy shares Spec.BackendJSON
// instead of copying it, which is only sound because a calibration refresh
// replaces the bytes wholesale: a copy taken before RefreshNode must still
// decode to the old calibration afterwards.
func TestNodeCopySurvivesRefresh(t *testing.T) {
	c := New()
	if _, err := c.AddNode(testBackend(t, "dev")); err != nil {
		t.Fatal(err)
	}
	before, _, err := c.Nodes.Get("dev")
	if err != nil {
		t.Fatal(err)
	}
	listed := c.Nodes.List()[0]
	recal, err := device.UniformBackend("dev", graph.Line(5), 0.4, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RefreshNode(recal); err != nil {
		t.Fatal(err)
	}
	for what, n := range map[string]api.Node{"Get": before, "List": listed, "DeepCopy": before.DeepCopy()} {
		var b device.Backend
		if err := json.Unmarshal(n.Spec.BackendJSON, &b); err != nil {
			t.Fatalf("%s copy no longer decodes: %v", what, err)
		}
		if got := b.AvgTwoQubitErr(); math.Abs(got-0.1) > 1e-12 {
			t.Fatalf("%s copy taken before the refresh decodes to two-qubit error %v, want the old 0.1", what, got)
		}
	}
	after, err := c.Backend("dev")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.AvgTwoQubitErr(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("refreshed node decodes to %v, want 0.4", got)
	}
}

// TestBackendFollowsDeleteAndReAdd: the decoded-backend cache belongs to the
// node object, not to the name. A vendor who deletes a device and registers
// another under the same name must see the new one executed — and a slot
// reservation, which rewrites the node but not its device, must not cost a
// re-decode.
func TestBackendFollowsDeleteAndReAdd(t *testing.T) {
	c := New()
	line5, err := device.UniformBackend("dev", graph.Line(5), 0.1, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(line5); err != nil {
		t.Fatal(err)
	}
	first, err := c.Backend("dev")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Nodes.Update("dev", func(n api.Node) (api.Node, error) {
		n.Status.RunningJobs = append(n.Status.RunningJobs, "j")
		return n, nil
	}); err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Backend("dev"); again != first {
		t.Fatal("a node update that kept the device dropped its decoded backend")
	}
	if err := c.Nodes.Delete("dev"); err != nil {
		t.Fatal(err)
	}
	if b, err := c.Backend("dev"); err == nil {
		t.Fatalf("deleted node still answers with a %d-qubit backend", b.NumQubits)
	}
	line9, err := device.UniformBackend("dev", graph.Line(9), 0.3, 0.02, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(line9); err != nil {
		t.Fatal(err)
	}
	b, err := c.Backend("dev")
	if err != nil {
		t.Fatal(err)
	}
	if b.NumQubits != 9 || math.Abs(b.AvgTwoQubitErr()-0.3) > 1e-12 {
		t.Fatalf("re-added node answers %d qubits at two-qubit error %v, want the new 9-qubit device at 0.3",
			b.NumQubits, b.AvgTwoQubitErr())
	}
}

// TestIllegalTransitionWritesNothing: an event the lifecycle table has no
// row for — here every event there is, fired at a job that already
// Succeeded while a reservation in its name is still on the node — leaves
// the job's version, its event trail and the node's accounting untouched.
func TestIllegalTransitionWritesNothing(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "dev-a"))
	scheduledJob(t, c, "j1", "dev-a")
	for _, ev := range []api.JobEvent{api.JobEventClaim, api.JobEventSucceed} {
		if _, err := c.TransitionJob("j1", ev, Transition{Node: "dev-a"}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-reserve what succeed released, so a wrongful release would show.
	c.Nodes.Update("dev-a", func(n api.Node) (api.Node, error) {
		n.Status.RunningJobs = []string{"j1"}
		return n, nil
	})
	_, version, _ := c.Jobs.Get("j1")
	events := len(c.EventsAbout("j1"))

	for _, ev := range api.JobEvents {
		_, err := c.TransitionJob("j1", ev, Transition{Node: "dev-a", Message: "must not land"})
		var illegal api.IllegalTransitionError
		if !errors.As(err, &illegal) || illegal.Phase != api.JobSucceeded || illegal.Event != ev {
			t.Fatalf("%s on a Succeeded job: err = %v, want IllegalTransitionError", ev, err)
		}
	}
	if _, v, _ := c.Jobs.Get("j1"); v != version {
		t.Fatalf("illegal transitions moved the job from version %d to %d", version, v)
	}
	if got := len(c.EventsAbout("j1")); got != events {
		t.Fatalf("illegal transitions recorded %d events", got-events)
	}
	if n, _, _ := c.Nodes.Get("dev-a"); !n.Status.HasRunningJob("j1") {
		t.Fatal("illegal transition released the node")
	}
}
