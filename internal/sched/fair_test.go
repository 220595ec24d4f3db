package sched

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// tenantJob creates a pending job owned by a tenant with a controlled
// creation sequence number (FIFO position), bypassing SubmitJob so tests
// fully control arrival order.
func tenantJob(t *testing.T, st *state.Cluster, name, tenant string, seq int, base time.Time) {
	t.Helper()
	j := api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: name, CreatedAt: base.Add(time.Duration(seq) * time.Millisecond)},
		Spec: api.JobSpec{
			Tenant:         tenant,
			QASM:           "OPENQASM 2.0;\nqreg q[2];\nh q[0];",
			Strategy:       api.StrategyFidelity,
			TargetFidelity: 1,
		},
		Status: api.JobStatus{Phase: api.JobPending},
	}
	if _, err := st.Jobs.Create(j); err != nil {
		t.Fatal(err)
	}
}

// driveBindSequence runs scheduling passes against a single one-slot node
// until total jobs have been bound, retiring each bound job immediately so
// the slot frees for the next pass. The returned slice is the exact bind
// order — the observable the fairness contract is stated over.
func driveBindSequence(t *testing.T, st *state.Cluster, s *Scheduler, total int) []string {
	t.Helper()
	var seq []string
	for len(seq) < total {
		if n := s.SchedulePass(); n != 1 {
			t.Fatalf("pass bound %d jobs after %v (want 1 per pass on the one-slot node)", n, seq)
		}
		bound := st.Jobs.ListFunc(func(j api.QuantumJob) bool { return j.Status.Phase == api.JobScheduled })
		if len(bound) != 1 {
			t.Fatalf("%d jobs in Scheduled after a pass", len(bound))
		}
		j := bound[0]
		seq = append(seq, j.Name)
		if _, _, err := st.Jobs.Update(j.Name, func(j api.QuantumJob) (api.QuantumJob, error) {
			j.Status.Phase = api.JobSucceeded
			return j, nil
		}); err != nil {
			t.Fatal(err)
		}
		st.ReleaseNode(j.Status.Node, j.Name)
	}
	return seq
}

func fairTestScheduler(t *testing.T, st *state.Cluster) *Scheduler {
	t.Helper()
	s := New(st, NewFramework(nil, DefaultFilters()...))
	s.Concurrency = 4
	return s
}

// TestFairShareTwoTenantsTenToOne is the headline fairness contract: two
// tenants with equal weights submit at a 10:1 rate, yet while both are
// backlogged each receives ~50% of the binds. The flood tenant cannot
// starve the trickle tenant.
func TestFairShareTwoTenantsTenToOne(t *testing.T) {
	st := state.New()
	node(t, st, "dev", 4, 0.1)
	base := time.Now()
	// Arrival pattern: ten alice jobs, then one bob job, repeated — the
	// 10:1 submission rate, all backlogged before scheduling starts.
	seq := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			tenantJob(t, st, fmt.Sprintf("alice-%d-%d", round, i), "alice", seq, base)
			seq++
		}
		tenantJob(t, st, fmt.Sprintf("bob-%d", round), "bob", seq, base)
		seq++
	}
	s := fairTestScheduler(t, st)

	// While bob still has backlog (5 jobs), binds alternate: the first 10
	// binds split 50/50 despite the 10:1 queue contents.
	binds := driveBindSequence(t, st, s, 10)
	bob := 0
	for _, name := range binds {
		if name[:3] == "bob" {
			bob++
		}
	}
	if bob < 4 || bob > 6 { // ~50% ±10%
		t.Fatalf("bob got %d of the first 10 binds, want ~5 (sequence %v)", bob, binds)
	}
	// Within each tenant, order stayed FIFO.
	assertSubsequenceFIFO(t, binds, "alice-0-0", "alice-0-1", "alice-0-2")
	assertSubsequenceFIFO(t, binds, "bob-0", "bob-1", "bob-2")
}

// TestFairShareWeights checks the weighted split: weight 3 vs 1 yields a
// 3:1 bind share while both tenants are backlogged.
func TestFairShareWeights(t *testing.T) {
	st := state.New()
	node(t, st, "dev", 4, 0.1)
	base := time.Now()
	for i := 0; i < 12; i++ {
		tenantJob(t, st, fmt.Sprintf("heavy-%02d", i), "heavy", i*2, base)
		tenantJob(t, st, fmt.Sprintf("light-%02d", i), "light", i*2+1, base)
	}
	s := fairTestScheduler(t, st)
	s.TenantWeights = map[string]int{"heavy": 3, "light": 1}

	binds := driveBindSequence(t, st, s, 12)
	heavy := 0
	for _, name := range binds {
		if name[:5] == "heavy" {
			heavy++
		}
	}
	if heavy != 9 {
		t.Fatalf("heavy got %d of 12 binds, want 9 (3:1 weights; sequence %v)", heavy, binds)
	}
}

// TestSingleTenantBatchedKeepsFIFO pins the paper-faithful degenerate
// case: with one tenant, the batched scheduler binds in the exact global
// FIFO order the pre-tenancy scheduler used.
func TestSingleTenantBatchedKeepsFIFO(t *testing.T) {
	st := state.New()
	node(t, st, "dev", 4, 0.1)
	base := time.Now()
	want := make([]string, 8)
	for i := range want {
		want[i] = fmt.Sprintf("solo-%02d", i)
		tenantJob(t, st, want[i], "solo", i, base)
	}
	s := fairTestScheduler(t, st)
	binds := driveBindSequence(t, st, s, len(want))
	for i := range want {
		if binds[i] != want[i] {
			t.Fatalf("bind order %v, want FIFO %v", binds, want)
		}
	}
}

// TestWeightsApplyAtDefaultBudget: Concurrency == 1 drains the same
// weighted fair queue as any other budget — the heavily weighted drip
// tenant is served ahead of the flood that arrived before it, and each
// tenant stays FIFO.
func TestWeightsApplyAtDefaultBudget(t *testing.T) {
	st := state.New()
	node(t, st, "dev", 4, 0.1)
	base := time.Now()
	var flood, drip []string
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("flood-%d-%d", round, i)
			tenantJob(t, st, name, "flood", len(flood)+len(drip), base)
			flood = append(flood, name)
		}
		name := fmt.Sprintf("drip-%d", round)
		tenantJob(t, st, name, "drip", len(flood)+len(drip), base)
		drip = append(drip, name)
	}
	s := New(st, NewFramework(nil, DefaultFilters()...))
	s.Concurrency = 1
	s.TenantWeights = map[string]int{"drip": 100}
	want := append(drip, flood...)
	binds := driveBindSequence(t, st, s, len(want))
	if !reflect.DeepEqual(binds, want) {
		t.Fatalf("bind order %v, want weighted %v", binds, want)
	}
}

// TestFairOrderSmoothInterleave unit-tests the SWRR sequence shape: with
// weights 3:1 the heavy tenant never takes more than three consecutive
// slots (the "smooth" property nginx WRR is chosen for).
func TestFairOrderSmoothInterleave(t *testing.T) {
	st := state.New()
	base := time.Now()
	for i := 0; i < 8; i++ {
		tenantJob(t, st, fmt.Sprintf("a-%02d", i), "tenant-a", i*2, base)
		tenantJob(t, st, fmt.Sprintf("b-%02d", i), "tenant-b", i*2+1, base)
	}
	s := New(st, nil)
	s.TenantWeights = map[string]int{"tenant-a": 3, "tenant-b": 1}
	order := s.fairOrder(st.PendingJobs())
	if len(order) != 16 {
		t.Fatalf("fairOrder returned %d jobs, want 16", len(order))
	}
	run := 0
	for _, j := range order {
		if j.Spec.Tenant == "tenant-a" {
			run++
			if run > 3 {
				t.Fatalf("tenant-a took %d consecutive slots with weight 3: %v", run, names(order))
			}
		} else {
			run = 0
		}
	}
}

func names(jobs []api.QuantumJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Name
	}
	return out
}

// assertSubsequenceFIFO checks the given names appear in order within seq.
func assertSubsequenceFIFO(t *testing.T, seq []string, want ...string) {
	t.Helper()
	i := 0
	for _, name := range seq {
		if i < len(want) && name == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("sequence %v does not contain %v in FIFO order", seq, want)
	}
}

// TestDispatchRespectsMaxActiveQuota: the scheduler enforces the
// MaxActive bound at dispatch time — a burst admitted while the tenant
// was idle binds at most MaxActive jobs, and capacity frees up binds
// one-for-one as active jobs finish.
func TestDispatchRespectsMaxActiveQuota(t *testing.T) {
	st := state.New()
	for i := 0; i < 4; i++ {
		node(t, st, fmt.Sprintf("dev-%d", i), 4, 0.1)
	}
	base := time.Now()
	for i := 0; i < 4; i++ {
		tenantJob(t, st, fmt.Sprintf("burst-%d", i), "capped", i, base)
	}
	s := New(st, NewFramework(nil, DefaultFilters()...))
	s.Concurrency = 4
	s.TenantQuotas = api.TenantQuotaPolicy{
		Tenants: map[string]api.TenantQuota{"capped": {MaxActive: 2}},
	}

	if n := s.SchedulePass(); n != 2 {
		t.Fatalf("first pass bound %d jobs, want 2 (MaxActive)", n)
	}
	// At the cap: nothing more binds even with free nodes and backlog.
	if n := s.SchedulePass(); n != 0 {
		t.Fatalf("pass at the active cap bound %d jobs, want 0", n)
	}
	if u := st.TenantUsage("capped"); u.Active != 2 || u.Pending != 2 {
		t.Fatalf("usage at cap: %+v", u)
	}
	// Finish one active job: exactly one slot of budget returns.
	done := st.Jobs.ListFunc(func(j api.QuantumJob) bool { return j.Status.Phase == api.JobScheduled })[0]
	if _, _, err := st.Jobs.Update(done.Name, func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobSucceeded
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	st.ReleaseNode(done.Status.Node, done.Name)
	if n := s.SchedulePass(); n != 1 {
		t.Fatalf("pass after one finish bound %d jobs, want 1", n)
	}
}
