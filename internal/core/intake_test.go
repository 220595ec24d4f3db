package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/core"
	"qrio/internal/httpx"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
	"qrio/internal/sched"
	"qrio/internal/workload"
)

func ghzRequest(t *testing.T, name string, qubits int, target float64) master.SubmitRequest {
	t.Helper()
	src, err := qasm.Dump(workload.GHZ(qubits))
	if err != nil {
		t.Fatal(err)
	}
	return master.SubmitRequest{
		JobName: name, QASM: src, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: target,
	}
}

// TestIntakeRefusesAtEveryGate: an embedded submission meets the gates an
// HTTP one does. A draining orchestrator, a tenant over its rate, a job no
// node can hold and a tenant over its quota are each refused with their
// typed error, and none of them stores a job or writes Meta metadata.
func TestIntakeRefusesAtEveryGate(t *testing.T) {
	for _, gate := range []struct {
		name string
		cfg  core.Config
		shut func(t *testing.T, q *core.QRIO) // closes the gate
		req  func(t *testing.T) master.SubmitRequest
		want any // a pointer to the typed error
	}{
		{
			name: "draining",
			shut: func(_ *testing.T, q *core.QRIO) { q.BeginDrain() },
			want: new(*core.DrainingError),
		},
		{
			name: "over-rate",
			cfg: core.Config{TenantRateLimits: api.TenantRateLimitPolicy{
				Default: api.TenantRateLimit{SubmitPerSecond: 1e-6, Burst: 1},
			}},
			shut: spendOne,
			want: new(*core.RateLimitedError),
		},
		{
			name: "unschedulable",
			req: func(t *testing.T) master.SubmitRequest {
				return ghzRequest(t, "refused", 13, 1) // the fleet's devices hold 12
			},
			want: new(*sched.UnschedulableError),
		},
		{
			name: "over-quota",
			cfg: core.Config{TenantQuotas: api.TenantQuotaPolicy{
				Default: api.TenantQuota{MaxPending: 1},
			}},
			shut: spendOne,
			want: new(*state.QuotaExceededError),
		},
	} {
		t.Run(gate.name, func(t *testing.T) {
			q := testClusterWith(t, gate.cfg)
			if gate.shut != nil {
				gate.shut(t, q)
			}
			stored := q.State.Jobs.Len()
			req := ghzRequest(t, "refused", 3, 1)
			if gate.req != nil {
				req = gate.req(t)
			}
			_, err := q.Submit(req)
			if !errors.As(err, gate.want) {
				t.Fatalf("Submit answered %v (%T), want %T", err, err, gate.want)
			}
			if _, _, err := q.SubmitAndWait(req, 0); !errors.As(err, gate.want) {
				t.Fatalf("SubmitAndWait answered %v, want %T", err, gate.want)
			}
			if n := q.State.Jobs.Len(); n != stored {
				t.Fatalf("a refused submission stored a job (%d -> %d)", stored, n)
			}
			if _, err := q.Meta.JobMeta("refused"); err == nil {
				t.Fatal("a refused submission wrote Meta metadata")
			}
		})
	}
}

// spendOne submits one job, which spends a one-token bucket or fills a
// one-job quota.
func spendOne(t *testing.T, q *core.QRIO) {
	t.Helper()
	if _, err := q.Submit(ghzRequest(t, "first", 3, 1)); err != nil {
		t.Fatal(err)
	}
}

// testClusterWith is testCluster's three devices under cfg's policies, not
// started: submitted jobs stay Pending.
func testClusterWith(t *testing.T, cfg core.Config) *core.QRIO {
	t.Helper()
	cfg.Backends = testFleet(t)
	q, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// metaMatchesStored fails unless the Meta Server holds, for the job, the
// strategy metadata of the spec the store holds.
func metaMatchesStored(t *testing.T, q *core.QRIO, name string) {
	t.Helper()
	j, _, err := q.State.Jobs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := q.Meta.JobMeta(name)
	if err != nil {
		t.Fatal(err)
	}
	if m.TargetFidelity != j.Spec.TargetFidelity || m.CircuitQASM != j.Spec.QASM {
		t.Fatalf("Meta ranks %s with target %v and another circuit (%t), the store holds target %v",
			name, m.TargetFidelity, m.CircuitQASM != j.Spec.QASM, j.Spec.TargetFidelity)
	}
}

// TestDuplicateNameLeavesMetaAlone: a second submission under a pending
// job's name is refused with 409, and the Meta Server still ranks the job
// with its own circuit and target, not the refused one's.
func TestDuplicateNameLeavesMetaAlone(t *testing.T) {
	q := testClusterWith(t, core.Config{})
	if _, err := q.Submit(ghzRequest(t, "dup", 3, 0.9)); err != nil {
		t.Fatal(err)
	}
	_, err := q.Submit(ghzRequest(t, "dup", 4, 0.2))
	if status, _ := httpx.StatusOf(err); status != 409 {
		t.Fatalf("duplicate name answered %v (status %d), want 409", err, status)
	}
	metaMatchesStored(t, q, "dup")
}

// TestRacingNamesLeaveMetaWithTheStoredSpec: goroutines racing one new
// name with different circuits and targets store one job, and the Meta
// Server holds that job's spec.
func TestRacingNamesLeaveMetaWithTheStoredSpec(t *testing.T) {
	q := testClusterWith(t, core.Config{})
	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := range racers {
		req := ghzRequest(t, "raced", 2+i%4, 0.1*float64(i+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = q.Submit(req)
		}()
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		if err == nil {
			won++
		} else if status, _ := httpx.StatusOf(err); status != 409 {
			t.Fatalf("a losing racer answered %v, want 409", err)
		}
	}
	if won != 1 {
		t.Fatalf("%d racers stored the job, want 1", won)
	}
	metaMatchesStored(t, q, "raced")
}

// TestClaimReleasesOnRefusal: a submission refused after it claimed its
// name (here by the Meta Server, on a topology that does not parse) gives
// the name back.
func TestClaimReleasesOnRefusal(t *testing.T) {
	q := testClusterWith(t, core.Config{})
	bad := ghzRequest(t, "retry", 3, 1)
	bad.TopologyQASM, bad.Strategy = "not qasm", api.StrategyTopology
	if _, err := q.Submit(bad); err == nil {
		t.Fatal("a topology that does not parse was accepted")
	}
	if _, err := q.Submit(ghzRequest(t, "retry", 3, 1)); err != nil {
		t.Fatalf("the name stayed claimed after a refusal: %v", err)
	}
}

// TestQuotaRefusalTakesBackMeta: submissions racing for the last slots of
// a MaxPending quota can all pass the intake's ungated pre-check, and
// state.SubmitJob's exact gate then refuses all but three. A refused
// submission leaves no Meta metadata: Meta holds exactly the stored jobs.
func TestQuotaRefusalTakesBackMeta(t *testing.T) {
	q := testClusterWith(t, core.Config{TenantQuotas: api.TenantQuotaPolicy{
		Default: api.TenantQuota{MaxPending: 3},
	}})
	const racers = 12
	var wg sync.WaitGroup
	for i := range racers {
		req := ghzRequest(t, fmt.Sprintf("quota-%d", i), 3, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Submit(req)
		}()
	}
	wg.Wait()
	stored, held := 0, 0
	for i := range racers {
		name := fmt.Sprintf("quota-%d", i)
		_, _, getErr := q.State.Jobs.Get(name)
		_, metaErr := q.Meta.JobMeta(name)
		if (getErr == nil) != (metaErr == nil) {
			t.Errorf("%s: stored %t, Meta metadata %t", name, getErr == nil, metaErr == nil)
		}
		if getErr == nil {
			stored++
		}
		if metaErr == nil {
			held++
		}
	}
	if stored != 3 || held != 3 {
		t.Fatalf("%d jobs stored and %d held by Meta, want 3 and 3", stored, held)
	}
}
