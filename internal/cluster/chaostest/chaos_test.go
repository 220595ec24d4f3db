// Package chaostest drives the full job lifecycle — submit, bind, run,
// finish, cancel, node death, controller requeue/retry, retention sweep —
// concurrently against one cluster state, then asserts the invariants the
// archive tier must never break:
//
//   - no job is ever lost between the hot store and the archive,
//   - the pending index never references an archived key,
//   - tenant usage returns to zero once the dust settles,
//   - node slot/resource accounting returns to zero.
//
// It runs under -race via `make race` (the cluster tree is in RACE_PKGS),
// which is the point: every actor is a separate goroutine hammering the
// same store shards, hooks and indexes.
package chaostest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/controller"
	"qrio/internal/cluster/state"
	"qrio/internal/device"
	"qrio/internal/graph"
)

const qasmSrc = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"

func job(name, tenant string) api.QuantumJob {
	return api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.JobSpec{
			Tenant: tenant, QASM: qasmSrc,
			Strategy: api.StrategyFidelity, TargetFidelity: 1,
		},
	}
}

// harness owns the cluster and the shared bookkeeping.
type harness struct {
	t         *testing.T
	st        *state.Cluster
	ctl       *controller.Controller
	policy    state.RetentionPolicy
	nodes     []string
	submitted sync.Map // name → struct{}
	count     atomic.Int64
	stop      chan struct{}
	wg        sync.WaitGroup
}

func newHarness(t *testing.T) *harness {
	st := state.New()
	h := &harness{
		t:      t,
		st:     st,
		policy: state.RetentionPolicy{MaxTerminalCount: 40},
		stop:   make(chan struct{}),
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("dev-%d", i)
		b, err := device.UniformBackend(name, graph.Ring(8), 0.05, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddNode(b); err != nil {
			t.Fatal(err)
		}
		st.Nodes.Update(name, func(n api.Node) (api.Node, error) {
			n.Spec.MaxContainers = 3
			return n, nil
		})
		h.nodes = append(h.nodes, name)
	}
	h.ctl = controller.New(st)
	h.ctl.Retention = h.policy
	h.ctl.NodeTimeout = 50 * time.Millisecond
	h.ctl.StuckTimeout = 10 * time.Millisecond
	h.ctl.MaxRetries = 1
	return h
}

// loop runs fn until the harness stops.
func (h *harness) loop(fn func(r *rand.Rand)) {
	h.wg.Add(1)
	seed := h.count.Add(1)
	go func() {
		defer h.wg.Done()
		r := rand.New(rand.NewSource(seed * 7919))
		for {
			select {
			case <-h.stop:
				return
			default:
				fn(r)
			}
		}
	}()
}

// submitter admits jobs for one tenant.
func (h *harness) submitter(tenant string, total int) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for i := 0; i < total; i++ {
			name := fmt.Sprintf("%s-%04d", tenant, i)
			if _, err := h.st.SubmitJob(job(name, tenant)); err != nil {
				h.t.Errorf("submit %s: %v", name, err)
				return
			}
			h.submitted.Store(name, struct{}{})
			if i%8 == 7 {
				time.Sleep(time.Millisecond) // let the fleet breathe
			}
		}
	}()
}

// binder plays the scheduler: pending jobs onto random ready nodes.
func (h *harness) binder(r *rand.Rand) {
	for _, j := range h.st.PendingJobs() {
		node := h.nodes[r.Intn(len(h.nodes))]
		_ = h.st.BindJob(j.Name, node, 1.0) // capacity races are the node's problem
	}
	time.Sleep(time.Millisecond)
}

// executor plays the kubelets: claim Scheduled jobs, run them, finish
// them (mostly success, some failures), honour cancel requests.
func (h *harness) executor(r *rand.Rand) {
	scheduled := h.st.Jobs.ListFunc(func(j api.QuantumJob) bool {
		return j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning
	})
	for _, j := range scheduled {
		name := j.Name
		if j.Status.Phase == api.JobScheduled {
			h.st.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
				if j.Status.Phase != api.JobScheduled {
					return j, fmt.Errorf("claimed elsewhere")
				}
				j.Status.Phase = api.JobRunning
				now := time.Now()
				j.Status.StartedAt = &now
				return j, nil
			})
			continue // finish on a later pass, giving cancels a window
		}
		fail := r.Intn(10) == 0
		h.st.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
			if j.Status.Phase != api.JobRunning {
				return j, fmt.Errorf("not running")
			}
			now := time.Now()
			j.Status.FinishedAt = &now
			j.Status.Node = ""
			switch {
			case j.Status.CancelRequested:
				j.Status.Phase = api.JobCancelled
			case fail:
				j.Status.Phase = api.JobFailed
				j.Status.Attempts++
			default:
				j.Status.Phase = api.JobSucceeded
			}
			return j, nil
		})
	}
	time.Sleep(time.Millisecond)
}

// canceller fires cancels at random submitted jobs; typed conflicts and
// not-founds are the expected outcome for most of them.
func (h *harness) canceller(r *rand.Rand) {
	var names []string
	h.submitted.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return len(names) < 64
	})
	if len(names) == 0 {
		time.Sleep(time.Millisecond)
		return
	}
	h.st.CancelJob(names[r.Intn(len(names))])
	time.Sleep(time.Millisecond)
}

// nodeKiller flaps a random node NotReady and back, exercising the
// controller's requeue path against archival.
func (h *harness) nodeKiller(r *rand.Rand) {
	node := h.nodes[r.Intn(len(h.nodes))]
	h.st.Nodes.Update(node, func(n api.Node) (api.Node, error) {
		n.Status.Phase = api.NodeNotReady
		return n, nil
	})
	time.Sleep(5 * time.Millisecond)
	h.st.Heartbeat(node, time.Now()) // what its kubelet does: revives it
	time.Sleep(5 * time.Millisecond)
}

// reconciler runs the controller (requeue, retry, archive sweep, GC).
func (h *harness) reconciler(*rand.Rand) {
	h.ctl.ReconcileOnce()
	time.Sleep(time.Millisecond)
}

// invariantChecker continuously cross-checks the pending index against
// the archive while everything churns.
func (h *harness) invariantChecker(*rand.Rand) {
	for _, j := range h.st.PendingJobs() {
		if h.st.Archived.Has(j.Name) {
			h.t.Errorf("pending index references archived key %s", j.Name)
		}
	}
	time.Sleep(time.Millisecond)
}

// TestLifecycleChaos is the harness entry point: N jobs across two
// tenants through every lifecycle path at once, with an aggressive
// retention policy sweeping terminal jobs out from under the actors.
func TestLifecycleChaos(t *testing.T) {
	h := newHarness(t)
	perTenant := 150
	if testing.Short() {
		perTenant = 40
	}
	h.submitter("alice", perTenant)
	h.submitter("bob", perTenant)
	h.loop(h.binder)
	h.loop(h.binder)
	h.loop(h.executor)
	h.loop(h.executor)
	h.loop(h.canceller)
	h.loop(h.nodeKiller)
	h.loop(h.reconciler)
	h.loop(h.invariantChecker)

	// Quiesce: every submitted job must end up terminal — resident or
	// archived — within the deadline.
	deadline := time.Now().Add(60 * time.Second)
	for {
		settled := true
		h.submitted.Range(func(k, _ any) bool {
			name := k.(string)
			if h.st.Archived.Has(name) {
				return true
			}
			j, _, err := h.st.Jobs.Get(name)
			if err != nil || !j.Status.Phase.Terminal() {
				settled = false
				return false
			}
			return true
		})
		done := int64(0)
		h.submitted.Range(func(_, _ any) bool { done++; return true })
		if settled && done == int64(2*perTenant) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not quiesce: jobs stuck non-terminal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(h.stop)
	h.wg.Wait()

	// Final sweep so the resident/archived split is stable, then audit.
	h.st.ArchiveTerminal(time.Now(), h.policy)

	// Invariant: no job lost — and none duplicated — between the tiers.
	total := 0
	h.submitted.Range(func(k, _ any) bool {
		total++
		name := k.(string)
		_, _, hotErr := h.st.Jobs.Get(name)
		inHot := hotErr == nil
		inArchive := h.st.Archived.Has(name)
		switch {
		case !inHot && !inArchive:
			t.Errorf("job %s lost: in neither tier", name)
		case inHot && inArchive:
			t.Errorf("job %s duplicated: in both tiers after quiesce", name)
		}
		return true
	})
	if total != 2*perTenant {
		t.Fatalf("bookkeeping lost submissions: %d of %d", total, 2*perTenant)
	}
	if resident := h.st.TerminalCount(); resident > h.policy.MaxTerminalCount {
		t.Errorf("retention violated: %d terminal jobs resident (cap %d)", resident, h.policy.MaxTerminalCount)
	}

	// Invariant: usage drains to zero for every tenant.
	for _, u := range h.st.TenantUsages() {
		t.Errorf("tenant %s usage not zero after quiesce: %+v", u.Tenant, u)
	}
	if n := h.st.PendingCount(); n != 0 {
		t.Errorf("pending count %d after quiesce", n)
	}

	// Invariant: node accounting fully released.
	for _, name := range h.nodes {
		n, _, err := h.st.Nodes.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if n = h.st.LiveNode(n); len(n.Status.RunningJobs) != 0 || n.Status.CPUMillisInUse != 0 || n.Status.MemoryMBInUse != 0 {
			t.Errorf("node %s accounting leaked: %+v", name, n.Status)
		}
	}
}
