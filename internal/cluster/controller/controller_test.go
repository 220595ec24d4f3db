package controller

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/obs"
)

// fakeClock is a controllable time source.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }

func setup(t *testing.T) (*Controller, *state.Cluster, *fakeClock) {
	t.Helper()
	st := state.New()
	b, err := device.UniformBackend("n1", graph.Line(4), 0.1, 0.01, 0.05, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
	// Start at real time: object CreatedAt stamps come from the wall clock,
	// and the grace-period arithmetic compares the two.
	clk := &fakeClock{now: time.Now()}
	c := New(st)
	c.Clock = clk
	return c, st, clk
}

func submit(t *testing.T, st *state.Cluster, name string) {
	t.Helper()
	_, err := st.SubmitJob(api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.JobSpec{
			QASM:     "OPENQASM 2.0;\nqreg q[1];\nh q[0];",
			Strategy: api.StrategyFidelity, TargetFidelity: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// setNodePhase journals a phase for n1 behind the controller's back.
func setNodePhase(st *state.Cluster, phase api.NodePhase) {
	st.Nodes.Update("n1", func(n api.Node) (api.Node, error) {
		n.Status.Phase = phase
		return n, nil
	})
}

// TestStaleNodeMarkedNotReady: liveness is read from the volatile table,
// and only the transitions reach the store — a silent node costs exactly
// one journaled NotReady and one HeartbeatLost event however many passes
// see it, and the heartbeat that ends the silence exactly one journaled
// Ready.
func TestStaleNodeMarkedNotReady(t *testing.T) {
	c, st, clk := setup(t)
	nodeEvents, _, cancel, _ := st.Nodes.Watch(nil, 16)
	defer cancel()
	journaled := func() (phases []api.NodePhase) {
		for {
			select {
			case ev, ok := <-nodeEvents:
				if !ok {
					t.Fatal("node watch closed: the test fell behind its buffer")
				}
				phases = append(phases, ev.Object.Status.Phase)
			default:
				return phases
			}
		}
	}
	lost := func() (n int) {
		for _, e := range st.EventsAbout("n1") {
			if e.Reason == "HeartbeatLost" {
				n++
			}
		}
		return n
	}

	lastBeat := clk.Now()
	st.Heartbeat("n1", lastBeat)
	c.ReconcileOnce()
	if got := journaled(); len(got) != 0 {
		t.Fatalf("fresh node wrote the store: %v", got)
	}

	clk.Advance(10 * time.Second)
	c.ReconcileOnce()
	c.ReconcileOnce()
	c.ReconcileOnce()
	if got := journaled(); len(got) != 1 || got[0] != api.NodeNotReady {
		t.Fatalf("stale node journaled %v, want exactly one NotReady", got)
	}
	if got := lost(); got != 1 {
		t.Fatalf("HeartbeatLost events = %d, want 1", got)
	}
	if n, _, _ := st.Nodes.Get("n1"); !n.Status.LastHeartbeat.Equal(lastBeat) {
		t.Fatalf("NotReady record says last heard %v, want %v", n.Status.LastHeartbeat, lastBeat)
	}

	st.Heartbeat("n1", clk.Now())
	st.Heartbeat("n1", clk.Now())
	c.ReconcileOnce()
	if got := journaled(); len(got) != 1 || got[0] != api.NodeReady {
		t.Fatalf("revival journaled %v, want exactly one Ready", got)
	}
	if got := lost(); got != 1 {
		t.Fatalf("HeartbeatLost events after revival = %d, want 1", got)
	}
}

// TestRestartedControllerGivesNodesOneTimeoutOfGrace: a node whose only
// liveness is its registration (nothing has beaten since boot) is treated
// as alive as of that moment — Ready for one NodeTimeout, NotReady after.
func TestRestartedControllerGivesNodesOneTimeoutOfGrace(t *testing.T) {
	c, st, clk := setup(t)
	clk.Advance(c.NodeTimeout / 2)
	c.ReconcileOnce()
	if n, _, _ := st.Nodes.Get("n1"); n.Status.Phase != api.NodeReady {
		t.Fatal("node marked NotReady inside its grace period")
	}
	clk.Advance(c.NodeTimeout)
	c.ReconcileOnce()
	if n, _, _ := st.Nodes.Get("n1"); n.Status.Phase != api.NodeNotReady {
		t.Fatal("silent node still Ready after the grace period")
	}
}

func TestStrandedJobRequeued(t *testing.T) {
	c, st, clk := setup(t)
	submit(t, st, "j1")
	if err := st.BindJob("j1", "n1", 0.1); err != nil {
		t.Fatal(err)
	}
	// Node dies.
	setNodePhase(st, api.NodeNotReady)
	// Inside the grace period nothing happens.
	c.ReconcileOnce()
	j, _, _ := st.Jobs.Get("j1")
	if j.Status.Phase != api.JobScheduled {
		t.Fatalf("requeued inside grace period: %s", j.Status.Phase)
	}
	clk.Advance(time.Minute)
	c.ReconcileOnce()
	j, _, _ = st.Jobs.Get("j1")
	if j.Status.Phase != api.JobPending || j.Status.Node != "" {
		t.Fatalf("stranded job not requeued: %+v", j.Status)
	}
	// Node resources released.
	n, _, _ := st.Nodes.Get("n1")
	if n = st.LiveNode(n); len(n.Status.RunningJobs) != 0 {
		t.Fatalf("node still holds job: %+v", n.Status)
	}

	// A job stranded while Running comes back with no stamps either: a
	// kept StartedAt would be read as the next strand's grace reference.
	setNodePhase(st, api.NodeReady)
	if err := st.BindJob("j1", "n1", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.TransitionJob("j1", api.JobEventClaim, state.Transition{Node: "n1"}); err != nil {
		t.Fatal(err)
	}
	setNodePhase(st, api.NodeNotReady)
	clk.Advance(time.Minute)
	c.ReconcileOnce()
	j, _, _ = st.Jobs.Get("j1")
	if j.Status.Phase != api.JobPending || j.Status.Node != "" || j.Status.StartedAt != nil || j.Status.FinishedAt != nil {
		t.Fatalf("running job requeued with leftovers: %+v", j.Status)
	}
}

func TestStrandedJobOnDeletedNode(t *testing.T) {
	c, st, clk := setup(t)
	submit(t, st, "j1")
	st.BindJob("j1", "n1", 0)
	st.Nodes.Delete("n1")
	clk.Advance(time.Minute)
	c.ReconcileOnce()
	j, _, _ := st.Jobs.Get("j1")
	if j.Status.Phase != api.JobPending {
		t.Fatalf("job on deleted node not requeued: %s", j.Status.Phase)
	}
}

func TestFailedJobRetriesUpToBudget(t *testing.T) {
	c, st, _ := setup(t)
	c.MaxRetries = 2
	submit(t, st, "j1")
	fail := func(attempts int) {
		st.Jobs.Update("j1", func(j api.QuantumJob) (api.QuantumJob, error) {
			at := time.Now()
			j.Status.Phase = api.JobFailed
			j.Status.Attempts = attempts
			j.Status.Node, j.Status.StartedAt, j.Status.FinishedAt = "n1", &at, &at
			return j, nil
		})
	}
	fail(1)
	c.ReconcileOnce()
	j, _, _ := st.Jobs.Get("j1")
	if j.Status.Phase != api.JobPending {
		t.Fatalf("first failure not retried: %s", j.Status.Phase)
	}
	if j.Status.Node != "" || j.Status.StartedAt != nil || j.Status.FinishedAt != nil {
		t.Fatalf("retried job is pending with leftovers: %+v", j.Status)
	}
	fail(2)
	c.ReconcileOnce()
	j, _, _ = st.Jobs.Get("j1")
	if j.Status.Phase != api.JobPending {
		t.Fatalf("second failure not retried: %s", j.Status.Phase)
	}
	fail(3) // exceeds budget of 2 retries
	c.ReconcileOnce()
	j, _, _ = st.Jobs.Get("j1")
	if j.Status.Phase != api.JobFailed {
		t.Fatalf("retry budget ignored: %s", j.Status.Phase)
	}
}

// TestStaleSnapshotChangesNothing hands each per-job rule a listing that
// the store has moved past — a kubelet finished the job between the
// controller's list and its write. The rule must lose quietly: no event,
// no job write, and the reservation on the (present but NotReady) node
// still counted.
func TestStaleSnapshotChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale api.JobPhase
		fire  func(c *Controller, j api.QuantumJob, now time.Time)
	}{
		{"requeue", api.JobRunning, func(c *Controller, j api.QuantumJob, now time.Time) { c.requeueIfStranded(j, now) }},
		{"retry", api.JobFailed, func(c *Controller, j api.QuantumJob, _ time.Time) { c.retry(j) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, st, clk := setup(t)
			submit(t, st, "j1")
			if err := st.BindJob("j1", "n1", 0.1); err != nil {
				t.Fatal(err)
			}
			if _, err := st.TransitionJob("j1", api.JobEventClaim, state.Transition{Node: "n1"}); err != nil {
				t.Fatal(err)
			}
			snapshot, _, _ := st.Jobs.Get("j1")
			snapshot.Status.Phase = tc.stale
			// The store moves on: the job succeeds, then its node goes
			// NotReady.
			st.Jobs.Update("j1", func(j api.QuantumJob) (api.QuantumJob, error) {
				j.Status.Phase = api.JobSucceeded
				return j, nil
			})
			setNodePhase(st, api.NodeNotReady)
			_, version, _ := st.Jobs.Get("j1")
			_, nodeVersion, _ := st.Nodes.Get("n1")
			events := len(st.EventsAbout("j1"))
			clk.Advance(time.Minute)

			tc.fire(c, snapshot, clk.Now())

			if j, v, _ := st.Jobs.Get("j1"); v != version || j.Status.Phase != api.JobSucceeded {
				t.Fatalf("lost race still wrote the job: version %d → %d, phase %s", version, v, j.Status.Phase)
			}
			if got := st.EventsAbout("j1"); len(got) != events {
				t.Fatalf("lost race recorded %q", got[len(got)-1].Reason)
			}
			if _, v, _ := st.Nodes.Get("n1"); v != nodeVersion {
				t.Fatalf("lost race wrote the node: version %d → %d", nodeVersion, v)
			}
		})
	}
}

// TestRunActsAtDeadlines runs the controller's own loop on the wall clock
// over a node that never beats: it is marked NotReady at its heartbeat
// expiry, and its stranded job is requeued at the job's grace end, each
// within the slack — though no job or node event announces either
// deadline, and the backstop alone would be late by most of a second.
func TestRunActsAtDeadlines(t *testing.T) {
	const timeout, stuck, slack = 300 * time.Millisecond, 600 * time.Millisecond, 150 * time.Millisecond
	c, st, _ := setup(t)
	c.Clock = nil // the wall clock, which the loop's timer runs on
	c.NodeTimeout, c.StuckTimeout = timeout, stuck
	reg := obs.NewRegistry()
	c.Metrics = NewMetrics(reg)
	submit(t, st, "j1")
	if err := st.BindJob("j1", "n1", 0.1); err != nil {
		t.Fatal(err)
	}
	stamp := func(ch chan time.Time) {
		select {
		case ch <- time.Now():
		default:
		}
	}
	notReady, requeued := make(chan time.Time, 1), make(chan time.Time, 1)
	st.Nodes.OnEvent(func(ev store.WatchEvent[api.Node]) {
		if ev.Object.Status.Phase == api.NodeNotReady {
			stamp(notReady)
		}
	})
	st.Jobs.OnEvent(func(ev store.WatchEvent[api.QuantumJob]) {
		if ev.Object.Status.Phase == api.JobPending {
			stamp(requeued)
		}
	})
	last, _ := st.LastHeartbeat("n1")
	j, _, _ := st.Jobs.Get("j1")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { c.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	within := func(what string, ch chan time.Time, due time.Time) {
		t.Helper()
		select {
		case at := <-ch:
			if at.Before(due) || at.After(due.Add(slack)) {
				t.Fatalf("%s at %v past its deadline, want within [0, %v]", what, at.Sub(due), slack)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never happened", what)
		}
	}
	within("NotReady", notReady, last.Add(timeout))
	within("requeue", requeued, j.CreatedAt.Add(stuck))

	actions := reg.Counter("qrio_controller_actions_total", "", "rule")
	if s, r := actions.With("stale").Value(), actions.With("requeue").Value(); s != 1 || r != 1 {
		t.Fatalf("actions stale=%d requeue=%d, want 1 and 1", s, r)
	}
	if d := reg.Counter("qrio_controller_passes_total", "", "cause").With("deadline").Value(); d < 2 {
		t.Fatalf("%d deadline passes, want one per deadline at least", d)
	}
}

func TestHealthyClusterUntouched(t *testing.T) {
	c, st, clk := setup(t)
	st.Heartbeat("n1", clk.Now())
	submit(t, st, "j1")
	st.BindJob("j1", "n1", 0)
	c.ReconcileOnce()
	j, _, _ := st.Jobs.Get("j1")
	if j.Status.Phase != api.JobScheduled {
		t.Fatalf("healthy scheduled job disturbed: %s", j.Status.Phase)
	}
}

func TestEventGC(t *testing.T) {
	c, st, _ := setup(t)
	c.MaxEvents = 10
	for i := 0; i < 25; i++ {
		st.RecordEvent("Job", fmt.Sprintf("j%d", i), "Test", "spam")
	}
	c.ReconcileOnce()
	if got := st.Events.Len(); got > 10+1 { // +1 slack for AddNode's event
		t.Fatalf("events not trimmed: %d", got)
	}
}

// TestEventGCDropsExactlyTheOldest: a log at cap + 3 loses exactly its three
// oldest events by timestamp, whatever order they were recorded in, and
// among equal timestamps (a virtual clock) the lowest sequence goes first.
func TestEventGCDropsExactlyTheOldest(t *testing.T) {
	const cap = 8
	// offsets[i] is the i-th recorded event's time; the three earliest are
	// e3, e6 and e9, not the three recorded first.
	offsets := []int{5, 7, 4, 0, 9, 8, 1, 10, 6, 2, 3}
	for _, tc := range []struct {
		name    string
		tick    time.Duration
		dropped []string
	}{
		{"distinct times", time.Second, []string{"e3", "e6", "e9"}},
		{"one clock tick", 0, []string{"e0", "e1", "e2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := state.New()
			base := time.Unix(1_700_000_000, 0)
			clk := &fakeClock{now: base}
			st.Clock = clk
			c := New(st)
			c.Clock = clk
			c.MaxEvents = cap
			for i, off := range offsets {
				clk.now = base.Add(time.Duration(off) * tc.tick)
				st.RecordEvent("Job", fmt.Sprintf("e%d", i), "Test", "spam")
			}
			c.gcEvents()
			kept := map[string]bool{}
			for _, e := range st.Events.List() {
				kept[e.About] = true
			}
			if len(kept) != cap {
				t.Fatalf("%d events kept, want %d", len(kept), cap)
			}
			for _, about := range tc.dropped {
				if kept[about] {
					t.Errorf("%s kept; want %v dropped", about, tc.dropped)
				}
			}
		})
	}
}
