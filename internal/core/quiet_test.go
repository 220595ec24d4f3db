package core_test

import (
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/master"
	"qrio/internal/obs"
)

// TestIdleControlPlaneWritesNothing runs a durable deployment with its
// real kubelets, controller and scheduler and no jobs: a second of idling
// must append nothing to the WAL and emit no node watch event, while the
// heartbeats keep every node's liveness moving. Then one job goes through,
// to show the quiet daemon is awake.
func TestIdleControlPlaneWritesNothing(t *testing.T) {
	var fleet []*device.Backend
	for _, name := range []string{"q1", "q2", "q3", "q4"} {
		b, err := device.UniformBackend(name, graph.Line(6), 0.02, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	q, err := core.New(core.Config{
		Backends:   fleet,
		Durability: durability.Options{Dir: t.TempDir(), Fsync: true, SnapshotInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for _, k := range q.Kubelets {
		k.Heartbeat = 10 * time.Millisecond // ~100 beats per node in the window
	}
	nodeEvents, _, cancel, _ := q.State.Nodes.Watch(nil, 64)
	defer cancel()
	q.Start()

	seeded := make(map[string]time.Time)
	for _, b := range fleet {
		seeded[b.Name], _ = q.State.LastHeartbeat(b.Name)
	}
	before := q.Durability.Stats()
	time.Sleep(time.Second)
	after := q.Durability.Stats()

	if d := after.WALRecords - before.WALRecords; d != 0 {
		t.Fatalf("idle daemon appended %d WAL records (%d bytes) in 1s",
			d, after.WALBytes-before.WALBytes)
	}
	select {
	case ev := <-nodeEvents:
		t.Fatalf("idle daemon emitted a node watch event: %s %s", ev.Type, ev.Object.Name)
	default:
	}
	for name, was := range seeded {
		if last, ok := q.State.LastHeartbeat(name); !ok || !last.After(was) {
			t.Fatalf("node %s liveness did not move while idling (%v → %v)", name, was, last)
		}
	}

	if _, _, err := q.SubmitAndWait(master.SubmitRequest{
		JobName: "after-the-quiet", QASM: "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
		Shots: 32, Strategy: api.StrategyFidelity, TargetFidelity: 1,
	}, 20*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestJobLifecycleFsyncBudget holds the group-commit saving in place: on a
// quiet durable deployment with fsync on, one job's whole life — submit,
// bind, claim, finish — still journals its 9 records, but waits for the
// disk once per stage: at most 5 fsyncs (4 when nothing else is writing;
// one per record before the log was shared), read from the commit
// histograms an operator would read.
func TestJobLifecycleFsyncBudget(t *testing.T) {
	b, err := device.UniformBackend("q1", graph.Line(6), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	q, err := core.New(core.Config{
		Backends:   []*device.Backend{b},
		Metrics:    reg,
		Durability: durability.Options{Dir: t.TempDir(), Fsync: true, SnapshotInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.Start()
	commits := func() (fsyncs, records, waits float64) {
		t.Helper()
		q.State.Sync() // in-process observers run up to one fsync ahead of the disk
		fams := reg.Gather()
		for _, s := range obs.FindFamily(fams, "qrio_durability_commit_records").Samples {
			switch s.Name {
			case "qrio_durability_commit_records_count":
				fsyncs = s.Value
			case "qrio_durability_commit_records_sum":
				records = s.Value
			}
		}
		for _, s := range obs.FindFamily(fams, "qrio_durability_commit_wait_seconds").Samples {
			if s.Name == "qrio_durability_commit_wait_seconds_count" {
				waits = s.Value
			}
		}
		return fsyncs, records, waits
	}
	f0, r0, w0 := commits()
	if _, _, err := q.SubmitAndWait(master.SubmitRequest{
		JobName: "budgeted", QASM: "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
		Shots: 32, Strategy: api.StrategyFidelity, TargetFidelity: 1,
	}, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// The terminal watch event is out before the finishing transition has
	// written its event: let that land before the barrier.
	written := func() float64 {
		return obs.FindFamily(reg.Gather(), "qrio_durability_wal_appends_total").Samples[0].Value
	}
	for deadline := time.Now().Add(5 * time.Second); written() < r0+9 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	f1, r1, w1 := commits()
	if r1-r0 != 9 {
		t.Fatalf("one job journaled %v records, want 9", r1-r0)
	}
	if n := f1 - f0; n < 1 || n > 5 {
		t.Fatalf("one job cost %v fsyncs, want at most 5", n)
	}
	if w1-w0 < f1-f0 {
		t.Fatalf("%v fsyncs but only %v waits observed: every fsync is run by a waiter", f1-f0, w1-w0)
	}
	t.Logf("one job: %v records, %v fsyncs, %v waits", r1-r0, f1-f0, w1-w0)
}

// TestIdleControllerSleeps starts a deployment on a healthy fleet and
// counts the controller's passes over 3 s: with no job failing, no node
// joining, leaving or changing phase and every heartbeat expiry further
// off than the backstop, it passes once at start and then once per
// backstop second — not once per poll.
func TestIdleControllerSleeps(t *testing.T) {
	var fleet []*device.Backend
	for _, name := range []string{"q1", "q2", "q3", "q4"} {
		b, err := device.UniformBackend(name, graph.Line(6), 0.02, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	reg := obs.NewRegistry()
	q, err := core.New(core.Config{Backends: fleet, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	passes := reg.Counter("qrio_controller_passes_total", "", "cause")
	q.Start()
	time.Sleep(3 * time.Second)
	q.Stop()
	total := uint64(0)
	for _, cause := range []string{"start", "wake", "deadline", "backstop"} {
		total += passes.With(cause).Value()
	}
	if total > 4 || passes.With("start").Value() != 1 {
		t.Fatalf("controller made %d passes in 3 s idle (start %d, wake %d, deadline %d, backstop %d), want at most 4, one at start",
			total, passes.With("start").Value(), passes.With("wake").Value(), passes.With("deadline").Value(), passes.With("backstop").Value())
	}
}
