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
	nodeEvents, cancel := q.State.Nodes.Watch(64)
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
