package core_test

import (
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

// TestNodeFailureRequeuesJob kills the chosen node right after binding and
// verifies the controller requeues the job onto the surviving device —
// the self-healing property §3.1 claims from Kubernetes.
func TestNodeFailureRequeuesJob(t *testing.T) {
	mk := func(name string, e2 float64) *device.Backend {
		b, err := device.UniformBackend(name, graph.Line(10), e2, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// The clean device will win the first scheduling round.
	clean := mk("doomed", 0.02)
	backup := mk("backup", 0.05)
	q, err := core.New(core.Config{Backends: []*device.Backend{clean, backup}})
	if err != nil {
		t.Fatal(err)
	}
	// Shorten controller timings so the test runs fast; do NOT start the
	// orchestrator's loops — drive each control loop by hand for
	// determinism.
	q.Controller.StuckTimeout = 10 * time.Millisecond
	q.Controller.NodeTimeout = time.Hour // heartbeats are manual here

	src, err := qasm.Dump(workload.GHZ(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(master.SubmitRequest{
		JobName: "resilient", QASM: src, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}); err != nil {
		t.Fatal(err)
	}

	// Round 1: scheduler binds to the clean device.
	if bound := q.Scheduler.SchedulePass(); bound != 1 {
		t.Fatalf("bound %d jobs, want 1", bound)
	}
	j, _, _ := q.State.Jobs.Get("resilient")
	if j.Status.Node != "doomed" {
		t.Fatalf("expected the clean device to win, got %s", j.Status.Node)
	}

	// The node dies before its kubelet picks the job up.
	q.State.Nodes.Update("doomed", func(n api.Node) (api.Node, error) {
		n.Status.Phase = api.NodeNotReady
		return n, nil
	})
	time.Sleep(20 * time.Millisecond) // pass the stuck-grace period
	q.Controller.ReconcileOnce()

	j, _, _ = q.State.Jobs.Get("resilient")
	if j.Status.Phase != api.JobPending {
		t.Fatalf("job not requeued: %s", j.Status.Phase)
	}

	// Round 2: only the backup is schedulable now.
	if bound := q.Scheduler.SchedulePass(); bound != 1 {
		t.Fatal("rescheduling failed")
	}
	j, _, _ = q.State.Jobs.Get("resilient")
	if j.Status.Node != "backup" {
		t.Fatalf("rescheduled to %s, want backup", j.Status.Node)
	}

	// The backup kubelet executes it to completion.
	for _, k := range q.Kubelets {
		if k.NodeName == "backup" {
			if ran := k.SyncOnce(); !ran {
				t.Fatal("backup kubelet did not run the job")
			}
		}
	}
	j, _, _ = q.State.Jobs.Get("resilient")
	if j.Status.Phase != api.JobSucceeded {
		t.Fatalf("final phase = %s (%s)", j.Status.Phase, j.Status.Message)
	}
	if j.Status.Attempts != 1 {
		t.Fatalf("attempts = %d", j.Status.Attempts)
	}
}

// TestConcurrentSchedulingExtension exercises the §5 future-work mode: with
// Concurrency > 1, queued jobs fan out across free nodes in one pass and
// all complete.
func TestConcurrentSchedulingExtension(t *testing.T) {
	var fleet []*device.Backend
	for _, name := range []string{"n1", "n2", "n3"} {
		b, err := device.UniformBackend(name, graph.Line(8), 0.05, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	q, err := core.New(core.Config{Backends: fleet, Concurrency: 3})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()

	src, err := qasm.Dump(workload.GHZ(3))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"c1", "c2", "c3"}
	for _, name := range names {
		if _, err := q.Submit(master.SubmitRequest{
			JobName: name, QASM: src, Shots: 64,
			Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	nodesUsed := map[string]bool{}
	for _, name := range names {
		j, err := q.WaitForJob(name, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status.Phase != api.JobSucceeded {
			t.Fatalf("%s phase = %s", name, j.Status.Phase)
		}
		nodesUsed[j.Status.Node] = true
	}
	// With three free nodes and concurrency 3, the jobs must have spread
	// over more than one node.
	if len(nodesUsed) < 2 {
		t.Fatalf("concurrent jobs all serialised onto %v", nodesUsed)
	}
}

// TestFailedJobRetriesOnAnotherAttempt forces an execution failure (image
// vanishes) and verifies the retry path converges to Failed after the
// budget is spent.
func TestFailedJobRetryBudget(t *testing.T) {
	b, err := device.UniformBackend("solo", graph.Line(6), 0.05, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(core.Config{Backends: []*device.Backend{b}})
	if err != nil {
		t.Fatal(err)
	}
	q.Controller.MaxRetries = 1
	src, err := qasm.Dump(workload.GHZ(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(master.SubmitRequest{
		JobName: "flaky", QASM: src,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	// Sabotage: point the job at a nonexistent image.
	q.State.Jobs.Update("flaky", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Spec.Image = "ghost:latest"
		return j, nil
	})
	// Drive the loops manually: schedule, fail, retry, fail, stay failed.
	for round := 0; round < 3; round++ {
		q.Scheduler.SchedulePass()
		for _, k := range q.Kubelets {
			k.SyncOnce()
		}
		q.Controller.ReconcileOnce()
	}
	j, _, _ := q.State.Jobs.Get("flaky")
	if j.Status.Phase != api.JobFailed {
		t.Fatalf("phase = %s, want Failed after budget", j.Status.Phase)
	}
	if j.Status.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (one retry)", j.Status.Attempts)
	}
}
