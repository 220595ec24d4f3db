package core_test

import (
	"strings"
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

// TestAddBackendAtRuntime registers a new vendor device on a live
// orchestrator (the vendor-dashboard path) and verifies jobs can land on
// it immediately — and that removing the device and registering another
// under its name leaves the node with the one kubelet it already had,
// executing on the new device.
func TestAddBackendAtRuntime(t *testing.T) {
	seedDev, err := device.UniformBackend("seed", graph.Line(4), 0.5, 0.1, 0.1, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(core.Config{Backends: []*device.Backend{seedDev}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()

	// The new device is much cleaner and larger: the next fidelity job
	// must pick it.
	fresh, err := device.UniformBackend("fresh", graph.Ring(10), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AddBackend(fresh); err != nil {
		t.Fatal(err)
	}
	if err := q.AddBackend(fresh); err == nil {
		t.Fatal("duplicate AddBackend accepted")
	}

	src, err := qasm.Dump(workload.GHZ(4))
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := q.SubmitAndWait(master.SubmitRequest{
		JobName: "on-fresh", QASM: src, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Phase != api.JobSucceeded {
		t.Fatalf("phase = %s (%s)", job.Status.Phase, job.Status.Message)
	}
	if job.Status.Node != "fresh" {
		t.Fatalf("scheduled on %s, want the runtime-added clean device", job.Status.Node)
	}

	// DELETE /v1/nodes/fresh, then POST /v1/nodes with the same name and a
	// new device behind it.
	if err := q.State.Nodes.Delete("fresh"); err != nil {
		t.Fatal(err)
	}
	fresh, err = device.UniformBackend("fresh", graph.Ring(12), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AddBackend(fresh); err != nil {
		t.Fatal(err)
	}
	agents := make(map[string]int)
	for _, k := range q.Kubelets {
		agents[k.NodeName]++
	}
	if agents["fresh"] != 1 || agents["seed"] != 1 || len(q.Kubelets) != 2 {
		t.Fatalf("kubelets per node after delete and re-add = %v, want one each", agents)
	}
	job, res, err := q.SubmitAndWait(master.SubmitRequest{
		JobName: "on-fresh-again", QASM: src, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Phase != api.JobSucceeded || job.Status.Node != "fresh" || job.Status.Attempts != 1 {
		t.Fatalf("job on the re-added node: %s on %s after %d attempt(s) (%s)",
			job.Status.Phase, job.Status.Node, job.Status.Attempts, job.Status.Message)
	}
	// The kubelet executed on the device registered now, not on the decoded
	// copy of the one the name used to carry.
	if logs := strings.Join(res.LogLines, "\n"); !strings.Contains(logs, "backend fresh: 12 qubits") {
		t.Fatalf("job on the re-added node ran on a stale device:\n%s", logs)
	}
}

// TestWaitForJobTimeout returns the in-flight job with an error.
func TestWaitForJobTimeout(t *testing.T) {
	dev, err := device.UniformBackend("only", graph.Line(4), 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(core.Config{Backends: []*device.Backend{dev}})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the job can never progress.
	src, _ := qasm.Dump(workload.GHZ(3))
	if _, err := q.Submit(master.SubmitRequest{
		JobName: "stuck", QASM: src,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	job, err := q.WaitForJob("stuck", 50*time.Millisecond)
	if err == nil {
		t.Fatal("timeout not reported")
	}
	if job.Status.Phase != api.JobPending {
		t.Fatalf("phase = %s", job.Status.Phase)
	}
	if _, err := q.WaitForJob("ghost", 10*time.Millisecond); err == nil {
		t.Fatal("missing job not reported")
	}
}

// TestStopIsIdempotent double-stops and restarts safely.
func TestStartStopIdempotent(t *testing.T) {
	dev, err := device.UniformBackend("x", graph.Line(3), 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(core.Config{Backends: []*device.Backend{dev}})
	if err != nil {
		t.Fatal(err)
	}
	q.Stop() // stop before start: no-op
	q.Start()
	q.Start() // double start: no-op
	q.Stop()
	q.Stop() // double stop: no-op
	q.Start()
	q.Stop()
}
