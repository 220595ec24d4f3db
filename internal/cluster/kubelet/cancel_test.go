package kubelet_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/cluster/state"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/graph"
	"qrio/internal/master"
	"qrio/internal/obs"
	"qrio/internal/registry"
)

// TestCancelRunningJobAbortsAndFreesSlot drives the running-job
// cancellation path end to end at the kubelet layer: a container that
// would run forever is aborted via its context, the job lands in the
// terminal Cancelled phase, and the node slot frees for the next job.
func TestCancelRunningJobAbortsAndFreesSlot(t *testing.T) {
	k, st := setup(t, 0.02)
	metrics := obs.NewRegistry()
	k.Metrics = kubelet.NewMetrics(metrics)
	started := make(chan struct{})
	aborted := make(chan struct{})
	k.Runtime = func(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error) {
		close(started)
		<-ctx.Done() // a conforming runtime honours the abort
		close(aborted)
		return nil, nil, ctx.Err()
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan struct{})
	go func() { k.Run(ctx); close(done) }()

	select {
	case <-started: // claim happened before the runtime was invoked
	case <-time.After(5 * time.Second):
		t.Fatal("kubelet never started the bound job")
	}
	j, _, _ := st.Jobs.Get("ghz")
	if j.Status.Phase != api.JobRunning {
		t.Fatalf("phase at runtime start = %s", j.Status.Phase)
	}

	if _, err := st.CancelJob("ghz"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _, _ = st.Jobs.Get("ghz")
		n := liveNode(st, "node-a")
		if j.Status.Phase == api.JobCancelled && len(n.Status.RunningJobs) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never landed: phase=%s node=%v", j.Status.Phase, n.Status.RunningJobs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case <-aborted: // the container's context really was cancelled
	case <-time.After(5 * time.Second):
		t.Fatal("runtime context never cancelled")
	}
	if !strings.Contains(j.Status.Message, "cancelled by user") {
		t.Fatalf("unhelpful message: %q", j.Status.Message)
	}
	res, _, err := st.Results.Get("ghz")
	if err != nil || len(res.LogLines) == 0 {
		t.Fatalf("cancelled job has no result log: %v", err)
	}
	if n := runsObserved(t, metrics, "cancelled"); n != 1 {
		t.Fatalf("cancelled runs observed = %v, want 1", n)
	}
	stop()
	<-done
}

// TestCancelScheduledJobBeatsKubelet cancels a job while it is bound but
// before any kubelet claims it: the kubelet must not resurrect it.
func TestCancelScheduledJobBeatsKubelet(t *testing.T) {
	k, st := setup(t, 0.02)
	if _, err := st.CancelJob("ghz"); err != nil {
		t.Fatal(err)
	}
	if ran := k.SyncOnce(); ran {
		t.Fatal("kubelet executed a cancelled job")
	}
	j, _, _ := st.Jobs.Get("ghz")
	if j.Status.Phase != api.JobCancelled {
		t.Fatalf("phase = %s", j.Status.Phase)
	}
	n := liveNode(st, "node-a")
	if len(n.Status.RunningJobs) != 0 {
		t.Fatalf("slot not freed: %v", n.Status.RunningJobs)
	}
}

// TestCancelStopsDenseSimulation: cancelling a running job on the built-in
// runtime stops its simulation, not only its record. A 16-qubit GHZ at
// 400,000 shots simulates for minutes; once the cancel lands, the
// container goroutine must return within 2 s (the dense engine checks the
// container context between shot blocks).
func TestCancelStopsDenseSimulation(t *testing.T) {
	st := state.New()
	b, err := device.UniformBackend("node-a", graph.Line(16), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
	src := "OPENQASM 2.0;\nqreg q[16];\ncreg c[16];\nh q[0];\n"
	for q := 1; q < 16; q++ {
		src += fmt.Sprintf("cx q[%d],q[%d];\n", q-1, q)
	}
	src += "measure q -> c;\n"
	reg := registry.New()
	if _, err := master.NewServer(st, reg).Submit(master.SubmitRequest{
		JobName: "ghz16", QASM: src, Shots: 400000,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.BindJob("ghz16", "node-a", 0.1); err != nil {
		t.Fatal(err)
	}
	k := kubelet.New("node-a", st, reg, 3)
	started, exited := make(chan struct{}), make(chan error, 1)
	k.Runtime = func(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error) {
		close(started)
		logs, ex, err := k.BuiltinRuntime(ctx, j)
		exited <- err
		return logs, ex, err
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go k.Run(ctx)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("kubelet never started the bound job")
	}
	time.Sleep(300 * time.Millisecond) // well into the shots
	if _, err := st.CancelJob("ghz16"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if j, _, _ := st.Jobs.Get("ghz16"); j.Status.Phase == api.JobCancelled {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("cancel never landed: phase %s", j.Status.Phase)
		}
	}
	select {
	case err := <-exited:
		if err != context.Canceled {
			t.Fatalf("runtime returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the simulation kept running 2 s after the cancel")
	}
}
