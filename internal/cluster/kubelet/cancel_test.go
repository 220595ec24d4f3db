package kubelet_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/fidelity"
	"qrio/internal/obs"
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
		n, _, _ := st.Nodes.Get("node-a")
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
	n, _, _ := st.Nodes.Get("node-a")
	if len(n.Status.RunningJobs) != 0 {
		t.Fatalf("slot not freed: %v", n.Status.RunningJobs)
	}
}
