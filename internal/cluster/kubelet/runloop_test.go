package kubelet_test

import (
	"context"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/graph"
	"qrio/internal/master"
	"qrio/internal/registry"
)

// TestRunLoopExecutesAndHeartbeats drives the kubelet through its own Run
// loop (wake + heartbeat, which also heals) rather than SyncOnce. Heartbeats
// must advance the state layer's liveness table and leave the stored node
// alone.
func TestRunLoopExecutesAndHeartbeats(t *testing.T) {
	st := state.New()
	b, err := device.UniformBackend("looper", graph.Line(6), 0.05, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	m := master.NewServer(st, reg)

	k := kubelet.New("looper", st, reg, 5)
	k.Heartbeat = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		k.Run(ctx)
		close(done)
	}()

	before, ok := st.LastHeartbeat("looper")
	if !ok {
		t.Fatal("registered node has no liveness entry")
	}
	if _, err := m.Submit(master.SubmitRequest{
		JobName: "loop-job", QASM: ghzQASM, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.BindJob("loop-job", "looper", 0.1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _, _ := st.Jobs.Get("loop-job")
		if j.Status.Phase.Terminal() {
			if j.Status.Phase != api.JobSucceeded {
				t.Fatalf("phase = %s (%s)", j.Status.Phase, j.Status.Message)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run loop never executed the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Neither the bind nor the finish wrote the node: from here on
	// heartbeats keep arriving but the stored node must not move.
	stored, version, _ := st.Nodes.Get("looper")
	for {
		if after, _ := st.LastHeartbeat("looper"); after.After(before) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat recorded")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // several more beats
	if n, v, _ := st.Nodes.Get("looper"); v != version || !n.Status.LastHeartbeat.Equal(stored.Status.LastHeartbeat) {
		t.Fatalf("heartbeats wrote the stored node: version %d → %d", version, v)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("run loop did not stop on context cancel")
	}
}

// TestHeartbeatRevivesNotReadyNode: a node marked NotReady (e.g. by the
// controller after a hiccup) returns to Ready on its next heartbeat.
func TestHeartbeatRevivesNotReadyNode(t *testing.T) {
	st := state.New()
	b, err := device.UniformBackend("reviver", graph.Line(4), 0.05, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	st.AddNode(b)
	st.Nodes.Update("reviver", func(n api.Node) (api.Node, error) {
		n.Status.Phase = api.NodeNotReady
		return n, nil
	})
	_, notReadyVersion, _ := st.Nodes.Get("reviver")
	k := kubelet.New("reviver", st, registry.New(), 1)
	k.Heartbeat = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { k.Run(ctx); close(done) }()
	for {
		n, _, _ := st.Nodes.Get("reviver")
		if n.Status.Phase == api.NodeReady {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("heartbeat did not revive the node")
		}
		time.Sleep(time.Millisecond)
	}
	// The revival is the one heartbeat that reaches the store; the beats
	// after it go back to the liveness table only.
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done
	n, v, _ := st.Nodes.Get("reviver")
	if v != notReadyVersion+1 {
		t.Fatalf("revival took %d node writes, want 1", v-notReadyVersion)
	}
	if last, _ := st.LastHeartbeat("reviver"); !last.After(n.Status.LastHeartbeat) {
		t.Fatalf("liveness %v did not move past the journaled revival %v", last, n.Status.LastHeartbeat)
	}
}

// TestWakeAloneDrivesTheKubelet turns the heartbeat, and with it the heal
// that rides it, off in all but name — one hour — and checks that the node's wake channel
// is sufficient on its own: a job bound before the agent started runs, a
// second job launches the instant the first frees the node's only slot,
// and a cancel request aborts a Running container.
func TestWakeAloneDrivesTheKubelet(t *testing.T) {
	st := state.New()
	// Stretch the window between the first job's slot release and its
	// container goroutine leaving the kubelet (normally one event write):
	// the token from binding "second" is then certainly spent while the
	// kubelet's own slot still looks taken, and only the wake the kubelet
	// leaves itself on container exit can launch it.
	st.Events.OnEvent(func(ev store.WatchEvent[api.Event]) {
		if ev.Object.About == "first" && ev.Object.Reason == "Succeeded" {
			time.Sleep(50 * time.Millisecond)
		}
	})
	b, err := device.UniformBackend("solo", graph.Line(6), 0.05, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	m := master.NewServer(st, reg)
	for _, name := range []string{"first", "second"} {
		if _, err := m.Submit(master.SubmitRequest{
			JobName: name, QASM: ghzQASM, Shots: 16,
			Strategy: api.StrategyFidelity, TargetFidelity: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.BindJob("first", "solo", 0.1); err != nil {
		t.Fatal(err)
	}

	k := kubelet.New("solo", st, reg, 1)
	k.Heartbeat = time.Hour
	started := make(chan string, 2) // one send per job in this test
	finish := make(chan struct{})
	k.Runtime = func(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error) {
		started <- j.Name
		select {
		case <-finish:
			return []string{"done"}, nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { k.Run(ctx); close(done) }()

	await := func(want string) {
		t.Helper()
		select {
		case got := <-started:
			if got != want {
				t.Fatalf("started %s, want %s", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never started: the wake path alone did not launch it", want)
		}
	}
	await("first") // bound before Run: the start-up reconcile

	// The slot is taken, so the bind keeps being refused; the moment the
	// release lands it succeeds — while the first container's goroutine is
	// still finishing up inside the kubelet.
	finish <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for st.BindJob("second", "solo", 0.1) != nil {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed")
		}
	}
	await("second")

	if _, err := st.CancelJob("second"); err != nil {
		t.Fatal(err)
	}
	for {
		j, _, _ := st.Jobs.Get("second")
		if j.Status.Phase == api.JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel request never reached the container: phase %s", j.Status.Phase)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}
