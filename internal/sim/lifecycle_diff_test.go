package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/cluster/store"
	"qrio/internal/fidelity"
	"qrio/internal/registry"
	"qrio/internal/simload"
)

// outcome is how a claimed container ends.
type outcome int

const (
	succeeds outcome = iota
	fails
	aborted // its user cancelled it while it ran
)

// executor is the part of the cluster the simulator replaces: whoever
// claims a bound job and later lands its terminal phase.
type executor interface {
	claim(t *testing.T)
	finish(job string, how outcome)
}

// world is one engine — the real cluster, controller and virtual clock
// over a one-node fleet — plus the executor under test and the job's
// recorded phase/attempts trail.
type world struct {
	e    *Engine
	exec executor

	mu    sync.Mutex
	trail []string
}

func newWorld(t *testing.T, live bool) *world {
	t.Helper()
	e, err := New(Config{
		Fleet:   []FleetClass{{Name: "n", Count: 1, Qubits: 5, Slots: 1, TwoQErr: 0.01}},
		Profile: simload.Profile{Duration: simload.Duration(time.Second)},
	}, simload.TraceSource(strings.NewReader("")))
	if err != nil {
		t.Fatal(err)
	}
	w := &world{e: e}
	e.st.Jobs.OnEvent(func(ev store.WatchEvent[api.QuantumJob]) {
		w.mu.Lock()
		w.trail = append(w.trail, fmt.Sprintf("%s/%d", ev.Object.Status.Phase, ev.Object.Status.Attempts))
		w.mu.Unlock()
	})
	w.exec = simExecutor{e}
	if live {
		w.exec = newLiveExecutor(e)
	}
	return w
}

// simExecutor is the engine's own kubelet model.
type simExecutor struct{ e *Engine }

func (s simExecutor) claim(*testing.T) { s.e.processBinds() }

func (s simExecutor) finish(job string, how outcome) {
	s.e.jobs[job].fail = how == fails
	s.e.finish(job)
}

// liveExecutor is a real kubelet whose container runtime is a stub that
// runs until the test says how it ends.
type liveExecutor struct {
	k       *kubelet.Kubelet
	started chan struct{}
	result  chan error
	synced  chan struct{}
}

func newLiveExecutor(e *Engine) *liveExecutor {
	l := &liveExecutor{started: make(chan struct{}), result: make(chan error), synced: make(chan struct{})}
	l.k = kubelet.New("n-0000", e.st, registry.New(), 1)
	l.k.Clock = e.clk
	l.k.Runtime = func(ctx context.Context, _ api.QuantumJob) ([]string, *fidelity.Execution, error) {
		l.started <- struct{}{}
		select {
		case err := <-l.result:
			return nil, nil, err
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return l
}

func (l *liveExecutor) claim(t *testing.T) {
	go func() { l.k.SyncOnce(); l.synced <- struct{}{} }()
	select {
	case <-l.started: // the runtime is invoked only after the claim landed
	case <-time.After(5 * time.Second):
		t.Fatal("kubelet never claimed the bound job")
	}
}

func (l *liveExecutor) finish(_ string, how outcome) {
	switch how {
	case succeeds:
		l.result <- nil
	case fails:
		l.result <- errors.New("stub runtime: injected failure")
	case aborted:
		l.k.SyncOnce() // the reconcile a cancel request wakes: reap, then wait
	}
	<-l.synced
}

// TestSimAndLiveAgreeOnTheLifecycle drives the same event sequences
// through a real kubelet and through the simulator's kubelet model, on
// the same cluster shape, and requires identical phase/attempts trails —
// both executors write through the one lifecycle table, so a move that is
// legal (or stamped, or counted) on one side is on the other.
func TestSimAndLiveAgreeOnTheLifecycle(t *testing.T) {
	const job, node = "sim-0000000", "n-0000"
	submit := func(w *world) { w.e.submit(simload.Arrival{Tenant: "alice", Family: "ghz"}) }
	bind := func(w *world) {
		if err := w.e.st.BindJob(job, node, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	claim := func(w *world) { w.exec.claim(t) }
	finish := func(how outcome) func(*world) { return func(w *world) { w.exec.finish(job, how) } }
	retry := func(w *world) { w.e.ctl.ReconcileOnce() }
	cancel := func(w *world) {
		if _, err := w.e.st.CancelJob(job); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name  string
		steps []func(*world)
		want  []string
	}{
		{
			"fail, retry, succeed",
			[]func(*world){submit, bind, claim, finish(fails), retry, bind, claim, finish(succeeds)},
			[]string{"Pending/0", "Scheduled/0", "Running/1", "Failed/1", "Pending/1", "Scheduled/1", "Running/2", "Succeeded/2"},
		},
		{
			"cancel while running",
			[]func(*world){submit, bind, claim, cancel, finish(aborted)},
			[]string{"Pending/0", "Scheduled/0", "Running/1", "Running/1", "Cancelled/1"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trails := map[bool][]string{}
			for _, live := range []bool{false, true} {
				w := newWorld(t, live)
				for _, step := range tc.steps {
					step(w)
				}
				if n, _, _ := w.e.st.Nodes.Get(node); len(w.e.st.LiveNode(n).Status.RunningJobs) != 0 {
					t.Errorf("live=%v: node still holds %v", live, n.Status.RunningJobs)
				}
				trails[live] = w.trail
			}
			if !reflect.DeepEqual(trails[true], trails[false]) {
				t.Fatalf("trails differ:\n live %v\n sim  %v", trails[true], trails[false])
			}
			if !reflect.DeepEqual(trails[false], tc.want) {
				t.Fatalf("trail = %v, want %v", trails[false], tc.want)
			}
		})
	}
}
