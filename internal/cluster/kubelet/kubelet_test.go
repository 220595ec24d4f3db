package kubelet_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/cluster/state"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/graph"
	"qrio/internal/master"
	"qrio/internal/obs"
	"qrio/internal/quantum/qasm"
	"qrio/internal/registry"
)

const ghzQASM = `OPENQASM 2.0;
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q -> c;
`

// liveNode reads a node with its reservations, as GET /v1/nodes/{name}
// answers it.
func liveNode(st *state.Cluster, name string) api.Node {
	n, _, _ := st.Nodes.Get(name)
	return st.LiveNode(n)
}

// setup builds a one-node cluster with a job bound to it via the master.
func setup(t *testing.T, e2 float64) (*kubelet.Kubelet, *state.Cluster) {
	t.Helper()
	st := state.New()
	b, err := device.UniformBackend("node-a", graph.Line(6), e2, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	m := master.NewServer(st, reg)
	if _, err := m.Submit(master.SubmitRequest{
		JobName: "ghz", QASM: ghzQASM, Shots: 256,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.BindJob("ghz", "node-a", 0.1); err != nil {
		t.Fatal(err)
	}
	return kubelet.New("node-a", st, reg, 3), st
}

func TestExecutesBoundJob(t *testing.T) {
	k, st := setup(t, 0.02)
	if ran := k.SyncOnce(); !ran {
		t.Fatal("kubelet did not pick up the bound job")
	}
	j, _, _ := st.Jobs.Get("ghz")
	if j.Status.Phase != api.JobSucceeded {
		t.Fatalf("job phase = %s (%s)", j.Status.Phase, j.Status.Message)
	}
	if j.Status.Attempts != 1 || j.Status.StartedAt == nil || j.Status.FinishedAt == nil {
		t.Fatalf("status bookkeeping wrong: %+v", j.Status)
	}
	res, _, err := st.Results.Get("ghz")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != 256 {
		t.Fatalf("shot count = %d, want 256", total)
	}
	if res.Fidelity <= 0.5 {
		t.Fatalf("fidelity = %v on a clean device", res.Fidelity)
	}
	if !strings.Contains(strings.Join(res.LogLines, "\n"), "succeeded") {
		t.Fatalf("logs incomplete: %v", res.LogLines)
	}
	// Node released.
	n := liveNode(st, "node-a")
	if len(n.Status.RunningJobs) != 0 {
		t.Fatalf("node not released: %+v", n.Status)
	}
}

// TestRunsConcurrentContainers: a node with two container slots executes
// two bound jobs in a single sync, and both actually overlap (each job
// observes the other in flight via the shared state).
func TestRunsConcurrentContainers(t *testing.T) {
	st := state.New()
	b, err := device.UniformBackend("wide", graph.Line(6), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
	st.Nodes.Update("wide", func(n api.Node) (api.Node, error) {
		n.Spec.MaxContainers = 2
		return n, nil
	})
	reg := registry.New()
	m := master.NewServer(st, reg)
	for _, name := range []string{"ghz-a", "ghz-b"} {
		if _, err := m.Submit(master.SubmitRequest{
			JobName: name, QASM: ghzQASM, Shots: 256,
			Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.BindJob(name, "wide", 0.1); err != nil {
			t.Fatal(err)
		}
	}
	n := liveNode(st, "wide")
	if len(n.Status.RunningJobs) != 2 {
		t.Fatalf("bound containers = %v", n.Status.RunningJobs)
	}
	k := kubelet.New("wide", st, reg, 7)
	if ran := k.SyncOnce(); !ran {
		t.Fatal("kubelet did not pick up the bound jobs")
	}
	overlapped := false
	for _, name := range []string{"ghz-a", "ghz-b"} {
		j, _, _ := st.Jobs.Get(name)
		if j.Status.Phase != api.JobSucceeded {
			t.Fatalf("%s phase = %s (%s)", name, j.Status.Phase, j.Status.Message)
		}
		other := "ghz-b"
		if name == "ghz-b" {
			other = "ghz-a"
		}
		oj, _, _ := st.Jobs.Get(other)
		// Overlap: this job started before the other finished.
		if j.Status.StartedAt != nil && oj.Status.FinishedAt != nil &&
			j.Status.StartedAt.Before(*oj.Status.FinishedAt) {
			overlapped = true
		}
	}
	if !overlapped {
		t.Fatal("containers ran strictly serially on a two-slot node")
	}
	n = liveNode(st, "wide")
	if len(n.Status.RunningJobs) != 0 {
		t.Fatalf("slots not released: %v", n.Status.RunningJobs)
	}
}

func TestIgnoresJobsForOtherNodes(t *testing.T) {
	_, st := setup(t, 0.02)
	other := kubelet.New("node-b", st, registry.New(), 1)
	if ran := other.SyncOnce(); ran {
		t.Fatal("kubelet executed another node's job")
	}
	j, _, _ := st.Jobs.Get("ghz")
	if j.Status.Phase != api.JobScheduled {
		t.Fatalf("job phase = %s", j.Status.Phase)
	}
}

// runsObserved reads qrio_kubelet_run_duration_seconds' observation count
// for one outcome off the registry.
func runsObserved(t *testing.T, r *obs.Registry, outcome string) float64 {
	t.Helper()
	const family = "qrio_kubelet_run_duration_seconds"
	if f := obs.FindFamily(r.Gather(), family); f != nil {
		for _, s := range f.Samples {
			if s.Name == family+"_count" && s.Get("outcome") == outcome {
				return s.Value
			}
		}
	}
	t.Fatalf("no run-duration sample for outcome %q", outcome)
	return 0
}

func TestBrokenImageFailsJob(t *testing.T) {
	st := state.New()
	b, _ := device.UniformBackend("node-a", graph.Line(4), 0.1, 0.01, 0.05, 100e3, 100e3)
	st.AddNode(b)
	reg := registry.New() // empty: pull will fail
	st.SubmitJob(api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: "broken"},
		Spec: api.JobSpec{
			QASM: ghzQASM, Image: "ghost:latest",
			Strategy: api.StrategyFidelity, TargetFidelity: 1,
		},
	})
	st.BindJob("broken", "node-a", 0)
	k := kubelet.New("node-a", st, reg, 1)
	metrics := obs.NewRegistry()
	k.Metrics = kubelet.NewMetrics(metrics)
	k.SyncOnce()
	j, _, _ := st.Jobs.Get("broken")
	if j.Status.Phase != api.JobFailed {
		t.Fatalf("job with missing image: phase = %s", j.Status.Phase)
	}
	if !strings.Contains(j.Status.Message, "pulling image") {
		t.Fatalf("unhelpful failure message: %q", j.Status.Message)
	}
	// Failure must still produce logs and release the node.
	res, _, err := st.Results.Get("broken")
	if err != nil || len(res.LogLines) == 0 {
		t.Fatalf("failed job has no logs: %v", err)
	}
	n := liveNode(st, "node-a")
	if len(n.Status.RunningJobs) != 0 {
		t.Fatal("node not released after failure")
	}
	if failed, ok := runsObserved(t, metrics, "failed"), runsObserved(t, metrics, "succeeded"); failed != 1 || ok != 0 {
		t.Fatalf("run durations observed: %v failed, %v succeeded; want 1 and 0", failed, ok)
	}
}

func TestOversizedCircuitFailsCleanly(t *testing.T) {
	st := state.New()
	b, _ := device.UniformBackend("tiny", graph.Line(2), 0.1, 0.01, 0.05, 100e3, 100e3)
	st.AddNode(b)
	reg := registry.New()
	m := master.NewServer(st, reg)
	if _, err := m.Submit(master.SubmitRequest{
		JobName: "big", QASM: ghzQASM, // 3 qubits on a 2-qubit device
		Strategy: api.StrategyFidelity, TargetFidelity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Force-bind despite the size mismatch (bypassing filters) to test the
	// kubelet's own error handling.
	if err := st.BindJob("big", "tiny", 0); err != nil {
		t.Fatal(err)
	}
	k := kubelet.New("tiny", st, reg, 1)
	k.SyncOnce()
	j, _, _ := st.Jobs.Get("big")
	if j.Status.Phase != api.JobFailed {
		t.Fatalf("oversized job phase = %s", j.Status.Phase)
	}
}

// TestExecutionSeedFollowsTheJob: an execution's noise is seeded by the
// node's kubelet seed and a hash of the job's identity, not the length of
// its name — two jobs with same-length names on one node draw different
// noise, and the same job on the same node reproduces its own counts.
func TestExecutionSeedFollowsTheJob(t *testing.T) {
	run := func() map[string]map[string]int {
		t.Helper()
		st := state.New()
		b, err := device.UniformBackend("node-a", graph.Line(6), 0.2, 0.02, 0.05, 50e3, 50e3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddNode(b); err != nil {
			t.Fatal(err)
		}
		reg := registry.New()
		m := master.NewServer(st, reg)
		k := kubelet.New("node-a", st, reg, 3)
		counts := make(map[string]map[string]int)
		for _, name := range []string{"ghz-a", "ghz-b"} {
			if _, err := m.Submit(master.SubmitRequest{
				JobName: name, QASM: ghzQASM, Shots: 2048,
				Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
			}); err != nil {
				t.Fatal(err)
			}
			if err := st.BindJob(name, "node-a", 0.1); err != nil {
				t.Fatal(err)
			}
			if !k.SyncOnce() {
				t.Fatalf("kubelet did not run %s", name)
			}
			res, _, err := st.Results.Get(name)
			if err != nil || len(res.Counts) == 0 {
				t.Fatalf("no counts for %s: %v", name, err)
			}
			counts[name] = res.Counts
		}
		return counts
	}
	first, second := run(), run()
	if reflect.DeepEqual(first["ghz-a"], first["ghz-b"]) {
		t.Fatalf("two same-length job names on one node drew identical noise: %v", first["ghz-a"])
	}
	for _, name := range []string{"ghz-a", "ghz-b"} {
		if !reflect.DeepEqual(first[name], second[name]) {
			t.Fatalf("job %s did not reproduce its own counts:\n%v\n%v", name, first[name], second[name])
		}
	}
}

// TestSharedCircuitStaysUnmodified: the kubelet executes the circuit
// qasm.ParseShared hands every job of one text, and Meta prepares canaries
// from the same one. Four jobs running at once on one node, beside four
// canary preparations, must leave it equal to a fresh parse (and, under
// -race, must only read it).
func TestSharedCircuitStaysUnmodified(t *testing.T) {
	// A 4-qubit ring on a line: routing inserts swaps, and measure is
	// present, so Execute passes the shared circuit itself to transpile.
	const src = `OPENQASM 2.0;
// shared circuit stays unmodified
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[0];
rz(0.3) q[2];
measure q -> c;
`
	st := state.New()
	b, err := device.UniformBackend("wide", graph.Line(6), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
	st.Nodes.Update("wide", func(n api.Node) (api.Node, error) {
		n.Spec.MaxContainers = 4
		return n, nil
	})
	reg := registry.New()
	m := master.NewServer(st, reg)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("ring-%d", i)
		if _, err := m.Submit(master.SubmitRequest{
			JobName: name, QASM: src, Shots: 256,
			Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.BindJob(name, "wide", 0.1); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := qasm.ParseShared(src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := (fidelity.Estimator{Shots: 256, Seed: int64(i)}).PrepareCanaries(shared); err != nil {
				t.Error(err)
			}
		}()
	}
	if !kubelet.New("wide", st, reg, 5).SyncOnce() {
		t.Fatal("kubelet did not run the bound jobs")
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		j, _, _ := st.Jobs.Get(fmt.Sprintf("ring-%d", i))
		if j.Status.Phase != api.JobSucceeded {
			t.Fatalf("%s phase = %s (%s)", j.Name, j.Status.Phase, j.Status.Message)
		}
	}
	fresh, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := qasm.ParseShared(src); again != shared || !reflect.DeepEqual(shared, fresh) {
		t.Fatalf("the shared circuit changed under its readers:\nshared %+v\nfresh  %+v", shared, fresh)
	}
}
