package master_test

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/master"
	"qrio/internal/registry"
)

const bellQASM = `OPENQASM 2.0;
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
`

func newMaster() (*master.Server, *state.Cluster, *registry.Registry) {
	st := state.New()
	reg := registry.New()
	return master.NewServer(st, reg), st, reg
}

func fidelityReq(name string) master.SubmitRequest {
	return master.SubmitRequest{
		JobName:        name,
		QASM:           bellQASM,
		Strategy:       api.StrategyFidelity,
		TargetFidelity: 0.9,
	}
}

func TestSubmitContainerizesAndStoresJob(t *testing.T) {
	m, st, reg := newMaster()
	job, err := m.Submit(fidelityReq("bell"))
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Phase != api.JobPending {
		t.Fatalf("phase = %s", job.Status.Phase)
	}
	if !strings.Contains(job.Spec.Image, "@sha256:") {
		t.Fatalf("image not digest-pinned: %s", job.Spec.Image)
	}
	// MinQubits raised to the circuit's register size.
	if job.Spec.Requirements.MinQubits != 2 {
		t.Fatalf("MinQubits = %d, want 2", job.Spec.Requirements.MinQubits)
	}
	// Image bundle has the §3.3 directory contents.
	digest := job.Spec.Image[strings.LastIndex(job.Spec.Image, "@")+1:]
	img, err := reg.Pull(digest)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"circuit.qasm", "runner.json", "requirements.txt", "Dockerfile"} {
		if _, ok := img.Files[f]; !ok {
			t.Errorf("image missing %s", f)
		}
	}
	if string(img.Files["circuit.qasm"]) != bellQASM {
		t.Error("circuit content altered")
	}
	if !strings.Contains(string(img.Files["requirements.txt"]), "qiskit") {
		t.Error("requirements.txt missing qiskit packages")
	}
	var manifest master.RunnerManifest
	if err := json.Unmarshal(img.Files["runner.json"], &manifest); err != nil {
		t.Fatalf("runner.json corrupt: %v", err)
	}
	if manifest.JobName != "bell" || manifest.Shots != 1024 || !manifest.Transpile {
		t.Fatalf("manifest = %+v", manifest)
	}
	// Job visible in cluster state.
	if _, _, err := st.Jobs.Get("bell"); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, _, _ := newMaster()
	cases := []master.SubmitRequest{
		{},
		{JobName: "x"},
		{JobName: "bad name", QASM: bellQASM, Strategy: api.StrategyFidelity, TargetFidelity: 1},
		{JobName: "x", QASM: "garbage", Strategy: api.StrategyFidelity, TargetFidelity: 1},
		{JobName: "x", QASM: bellQASM, Strategy: "magic"},
		{JobName: "x", QASM: bellQASM, Strategy: api.StrategyTopology, TopologyQASM: "bad"},
		{JobName: "x", QASM: bellQASM, Strategy: api.StrategyFidelity, TargetFidelity: 0},
	}
	for i, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}

func TestSubmitDuplicateJobName(t *testing.T) {
	m, _, _ := newMaster()
	if _, err := m.Submit(fidelityReq("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(fidelityReq("dup")); err == nil {
		t.Fatal("duplicate job accepted")
	}
}

// bindingClock binds the job the first time the state layer reads it
// after the job's create: the bind a scheduler can land between
// SubmitJob's create and its return.
type bindingClock struct {
	st      *state.Cluster
	created atomic.Int64 // the job's create version, once the store holds it
	bound   atomic.Bool
	err     error
}

func (c *bindingClock) Now() time.Time {
	if c.created.Load() > 0 && c.bound.CompareAndSwap(false, true) {
		c.err = c.st.BindJob("raced", "dev", 1)
	}
	return time.Now()
}

// TestSubmitAnswersWithTheJobAsCreated: a bind that races in before
// Submit returns does not leak into its answer — the 201 carries the job
// as created, Pending at its create version, while the store has moved on.
func TestSubmitAnswersWithTheJobAsCreated(t *testing.T) {
	m, st, _ := newMaster()
	dev, err := device.UniformBackend("dev", graph.Line(3), 0.01, 0.001, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(dev); err != nil {
		t.Fatal(err)
	}
	clk := &bindingClock{st: st}
	st.Jobs.OnEvent(func(ev store.WatchEvent[api.QuantumJob]) {
		if ev.Type == store.Added && ev.Object.Name == "raced" {
			clk.created.Store(ev.Version)
		}
	})
	st.Clock = clk
	job, err := m.Submit(fidelityReq("raced"))
	if err != nil {
		t.Fatal(err)
	}
	if !clk.bound.Load() || clk.err != nil {
		t.Fatalf("the racing bind did not land: ran %t, %v", clk.bound.Load(), clk.err)
	}
	if job.Status.Phase != api.JobPending || job.ResourceVersion != clk.created.Load() {
		t.Fatalf("Submit answered %s at version %d, want Pending at its create version %d",
			job.Status.Phase, job.ResourceVersion, clk.created.Load())
	}
	if stored, v, _ := st.Jobs.Get("raced"); stored.Status.Phase != api.JobScheduled || v <= job.ResourceVersion {
		t.Fatalf("store holds %s at version %d: the bind never raced the answer", stored.Status.Phase, v)
	}
}
