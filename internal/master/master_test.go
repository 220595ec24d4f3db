package master_test

import (
	"encoding/json"
	"strings"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
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

func TestLogsOnlyAfterExecution(t *testing.T) {
	m, st, _ := newMaster()
	m.Submit(fidelityReq("j"))
	if _, err := m.Logs("j"); err == nil {
		t.Fatal("logs available before execution")
	}
	st.Results.Create(api.Result{
		ObjectMeta: api.ObjectMeta{Name: "j"},
		JobName:    "j", Node: "n", LogLines: []string{"done"},
	})
	res, err := m.Logs("j")
	if err != nil || len(res.LogLines) != 1 {
		t.Fatalf("logs = %v, %v", res, err)
	}
}
