package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

// testCluster builds a small three-device QRIO deployment: one clean line,
// one noisy line, one clean ring.
func testCluster(t *testing.T) *core.QRIO {
	t.Helper()
	q, err := core.New(core.Config{
		Backends:    testFleet(t),
		KubeletSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// testFleet is testCluster's three devices.
func testFleet(t *testing.T) []*device.Backend {
	t.Helper()
	clean, err := device.UniformBackend("clean-line", graph.Line(12), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := device.UniformBackend("noisy-line", graph.Line(12), 0.5, 0.1, 0.1, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := device.UniformBackend("clean-ring", graph.Ring(12), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	return []*device.Backend{clean, noisy, ring}
}

func TestEndToEndFidelityJob(t *testing.T) {
	q := testCluster(t)
	q.Start()
	defer q.Stop()

	bv := workload.BernsteinVazirani(5, 0b1011)
	src, err := qasm.Dump(bv)
	if err != nil {
		t.Fatal(err)
	}
	job, res, err := q.SubmitAndWait(master.SubmitRequest{
		JobName:        "bv5",
		QASM:           src,
		Shots:          512,
		Strategy:       api.StrategyFidelity,
		TargetFidelity: 1.0,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Phase != api.JobSucceeded {
		t.Fatalf("job phase = %s (%s)", job.Status.Phase, job.Status.Message)
	}
	// The fidelity ranking must avoid the noisy device.
	if job.Status.Node == "noisy-line" {
		t.Fatalf("fidelity strategy chose the noisy device")
	}
	if res.Fidelity < 0.5 {
		t.Fatalf("achieved fidelity %v too low on a clean device", res.Fidelity)
	}
	// Log lines mirror Fig. 5 content.
	text := strings.Join(res.LogLines, "\n")
	for _, want := range []string{"starting on node", "pulled image", "transpiled", "estimated fidelity"} {
		if !strings.Contains(text, want) {
			t.Errorf("log missing %q:\n%s", want, text)
		}
	}
	// Counts concentrate on the BV secret (01011 with 5 clbits).
	top := ""
	best := 0
	for bits, n := range res.Counts {
		if n > best {
			best, top = n, bits
		}
	}
	if top != "01011" {
		t.Errorf("dominant outcome = %s, want 01011", top)
	}
	// Transpiled QASM is recorded and parses.
	if res.TranspiledQASM == "" {
		t.Error("no transpiled QASM recorded")
	} else if _, err := qasm.Parse(res.TranspiledQASM); err != nil {
		t.Errorf("transpiled QASM invalid: %v", err)
	}
}

func TestEndToEndTopologyJob(t *testing.T) {
	q := testCluster(t)
	q.Start()
	defer q.Stop()

	// Request the full 12-ring topology: it embeds perfectly only in the
	// ring device (a 12-cycle is not a subgraph of a 12-line, and shorter
	// cycles would not embed in the ring either).
	topo, err := qasm.Dump(mapomatic.TopologyCircuit(graph.Ring(12)))
	if err != nil {
		t.Fatal(err)
	}
	ghz := workload.GHZ(6)
	src, err := qasm.Dump(ghz)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := q.SubmitAndWait(master.SubmitRequest{
		JobName:      "ghz-ring",
		QASM:         src,
		Shots:        256,
		Strategy:     api.StrategyTopology,
		TopologyQASM: topo,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Phase != api.JobSucceeded {
		t.Fatalf("job phase = %s (%s)", job.Status.Phase, job.Status.Message)
	}
	if job.Status.Node != "clean-ring" {
		t.Fatalf("topology strategy chose %s, want clean-ring", job.Status.Node)
	}
}

func TestCharacteristicsFilteringExcludesNoisyDevice(t *testing.T) {
	q := testCluster(t)
	q.Start()
	defer q.Stop()

	src, _ := qasm.Dump(workload.GHZ(3))
	job, _, err := q.SubmitAndWait(master.SubmitRequest{
		JobName:        "filtered",
		QASM:           src,
		Shots:          128,
		Strategy:       api.StrategyFidelity,
		TargetFidelity: 1.0,
		Requirements:   api.DeviceRequirements{MaxAvg2QError: 0.1},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Node == "noisy-line" {
		t.Fatal("filter failed: noisy device selected")
	}
}

// TestUnschedulableJobStaysPending: a job whose only fitting node leaves
// after the intake admitted it stays Pending, and the scheduler records why.
func TestUnschedulableJobStaysPending(t *testing.T) {
	q := testCluster(t)
	wide, err := device.UniformBackend("wide", graph.Line(16), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AddBackend(wide); err != nil {
		t.Fatal(err)
	}
	src, _ := qasm.Dump(workload.GHZ(3))
	if _, err := q.Submit(master.SubmitRequest{
		JobName:        "impossible",
		QASM:           src,
		Strategy:       api.StrategyFidelity,
		TargetFidelity: 1.0,
		Requirements:   api.DeviceRequirements{MinQubits: 16},
	}); err != nil {
		t.Fatal(err)
	}
	if err := q.State.Nodes.Delete("wide"); err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	time.Sleep(300 * time.Millisecond)
	j, _, err := q.State.Jobs.Get("impossible")
	if err != nil {
		t.Fatal(err)
	}
	if j.Status.Phase != api.JobPending {
		t.Fatalf("impossible job phase = %s, want Pending", j.Status.Phase)
	}
	// An Unschedulable event must have been recorded.
	found := false
	for _, e := range q.State.EventsAbout("impossible") {
		if e.Reason == "Unschedulable" {
			found = true
		}
	}
	if !found {
		t.Fatal("no Unschedulable event recorded")
	}
}

func TestSequentialJobsShareTheCluster(t *testing.T) {
	q := testCluster(t)
	q.Start()
	defer q.Stop()

	src, _ := qasm.Dump(workload.GHZ(3))
	for i, name := range []string{"s1", "s2", "s3"} {
		_ = i
		job, _, err := q.SubmitAndWait(master.SubmitRequest{
			JobName:        name,
			QASM:           src,
			Shots:          64,
			Strategy:       api.StrategyFidelity,
			TargetFidelity: 1.0,
		}, 30*time.Second)
		if err != nil {
			t.Fatalf("job %s: %v", name, err)
		}
		if job.Status.Phase != api.JobSucceeded {
			t.Fatalf("job %s phase = %s", name, job.Status.Phase)
		}
	}
	nodesDrained(t, q)
}

// nodesDrained fails unless every node has given up its reservations: a
// job's terminal phase frees its slot in the same write.
func nodesDrained(t *testing.T, q *core.QRIO) {
	t.Helper()
	nodes, _ := q.State.Fleet()
	for _, n := range nodes {
		if len(n.Status.RunningJobs) != 0 || n.Status.CPUMillisInUse != 0 || n.Status.MemoryMBInUse != 0 {
			t.Fatalf("node %s still holds %+v", n.Name, n.Status)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := core.New(core.Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

// TestConcurrentPipelineEndToEnd drives the whole concurrent path: batched
// dispatch (Concurrency 8), multi-container nodes, parallel ranking and
// the Meta-Server score cache, with a burst of jobs submitted at once.
func TestConcurrentPipelineEndToEnd(t *testing.T) {
	clean, err := device.UniformBackend("clean-line", graph.Line(12), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := device.UniformBackend("clean-ring", graph.Ring(12), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(core.Config{
		Backends:        []*device.Backend{clean, ring},
		Concurrency:     8,
		NodeConcurrency: 4, // capped by the devices' 4000m CPU = 4 slots
		KubeletSeed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()

	src, _ := qasm.Dump(workload.GHZ(3))
	const jobs = 8
	names := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("burst-%d", i)
		names = append(names, name)
		if _, err := q.Submit(master.SubmitRequest{
			JobName:        name,
			QASM:           src,
			Shots:          64,
			Strategy:       api.StrategyFidelity,
			TargetFidelity: 1.0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		job, err := q.WaitForJob(name, 60*time.Second)
		if err != nil {
			t.Fatalf("job %s: %v", name, err)
		}
		if job.Status.Phase != api.JobSucceeded {
			t.Fatalf("job %s phase = %s (%s)", name, job.Status.Phase, job.Status.Message)
		}
	}
	// All jobs share one circuit: the fleet-wide canary simulations must
	// have been computed at most once per backend, the rest cache hits.
	if st := q.Meta.CacheStats(); st.Misses > 2 || st.Hits == 0 {
		t.Fatalf("cache stats hits=%d misses=%d; want ≤2 misses for 8 same-circuit jobs on 2 backends", st.Hits, st.Misses)
	}
	nodesDrained(t, q)
}
