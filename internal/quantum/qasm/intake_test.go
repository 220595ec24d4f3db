package qasm_test

import (
	"fmt"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
)

// TestIntakeParsesOnce: N jobs of one circuit, submitted through the
// gateway and run to completion, parse its text once — the gateway's width
// check, Meta's validation and canaries, Master's intake and every
// kubelet's execution share one memoised circuit.
func TestIntakeParsesOnce(t *testing.T) {
	var fleet []*device.Backend
	for i := 0; i < 3; i++ {
		b, err := device.UniformBackend(fmt.Sprintf("dev-%d", i), graph.Line(6), 0.02, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	q, err := core.New(core.Config{Backends: fleet})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	gw := gateway.New(q)
	// A text no other test or earlier run parses, so the memo cannot
	// already hold it.
	src := fmt.Sprintf("OPENQASM 2.0;\n// intake parses once: %d\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> c;\n",
		time.Now().UnixNano())
	const jobs = 4
	before := qasm.Parses()
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("once-%d", i)
		if _, err := gw.Submit(master.SubmitRequest{
			JobName: name, QASM: src, Shots: 128,
			Strategy: api.StrategyFidelity, TargetFidelity: 1,
		}); err != nil {
			t.Fatal(err)
		}
		job, err := q.WaitForJob(name, time.Minute)
		if err != nil || job.Status.Phase != api.JobSucceeded {
			t.Fatalf("%s: %v (phase %s, %s)", name, err, job.Status.Phase, job.Status.Message)
		}
	}
	if n := qasm.Parses() - before; n != 1 {
		t.Fatalf("%d jobs of one circuit ran qasm.Parse %d times, want 1", jobs, n)
	}
}
