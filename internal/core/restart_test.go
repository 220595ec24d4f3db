package core_test

import (
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

// TestRestartRederivesMetadataAndImages: scoring metadata and job images
// live in memory only, so a daemon reopened over a data dir must rebuild
// them from each replayed job's stored spec — otherwise the backlog is
// ranked by the degraded heuristic and every job fails at image pull. One
// fidelity and one topology job are accepted, the daemon is closed before
// either runs, and the reopened daemon must take both to Succeeded on a
// Meta-computed score.
func TestRestartRederivesMetadataAndImages(t *testing.T) {
	line, err := device.UniformBackend("line", graph.Line(12), 0.02, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := device.UniformBackend("ring", graph.Ring(12), 0.03, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Backends:   []*device.Backend{line, ring},
		Durability: durability.Options{Dir: t.TempDir(), SnapshotInterval: -1},
	}
	circ, err := qasm.Dump(workload.GHZ(4))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := qasm.Dump(mapomatic.TopologyCircuit(graph.Ring(12)))
	if err != nil {
		t.Fatal(err)
	}

	q, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitted := make(map[string]string) // job → image, as accepted
	for _, req := range []master.SubmitRequest{
		{JobName: "restart-fid", QASM: circ, Shots: 64, Strategy: api.StrategyFidelity, TargetFidelity: 1.0},
		{JobName: "restart-topo", QASM: circ, Shots: 64, Strategy: api.StrategyTopology, TopologyQASM: topo,
			ImageName: "vendor/custom:v2"},
	} {
		job, err := q.Submit(req) // never started: both stay Pending
		if err != nil {
			t.Fatal(err)
		}
		submitted[req.JobName] = job.Spec.Image
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q, err = core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.Start()
	for name, image := range submitted {
		job, err := q.WaitForJob(name, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status.Phase != api.JobSucceeded {
			t.Fatalf("%s after restart: %s (%s)", name, job.Status.Phase, job.Status.Message)
		}
		if job.Spec.Image != image {
			t.Errorf("%s image changed across the restart: %s -> %s", name, image, job.Spec.Image)
		}
		want, err := q.Meta.Score(name, job.Status.Node)
		if err != nil || job.Status.Score != want {
			t.Errorf("%s bound at score %v; the Meta Server scores it %v on %s (%v)",
				name, job.Status.Score, want, job.Status.Node, err)
		}
	}
	if job, _, _ := q.State.Jobs.Get("restart-topo"); job.Status.Node != "ring" {
		t.Errorf("topology job for a 12-ring placed on %q by the restarted daemon", job.Status.Node)
	}
	for _, e := range q.State.Events.List() {
		if e.Reason == "SchedulingDegraded" || e.Reason == "RestoreFailed" {
			t.Errorf("restarted daemon recorded %s: %s", e.Reason, e.Message)
		}
	}
}
