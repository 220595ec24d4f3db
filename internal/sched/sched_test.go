package sched

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/device"
	"qrio/internal/graph"
)

func node(t *testing.T, st *state.Cluster, name string, qubits int, e2 float64) {
	t.Helper()
	b, err := device.UniformBackend(name, graph.Line(qubits), e2, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNode(b); err != nil {
		t.Fatal(err)
	}
}

func job(name string, minQubits int, maxErr float64) api.QuantumJob {
	return api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.JobSpec{
			QASM:           "OPENQASM 2.0;\nqreg q[2];\nh q[0];",
			Strategy:       api.StrategyFidelity,
			TargetFidelity: 1,
			Requirements: api.DeviceRequirements{
				MinQubits:     minQubits,
				MaxAvg2QError: maxErr,
			},
		},
	}
}

// mapScorer scores by a fixed map.
type mapScorer map[string]float64

func (m mapScorer) Score(_, backend string) (float64, error) {
	s, ok := m[backend]
	if !ok {
		return 0, fmt.Errorf("no score for %s", backend)
	}
	return s, nil
}

func TestFiltersByQubitCount(t *testing.T) {
	st := state.New()
	node(t, st, "small", 3, 0.1)
	node(t, st, "big", 10, 0.1)
	fw := NewFramework(nil, DefaultFilters()...)
	feasible, rejected := fw.FilterNodes(job("j", 5, 0), st.Nodes.List())
	if len(feasible) != 1 || feasible[0].Name != "big" {
		t.Fatalf("feasible = %v", feasible)
	}
	if _, ok := rejected["small"]; !ok {
		t.Fatalf("rejected = %v", rejected)
	}
}

func TestFiltersByCharacteristics(t *testing.T) {
	st := state.New()
	node(t, st, "clean", 5, 0.05)
	node(t, st, "noisy", 5, 0.5)
	fw := NewFramework(nil, DefaultFilters()...)
	feasible, _ := fw.FilterNodes(job("j", 0, 0.1), st.Nodes.List())
	if len(feasible) != 1 || feasible[0].Name != "clean" {
		t.Fatalf("feasible = %v", feasible)
	}
	// No constraint: both pass.
	feasible, _ = fw.FilterNodes(job("j", 0, 0), st.Nodes.List())
	if len(feasible) != 2 {
		t.Fatalf("unconstrained feasible = %d", len(feasible))
	}
}

func TestResourceFitUsesFreeCapacity(t *testing.T) {
	st := state.New()
	node(t, st, "n", 5, 0.1)
	st.Nodes.Update("n", func(n api.Node) (api.Node, error) {
		n.Status.CPUMillisInUse = n.Spec.CPUMillis - 100
		return n, nil
	})
	j := job("j", 0, 0)
	j.Spec.Resources.CPUMillis = 500
	fw := NewFramework(nil, DefaultFilters()...)
	feasible, rejected := fw.FilterNodes(j, st.Nodes.List())
	if len(feasible) != 0 {
		t.Fatalf("overcommitted node passed: %v", feasible)
	}
	if r := rejected["n"]; r == "" {
		t.Fatal("no rejection reason")
	}
}

func TestNodeReadyFilter(t *testing.T) {
	st := state.New()
	node(t, st, "busy", 5, 0.1)
	st.Nodes.Update("busy", func(n api.Node) (api.Node, error) {
		n.Status.RunningJobs = []string{"other"}
		return n, nil
	})
	node(t, st, "down", 5, 0.1)
	st.Nodes.Update("down", func(n api.Node) (api.Node, error) {
		n.Status.Phase = api.NodeNotReady
		return n, nil
	})
	fw := NewFramework(nil, DefaultFilters()...)
	feasible, _ := fw.FilterNodes(job("j", 0, 0), st.Nodes.List())
	if len(feasible) != 0 {
		t.Fatalf("busy/down nodes passed: %v", feasible)
	}
}

func TestLowestScorePick(t *testing.T) {
	st := state.New()
	for _, name := range []string{"a", "b", "c", "d"} {
		node(t, st, name, 5, 0.1)
	}
	fw := NewFramework(MetaScore{Scorer: mapScorer{"a": 3, "b": 1, "c": 2, "d": 1}}, DefaultFilters()...)
	ranked, err := fw.Rank(job("j", 0, 0), st.Nodes.List())
	if err != nil {
		t.Fatal(err)
	}
	// Best (lowest) score first; b and d tie and break on name.
	want := []NodeScore{{"b", 1}, {"d", 1}, {"c", 2}, {"a", 3}}
	if !reflect.DeepEqual(ranked, want) {
		t.Fatalf("ranked %v, want %v", ranked, want)
	}
}

func TestLowestScoreSkipsFailingNodes(t *testing.T) {
	st := state.New()
	node(t, st, "a", 5, 0.1)
	node(t, st, "b", 5, 0.1)
	fw := NewFramework(MetaScore{Scorer: mapScorer{"b": 7}}, DefaultFilters()...)
	ranked, err := fw.Rank(job("j", 0, 0), st.Nodes.List())
	if err != nil {
		t.Fatal(err)
	}
	if want := []NodeScore{{"b", 7}}; !reflect.DeepEqual(ranked, want) {
		t.Fatalf("ranked %v, want %v", ranked, want)
	}
	// Every node failing to score is an error, not an empty ranking.
	fw = NewFramework(MetaScore{Scorer: mapScorer{}}, DefaultFilters()...)
	if ranked, err := fw.Rank(job("j", 0, 0), st.Nodes.List()); err == nil {
		t.Fatalf("ranked %v with every node failing to score", ranked)
	}
}

func TestUnschedulableError(t *testing.T) {
	st := state.New()
	node(t, st, "small", 2, 0.1)
	fw := NewFramework(nil, DefaultFilters()...)
	_, err := fw.Rank(job("j", 50, 0), st.Nodes.List())
	var unsched *UnschedulableError
	if !errors.As(err, &unsched) {
		t.Fatalf("err = %v, want UnschedulableError", err)
	}
	if len(unsched.Rejected) != 1 {
		t.Fatalf("rejected = %v", unsched.Rejected)
	}
}

func TestSchedulerPassFIFOOneAtATime(t *testing.T) {
	st := state.New()
	node(t, st, "only", 5, 0.1)
	fw := NewFramework(MetaScore{Scorer: mapScorer{"only": 1}}, DefaultFilters()...)
	s := New(st, fw)

	j1 := job("j1", 0, 0)
	j2 := job("j2", 0, 0)
	if _, err := st.SubmitJob(j1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SubmitJob(j2); err != nil {
		t.Fatal(err)
	}
	if bound := s.SchedulePass(); bound != 1 {
		t.Fatalf("bound %d jobs, want 1 (single-job architecture)", bound)
	}
	first, _, _ := st.Jobs.Get("j1")
	second, _, _ := st.Jobs.Get("j2")
	if first.Status.Phase != api.JobScheduled {
		t.Fatalf("j1 phase = %s (FIFO broken)", first.Status.Phase)
	}
	if second.Status.Phase != api.JobPending {
		t.Fatalf("j2 phase = %s, want Pending", second.Status.Phase)
	}
	// Node busy now; next pass binds nothing.
	if bound := s.SchedulePass(); bound != 0 {
		t.Fatalf("second pass bound %d", bound)
	}
}

func TestSchedulerConcurrencyExtension(t *testing.T) {
	st := state.New()
	node(t, st, "n1", 5, 0.1)
	node(t, st, "n2", 5, 0.1)
	fw := NewFramework(MetaScore{Scorer: mapScorer{"n1": 1, "n2": 2}}, DefaultFilters()...)
	s := New(st, fw)
	s.Concurrency = 4
	st.SubmitJob(job("j1", 0, 0))
	st.SubmitJob(job("j2", 0, 0))
	if bound := s.SchedulePass(); bound != 2 {
		t.Fatalf("bound %d, want 2 with concurrency", bound)
	}
}

// TestBatchedDispatchDistinctNodes: one batched pass places N pending jobs
// onto N distinct free nodes, never double-booking a slot, with the
// best-scoring node going to the oldest job (FIFO greedy order).
func TestBatchedDispatchDistinctNodes(t *testing.T) {
	st := state.New()
	scores := mapScorer{}
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("n%d", i)
		node(t, st, name, 5, 0.1)
		scores[name] = float64(i) // n1 best, n4 worst
	}
	fw := NewFramework(MetaScore{Scorer: scores}, DefaultFilters()...)
	s := New(st, fw)
	s.Concurrency = 8
	for i := 1; i <= 4; i++ {
		if _, err := st.SubmitJob(job(fmt.Sprintf("j%d", i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if bound := s.SchedulePass(); bound != 4 {
		t.Fatalf("bound %d jobs, want 4 in one pass", bound)
	}
	seen := map[string]string{}
	for i := 1; i <= 4; i++ {
		j, _, _ := st.Jobs.Get(fmt.Sprintf("j%d", i))
		if j.Status.Phase != api.JobScheduled {
			t.Fatalf("j%d phase = %s", i, j.Status.Phase)
		}
		if prev, dup := seen[j.Status.Node]; dup {
			t.Fatalf("node %s double-booked by %s and j%d", j.Status.Node, prev, i)
		}
		seen[j.Status.Node] = j.Name
	}
	// FIFO greedy: oldest job got the best node, and so on down the ranking.
	for i := 1; i <= 4; i++ {
		j, _, _ := st.Jobs.Get(fmt.Sprintf("j%d", i))
		if want := fmt.Sprintf("n%d", i); j.Status.Node != want {
			t.Fatalf("j%d bound to %s, want %s (deterministic greedy order)", i, j.Status.Node, want)
		}
	}
}

// TestBatchedDispatchMoreJobsThanNodes: surplus jobs stay Pending, nodes
// are never double-bound, and the next pass drains the queue after slots
// free up.
func TestBatchedDispatchMoreJobsThanNodes(t *testing.T) {
	st := state.New()
	node(t, st, "a", 5, 0.1)
	node(t, st, "b", 5, 0.1)
	fw := NewFramework(MetaScore{Scorer: mapScorer{"a": 1, "b": 1}}, DefaultFilters()...)
	s := New(st, fw)
	s.Concurrency = 8
	for i := 1; i <= 5; i++ {
		st.SubmitJob(job(fmt.Sprintf("j%d", i), 0, 0))
	}
	if bound := s.SchedulePass(); bound != 2 {
		t.Fatalf("first pass bound %d, want 2 (one per node)", bound)
	}
	pendingCount := 0
	for _, j := range st.Jobs.List() {
		if j.Status.Phase == api.JobPending {
			pendingCount++
		}
	}
	if pendingCount != 3 {
		t.Fatalf("%d jobs pending after full pass, want 3", pendingCount)
	}
	// Saturated fleet: another pass binds nothing (and doesn't double-bind).
	if bound := s.SchedulePass(); bound != 0 {
		t.Fatalf("saturated pass bound %d", bound)
	}
	for _, name := range []string{"a", "b"} {
		n, _, _ := st.Nodes.Get(name)
		if len(n.Status.RunningJobs) != 1 {
			t.Fatalf("node %s runs %v", name, n.Status.RunningJobs)
		}
	}
	// Free both nodes; the following pass places the next two FIFO jobs.
	for _, name := range []string{"a", "b"} {
		n, _, _ := st.Nodes.Get(name)
		jobName := n.Status.RunningJobs[0]
		st.Jobs.Update(jobName, func(j api.QuantumJob) (api.QuantumJob, error) {
			j.Status.Phase = api.JobSucceeded
			return j, nil
		})
		st.ReleaseNode(name, jobName)
	}
	if bound := s.SchedulePass(); bound != 2 {
		t.Fatalf("post-release pass bound %d, want 2", bound)
	}
}

// TestBatchedDispatchSkipsStarvedHead: unschedulable jobs at the head of
// the FIFO queue must not starve a feasible job queued behind them — the
// pass walks past the full batch width until it binds or exhausts the
// queue.
func TestBatchedDispatchSkipsStarvedHead(t *testing.T) {
	st := state.New()
	node(t, st, "tiny", 5, 0.1)
	fw := NewFramework(MetaScore{Scorer: mapScorer{"tiny": 1}}, DefaultFilters()...)
	s := New(st, fw)
	s.Concurrency = 4
	// Five impossible jobs (need 100 qubits) fill more than one batch
	// width ahead of the one feasible job.
	for i := 1; i <= 5; i++ {
		if _, err := st.SubmitJob(job(fmt.Sprintf("stuck%d", i), 100, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SubmitJob(job("runnable", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if bound := s.SchedulePass(); bound != 1 {
		t.Fatalf("bound %d, want 1 (feasible job behind unschedulable head)", bound)
	}
	j, _, _ := st.Jobs.Get("runnable")
	if j.Status.Phase != api.JobScheduled {
		t.Fatalf("runnable job phase = %s — starved by unschedulable queue head", j.Status.Phase)
	}
}

// TestBatchedDispatchFillsMultiSlotNode: with node concurrency enabled, a
// single node absorbs as many jobs per pass as it has container slots.
func TestBatchedDispatchFillsMultiSlotNode(t *testing.T) {
	st := state.New()
	node(t, st, "wide", 5, 0.1)
	st.Nodes.Update("wide", func(n api.Node) (api.Node, error) {
		n.Spec.MaxContainers = 3
		return n, nil
	})
	fw := NewFramework(MetaScore{Scorer: mapScorer{"wide": 1}}, DefaultFilters()...)
	s := New(st, fw)
	s.Concurrency = 8
	for i := 1; i <= 4; i++ {
		st.SubmitJob(job(fmt.Sprintf("j%d", i), 0, 0))
	}
	if bound := s.SchedulePass(); bound != 3 {
		t.Fatalf("bound %d, want 3 (slot cap)", bound)
	}
	n, _, _ := st.Nodes.Get("wide")
	if len(n.Status.RunningJobs) != 3 {
		t.Fatalf("node runs %v, want 3 containers", n.Status.RunningJobs)
	}
}

// slotThief scores like mapScorer, but while ranking fills the victim
// node's only slot behind the pass's back — another binder winning the
// race between snapshot and bind.
type slotThief struct {
	mapScorer
	st     *state.Cluster
	victim string
	once   sync.Once
}

func (*slotThief) Name() string { return "slotThief" }

func (s *slotThief) Score(_ api.QuantumJob, n api.Node) (float64, error) {
	if n.Name == s.victim {
		s.once.Do(func() {
			s.st.Nodes.Update(s.victim, func(n api.Node) (api.Node, error) {
				n.Status.RunningJobs = append(n.Status.RunningJobs, "squatter")
				return n, nil
			})
		})
	}
	return s.mapScorer.Score("", n.Name)
}

// TestRefusedNodeFallsThroughAtBudgetOne: at the default budget, a node
// that refuses the bind sends the job to its next-ranked candidate in the
// same pass instead of giving it up until the next one.
func TestRefusedNodeFallsThroughAtBudgetOne(t *testing.T) {
	st := state.New()
	node(t, st, "best", 5, 0.1)
	node(t, st, "second", 5, 0.1)
	scorer := &slotThief{mapScorer: mapScorer{"best": 1, "second": 2}, st: st, victim: "best"}
	s := New(st, NewFramework(scorer, DefaultFilters()...))
	s.Concurrency = 1
	if _, err := st.SubmitJob(job("j", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if bound := s.SchedulePass(); bound != 1 {
		t.Fatalf("bound %d, want 1 (fall through to the second-ranked node)", bound)
	}
	j, _, _ := st.Jobs.Get("j")
	if j.Status.Phase != api.JobScheduled || j.Status.Node != "second" || j.Status.Score != 2 {
		t.Fatalf("job %s on %q score %v, want Scheduled on second/2", j.Status.Phase, j.Status.Node, j.Status.Score)
	}
}
