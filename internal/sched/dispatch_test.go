package sched

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/device"
	"qrio/internal/graph"
)

// staticScore scores by node name from a fixed table and carries the
// StaticPlugin marker; calls counts Score invocations.
type staticScore struct {
	scores map[string]float64
	calls  *atomic.Int64
}

func (staticScore) Name() string { return "TestStaticScore" }
func (staticScore) Static()      {}
func (s staticScore) Score(_ api.QuantumJob, n api.Node) (float64, error) {
	if s.calls != nil {
		s.calls.Add(1)
	}
	v, ok := s.scores[n.Name]
	if !ok {
		return 0, fmt.Errorf("no score for %s", n.Name)
	}
	return v, nil
}

func assignments(t *testing.T, st *state.Cluster) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, j := range st.Jobs.List() {
		if j.Status.Phase == api.JobScheduled {
			out[j.Name] = j.Status.Node
		}
	}
	return out
}

// oracle is the reference the dispatcher is held to: rank EVERY job on
// its own against the pass's node snapshot, then place greedily in queue
// order against per-node free slots.
func oracle(fw *Framework, nodes []api.Node, queue []api.QuantumJob) map[string]string {
	free := map[string]int{}
	for _, n := range nodes {
		if n.Status.Phase == api.NodeReady {
			free[n.Name] = n.ContainerSlots() - len(n.Status.RunningJobs)
		}
	}
	placed := map[string]string{}
	for _, j := range queue {
		ranked, err := fw.Rank(j, nodes)
		if err != nil {
			continue
		}
		for _, c := range ranked {
			if free[c.Node] > 0 {
				free[c.Node]--
				placed[j.Name] = c.Node
				break
			}
		}
	}
	return placed
}

// TestDispatchMatchesPerJobOracle: sharing one ranking per spec class —
// within a pass, and for a static chain across passes — is a pure
// optimisation. Whatever the chain, a pass must bind exactly the jobs,
// to exactly the nodes, that ranking every job separately would: mixed
// spec classes, a multi-slot node, a class that exhausts its capacity
// mid-chunk, a class no node passes filtering for, and a node that is
// down.
func TestDispatchMatchesPerJobOracle(t *testing.T) {
	scores := map[string]float64{"small-1": 1, "small-2": 2, "big-1": 3, "down": 0}
	chains := map[string]func() *Framework{
		"static": func() *Framework {
			return NewFramework(staticScore{scores: scores}, QubitCount{}, Characteristics{})
		},
		"non-static": func() *Framework {
			return NewFramework(MetaScore{Scorer: mapScorer(scores)}, DefaultFilters()...)
		},
	}
	for name, chain := range chains {
		t.Run(name, func(t *testing.T) {
			st := state.New()
			node(t, st, "small-1", 3, 0.10)
			node(t, st, "small-2", 3, 0.20)
			node(t, st, "big-1", 8, 0.05)
			node(t, st, "down", 8, 0.01) // best score, never usable
			for nodeName, mutate := range map[string]func(*api.Node){
				"small-1": func(n *api.Node) { n.Spec.MaxContainers = 2 },
				"big-1":   func(n *api.Node) { n.Spec.MaxContainers = 3 },
				"down":    func(n *api.Node) { n.Status.Phase = api.NodeNotReady },
			} {
				if _, _, err := st.Nodes.Update(nodeName, func(n api.Node) (api.Node, error) {
					mutate(&n)
					return n, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				for _, j := range []api.QuantumJob{
					job(fmt.Sprintf("small-%02d", i), 2, 0),
					job(fmt.Sprintf("big-%02d", i), 5, 0),
				} {
					if _, err := st.SubmitJob(j); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := st.SubmitJob(job("impossible", 99, 0)); err != nil {
				t.Fatal(err)
			}
			s := New(st, chain())
			s.Concurrency = 64

			// Each pass is checked against an oracle run on the state the
			// pass starts from. Between passes every placed job finishes,
			// so pass 2 re-places the same classes — from kept rankings
			// when the chain is static.
			total := 0
			for pass := 1; pass <= 3; pass++ {
				want := oracle(chain(), st.Nodes.List(), st.PendingJobs())
				before := assignments(t, st)
				if bound := s.SchedulePass(); bound != len(want) {
					t.Fatalf("pass %d bound %d jobs, oracle places %d", pass, bound, len(want))
				}
				got := assignments(t, st)
				for name := range before {
					delete(got, name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d placements diverge from the per-job oracle:\n got %v\nwant %v", pass, got, want)
				}
				total += len(want)
				for name, nodeName := range got {
					if _, _, err := st.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
						j.Status.Phase = api.JobSucceeded
						return j, nil
					}); err != nil {
						t.Fatal(err)
					}
					if err := st.ReleaseNode(nodeName, name); err != nil {
						t.Fatal(err)
					}
				}
			}
			if total != 12 {
				t.Fatalf("three passes placed %d jobs, want all 12 feasible ones", total)
			}
			if j, _, _ := st.Jobs.Get("impossible"); j.Status.Phase != api.JobPending {
				t.Fatalf("infeasible job is %s", j.Status.Phase)
			}
		})
	}
}

// TestKeptRankingsSeeMembershipChanges: the cross-pass ranking cache
// a static chain earns must be dropped when a node joins or leaves, or
// jobs keep ranking against the old fleet.
func TestKeptRankingsSeeMembershipChanges(t *testing.T) {
	st := state.New()
	node(t, st, "old", 3, 0.10)
	scorer := staticScore{scores: map[string]float64{"old": 1, "new": 2}}
	s := New(st, NewFramework(scorer, QubitCount{}, Characteristics{}))
	s.Concurrency = 4

	if _, err := st.SubmitJob(job("warm", 2, 0)); err != nil {
		t.Fatal(err)
	}
	if s.SchedulePass() != 1 {
		t.Fatal("warm-up job not bound")
	}
	// A bigger node joins; a job only it can host must be schedulable even
	// though its spec class is new and the kept rankings were already warm.
	node(t, st, "new", 8, 0.05)
	if _, _, err := st.Nodes.Update("new", func(n api.Node) (api.Node, error) {
		n.Spec.MaxContainers = 4 // room for both the redirect and the warm class
		return n, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SubmitJob(job("needs-new", 5, 0)); err != nil {
		t.Fatal(err)
	}
	if s.SchedulePass() != 1 {
		t.Fatal("job for the new node not bound")
	}
	j, _, _ := st.Jobs.Get("needs-new")
	if j.Status.Node != "new" {
		t.Fatalf("bound to %s, want new", j.Status.Node)
	}
	// And the warm class must re-rank too: retire the old node, then a
	// same-spec job has to land on the remaining one.
	if err := st.Nodes.Delete("old"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SubmitJob(job("warm-2", 2, 0)); err != nil {
		t.Fatal(err)
	}
	if s.SchedulePass() != 1 {
		t.Fatal("warm-class job not bound after membership change")
	}
	j, _, _ = st.Jobs.Get("warm-2")
	if j.Status.Node != "new" {
		t.Fatalf("stale fleet ranking survived a node delete: bound to %s", j.Status.Node)
	}
}

// TestKeptRankingsSeeDeviceChanges: a static chain ranks on a node's
// registration-time identity, and a refresh that swaps the device under
// the same name changes that identity. A job the new device is too small
// for must not bind there on a ranking kept from the old one.
func TestKeptRankingsSeeDeviceChanges(t *testing.T) {
	st := state.New()
	node(t, st, "dev", 8, 0.05)
	s := New(st, NewFramework(staticScore{scores: map[string]float64{"dev": 1}}, QubitCount{}, Characteristics{}))
	if _, err := st.SubmitJob(job("warm", 5, 0)); err != nil {
		t.Fatal(err)
	}
	if s.SchedulePass() != 1 {
		t.Fatal("warm-up job not bound")
	}
	if _, _, err := st.Jobs.Update("warm", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobSucceeded
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.ReleaseNode("dev", "warm"); err != nil {
		t.Fatal(err)
	}
	small, err := device.UniformBackend("dev", graph.Line(3), 0.05, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RefreshNode(small); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SubmitJob(job("too-big", 5, 0)); err != nil {
		t.Fatal(err)
	}
	if bound := s.SchedulePass(); bound != 0 {
		j, _, _ := st.Jobs.Get("too-big")
		t.Fatalf("a 5-qubit job bound to %s, now a 3-qubit device, on a ranking kept from before the refresh", j.Status.Node)
	}
}

// TestOnlyStaticChainsKeepRankingsAcrossPasses: cross-pass reuse is
// selected by what the chain declares, not by a setting. The all-static
// chain scores a spec class once and never again while the fleet holds;
// add NodeReady — a load-reading filter — and every pass re-scores.
func TestOnlyStaticChainsKeepRankingsAcrossPasses(t *testing.T) {
	for _, tc := range []struct {
		name      string
		filters   []FilterPlugin
		wantReuse bool
	}{
		{"static", []FilterPlugin{QubitCount{}, Characteristics{}}, true},
		{"with-NodeReady", []FilterPlugin{NodeReady{}, QubitCount{}, Characteristics{}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := state.New()
			node(t, st, "a", 5, 0.1)
			node(t, st, "b", 5, 0.1)
			var calls atomic.Int64
			scorer := staticScore{scores: map[string]float64{"a": 1, "b": 2}, calls: &calls}
			s := New(st, NewFramework(scorer, tc.filters...))
			s.Concurrency = 4

			var perPass []int64
			for pass := 0; pass < 2; pass++ {
				if _, err := st.SubmitJob(job(fmt.Sprintf("j%d", pass), 2, 0)); err != nil {
					t.Fatal(err)
				}
				calls.Store(0)
				if s.SchedulePass() != 1 {
					t.Fatalf("pass %d bound nothing", pass)
				}
				perPass = append(perPass, calls.Load())
			}
			if perPass[0] == 0 {
				t.Fatal("first pass never scored — test is vacuous")
			}
			if reused := perPass[1] == 0; reused != tc.wantReuse {
				t.Fatalf("score calls per pass = %v, want reuse across passes = %v", perPass, tc.wantReuse)
			}
		})
	}
}

// TestDispatchActsOnEachBindOutcome drives Dispatch with a fake rank and
// a scripted bind through all three outcomes: NodeUnavailable kills the
// node for the pass and moves to the next candidate, Bound charges
// headroom, JobMoved stops the job but leaves the candidate live for the
// next one, and a class with nothing left is reported once.
func TestDispatchActsOnEachBindOutcome(t *testing.T) {
	var nodes []api.Node
	for _, name := range []string{"a", "b", "c"} {
		n := nodeNamed(name, nil)
		n.Status.Phase = api.NodeReady
		nodes = append(nodes, n)
	}
	ranks := 0
	rank := func(api.QuantumJob, []api.Node) ([]NodeScore, error) {
		ranks++
		return []NodeScore{{"a", 1}, {"b", 2}, {"c", 3}}, nil
	}
	script := map[string]BindOutcome{
		"j1@a": NodeUnavailable, // stale snapshot: a is full server-side
		"j1@b": Bound,
		"j2@c": JobMoved, // b is charged, so j2 goes straight to c — and loses the job
		"j3@c": Bound,    // c stayed live
	}
	var calls []string
	bind := func(j *api.QuantumJob, node string, _ float64) BindOutcome {
		call := j.Name + "@" + node
		calls = append(calls, call)
		out, ok := script[call]
		if !ok {
			t.Errorf("unexpected bind %s", call)
		}
		return out
	}
	d := NewDispatch(nodes, rank, bind)
	var events []string
	d.record = func(jobName, reason, _ string) { events = append(events, jobName+":"+reason) }

	chunk := []api.QuantumJob{jobNamed("j1"), jobNamed("j2"), jobNamed("j3"), jobNamed("j4"), jobNamed("j5")}
	if bound := d.Place(chunk, len(chunk)); bound != 2 {
		t.Fatalf("Place bound %d, want 2", bound)
	}
	if want := []string{"j1@a", "j1@b", "j2@c", "j3@c"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("bind calls = %v, want %v", calls, want)
	}
	if ranks != 1 {
		t.Fatalf("ranked %d times, want once for the one spec class", ranks)
	}
	// j4 finds a dead, b and c full: the class is exhausted, reported
	// once; j5 is skipped silently.
	if want := []string{"j4:Unschedulable"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}

	// A class that cannot be ranked is reported once under the error's
	// reason and never bound.
	failing := NewDispatch(nodes, func(api.QuantumJob, []api.Node) ([]NodeScore, error) {
		return nil, errors.New("scorer down")
	}, bind)
	events = nil
	failing.record = d.record
	if bound := failing.Place(chunk[:2], 2); bound != 0 {
		t.Fatalf("unrankable class bound %d jobs", bound)
	}
	if want := []string{"j1:SchedulingError"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

// TestSpecFingerprintSeparatesClasses: distinct specs must not collide on
// the obvious axes, and identical specs must agree.
func TestSpecFingerprintSeparatesClasses(t *testing.T) {
	a := job("a", 2, 0)
	b := job("b", 2, 0)
	if specFingerprint(&a.Spec) != specFingerprint(&b.Spec) {
		t.Fatal("identical specs produced different fingerprints")
	}
	seen := map[uint64]string{}
	variants := map[string]api.QuantumJob{
		"base":   job("v", 2, 0),
		"qubits": job("v", 3, 0),
		"maxerr": job("v", 2, 0.5),
	}
	tenant := job("v", 2, 0)
	tenant.Spec.Tenant = "beta"
	variants["tenant"] = tenant
	shots := job("v", 2, 0)
	shots.Spec.Shots = 4096
	variants["shots"] = shots
	qasm := job("v", 2, 0)
	qasm.Spec.QASM += "\nh q[1];"
	variants["qasm"] = qasm
	for label, v := range variants {
		fp := specFingerprint(&v.Spec)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("variants %q and %q collide on fingerprint %016x", prev, label, fp)
		}
		seen[fp] = label
	}
}
