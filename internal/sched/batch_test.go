package sched

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/device"
	"qrio/internal/faults"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/meta"
	"qrio/internal/par"
	"qrio/internal/quantum/qasm"
	"qrio/internal/resilience"
)

// rankStack is the scorer chain core.New wires — ResilientMetaScore over
// a real Meta Server firing meta.score on its own registry — under a
// framework with the default filters.
type rankStack struct {
	srv      *meta.Server
	faults   *faults.Registry
	breaker  *resilience.Breaker
	fw       *Framework
	degraded atomic.Int32 // OnDegraded calls
}

// perNode hides a scorer's ScoreEach, so Rank scores node by node.
type perNode struct{ ScorePlugin }

// newRankStack builds a stack over fleet; threshold 0 keeps the
// breaker's default. With perNodePath the framework sees the chain
// through perNode.
func newRankStack(t *testing.T, fleet []*device.Backend, fc *stubClock, threshold int, perNodePath bool) *rankStack {
	t.Helper()
	s := &rankStack{
		srv:     meta.NewServer(meta.Options{}),
		faults:  faults.NewRegistry(7),
		breaker: &resilience.Breaker{FailureThreshold: threshold, Clock: fc},
	}
	s.srv.Faults = s.faults
	for _, dev := range fleet {
		if err := s.srv.RegisterBackend(dev); err != nil {
			t.Fatal(err)
		}
	}
	var sc ScorePlugin = &ResilientMetaScore{
		Scorer:     s.srv,
		Breaker:    s.breaker,
		Clock:      fc,
		OnDegraded: func(string) { s.degraded.Add(1) },
	}
	if perNodePath {
		sc = perNode{sc}
	}
	s.fw = NewFramework(sc, DefaultFilters()...)
	// One scoring slot: the per-node path then scores in node order, so
	// both paths draw the seeded faults for the same nodes.
	s.fw.scoring = par.NewLimit(1)
	return s
}

// put uploads a job's metadata and returns the job Rank takes.
func (s *rankStack) put(t *testing.T, m meta.JobMeta) api.QuantumJob {
	t.Helper()
	if err := s.srv.PutJobMeta(m); err != nil {
		t.Fatal(err)
	}
	return api.QuantumJob{ObjectMeta: api.ObjectMeta{Name: m.JobName},
		Spec: api.JobSpec{QASM: m.CircuitQASM, Strategy: m.Strategy, TargetFidelity: m.TargetFidelity}}
}

// fleetNodes registers the fleet, plus the backends in extra, as nodes and
// returns the scheduler's name-ordered view of them.
func fleetNodes(t *testing.T, fleet []*device.Backend, extra ...*device.Backend) []api.Node {
	t.Helper()
	st := state.New()
	for _, dev := range append(append([]*device.Backend(nil), fleet...), extra...) {
		if _, err := st.AddNode(dev); err != nil {
			t.Fatal(err)
		}
	}
	nodes, _ := st.Fleet()
	return nodes
}

func fidelityMeta(name, src string) meta.JobMeta {
	return meta.JobMeta{JobName: name, Strategy: api.StrategyFidelity, TargetFidelity: 0.9, CircuitQASM: src}
}

// TestBatchRankMatchesPerNode: Framework.Rank through ResilientMetaScore's
// batch path returns the same ranking, the same error and the same Meta
// Server cache counts as the per-node path, step by step: a cold, a warm
// and a half-warm cache row, a node whose backend meta does not know, a
// topology job that some devices cannot host, a seeded meta.score error
// fault at probability 0.3, and an outage that opens the breaker.
func TestBatchRankMatchesPerNode(t *testing.T) {
	spec := device.DefaultFleetSpec()
	spec.QubitCounts = []int{15, 20}
	fleet, err := device.GenerateFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	ghost, err := device.UniformBackend("ghost", graph.Line(3), 0.02, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := fleetNodes(t, fleet, ghost) // ghost is a node meta never heard of
	topo, err := qasm.Dump(mapomatic.TopologyCircuit(graph.Line(16)))
	if err != nil {
		t.Fatal(err)
	}
	const (
		bell = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;"
		ghz  = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> c;"
		flip = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nx q[0];\ncx q[0],q[1];\nh q[1];\nmeasure q -> c;"
	)
	steps := []struct {
		name  string
		job   meta.JobMeta
		nodes []api.Node
		arm   *faults.Spec // nil disarms meta.score
	}{
		{"cold row", fidelityMeta("cold", bell), nodes, nil},
		{"warm row", fidelityMeta("warm", bell), nodes, nil},
		{"half of a row", fidelityMeta("half-a", ghz), nodes[:len(nodes)/2], nil},
		{"half-warm row", fidelityMeta("half-b", ghz), nodes, nil},
		{"topology", meta.JobMeta{JobName: "topo", Strategy: api.StrategyTopology, TopologyQASM: topo}, nodes, nil},
		{"faults on a warm row", fidelityMeta("faulty-warm", bell), nodes, &faults.Spec{Probability: 0.3}},
		{"faults on a cold row", fidelityMeta("faulty-cold", flip), nodes, &faults.Spec{Probability: 0.3}},
		{"outage", fidelityMeta("outage", ghz), nodes, &faults.Spec{}},
		{"open breaker", fidelityMeta("unseen", flip), nodes, &faults.Spec{}},
	}
	fc := newStubClock()
	batch := newRankStack(t, fleet, fc, 20, false)
	each := newRankStack(t, fleet, fc, 20, true)
	for _, step := range steps {
		var got [2][]NodeScore
		var errs [2]string
		for k, s := range []*rankStack{batch, each} {
			if step.arm != nil {
				s.faults.Enable(faults.PointMetaScore, *step.arm)
			} else {
				s.faults.Disable(faults.PointMetaScore)
			}
			ranked, err := s.fw.Rank(s.put(t, step.job), step.nodes)
			got[k] = ranked
			if err != nil {
				errs[k] = err.Error()
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) || errs[0] != errs[1] {
			t.Fatalf("%s: batch ranked %v (err %q), per-node %v (err %q)", step.name, got[0], errs[0], got[1], errs[1])
		}
		if b, e := batch.srv.CacheStats(), each.srv.CacheStats(); b != e {
			t.Fatalf("%s: batch cache %+v, per-node %+v", step.name, b, e)
		}
		if b, e := batch.breaker.State(), each.breaker.State(); b != e {
			t.Fatalf("%s: batch breaker %v, per-node %v", step.name, b, e)
		}
		// The steps must reach the cases they are named for.
		st := batch.srv.CacheStats()
		switch step.name {
		case "cold row":
			if st.Hits != 0 || st.Misses != uint64(len(fleet)) || len(got[0]) != len(nodes) {
				t.Fatalf("cold row: %+v, %d ranked, want %d misses and every node ranked", st, len(got[0]), len(fleet))
			}
		case "warm row":
			if st.Hits != uint64(len(fleet)) {
				t.Fatalf("warm row: %+v, want %d hits", st, len(fleet))
			}
		case "topology":
			// A device that cannot host the layout fails its live score, so
			// the fallback chain ranks it. (Both stacks look, to keep their
			// cache counts level.)
			cannot := 0
			for _, s := range []*rankStack{batch, each} {
				cannot = 0
				for _, r := range s.srv.ScoreBatch("topo", nodeNames(nodes[1:]), 0) {
					if r.Error != "" {
						cannot++
					}
				}
			}
			if cannot == 0 || cannot == len(fleet) {
				t.Fatalf("topology: %d of %d devices cannot host it, want some but not all", cannot, len(fleet))
			}
		case "faults on a cold row":
			if n := batch.faults.Fired(faults.PointMetaScore); n == 0 {
				t.Fatal("faults steps fired no fault")
			}
		case "outage":
			if batch.breaker.State() != resilience.Open {
				t.Fatalf("outage: breaker %v, want open", batch.breaker.State())
			}
		}
	}
	if b, e := batch.degraded.Load(), each.degraded.Load(); b != 1 || e != 1 {
		t.Fatalf("SchedulingDegraded announcements: batch %d, per-node %d, want 1 each", b, e)
	}
}

// TestWarmBatchDoesNotFanOut: ResilientMetaScore's batch form hands its
// misses, and only its misses, to the fan-out — the one place scoring
// holds a slot of the framework's limit — so a rank whose scores are all
// cached takes no slot: it completes while every slot is held elsewhere,
// where a cold rank waits for one.
func TestWarmBatchDoesNotFanOut(t *testing.T) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	nodes := fleetNodes(t, fleet)
	s := newRankStack(t, fleet, newStubClock(), 0, false)
	rms := s.fw.Scorer.(*ResilientMetaScore)
	job := s.put(t, fidelityMeta("bell", "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"))
	lim := par.NewLimit(1)
	score := func() <-chan []error {
		done := make(chan []error, 1)
		go func() {
			_, errs := rms.ScoreEach(job, nodes, lim)
			done <- errs
		}()
		return done
	}
	check := func(row string, errs []error) {
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s row: %s: %v", row, nodes[i].Name, err)
			}
		}
	}

	lim <- struct{}{} // every slot held elsewhere
	cold := score()
	select {
	case <-cold:
		t.Fatal("cold row: scored its misses without a slot")
	case <-time.After(50 * time.Millisecond):
	}
	<-lim
	check("cold", <-cold)
	if st := s.srv.CacheStats(); st.Misses != uint64(len(nodes)) {
		t.Fatalf("cold row: %+v, want %d misses", st, len(nodes))
	}

	lim <- struct{}{}
	select {
	case errs := <-score():
		check("warm", errs)
	case <-time.After(10 * time.Second):
		t.Fatal("warm row: waited for a scoring slot")
	}
	<-lim
}
