package mapomatic_test

import (
	"math"
	"reflect"
	"testing"

	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/quantum/circuit"
)

func uniform(t *testing.T, name string, g *graph.Graph, e2 float64) *device.Backend {
	t.Helper()
	b, err := device.UniformBackend(name, g, e2, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDeflate(t *testing.T) {
	c := circuit.New(10)
	c.H(7)
	c.CX(7, 2)
	d, active, err := mapomatic.Deflate(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumQubits != 2 {
		t.Fatalf("deflated to %d qubits, want 2", d.NumQubits)
	}
	if len(active) != 2 || active[0] != 2 || active[1] != 7 {
		t.Fatalf("active = %v, want [2 7]", active)
	}
	// h was on 7 -> compact index 1.
	if d.Gates[0].Qubits[0] != 1 {
		t.Fatalf("h remapped to %d, want 1", d.Gates[0].Qubits[0])
	}
}

func TestLayoutCostPrefersLowErrorEdges(t *testing.T) {
	g := graph.Line(3)
	b := uniform(t, "l", g, 0.1)
	// Make edge (0,1) much better than (1,2).
	b.TwoQubitErr[[2]int{0, 1}] = 0.01
	b.TwoQubitErr[[2]int{1, 2}] = 0.5

	c := circuit.New(2)
	c.CX(0, 1)
	s, err := mapomatic.BestLayout(c, b, mapomatic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Routed {
		t.Fatal("2q circuit on a line should embed perfectly")
	}
	got := [2]int{s.Layout[0], s.Layout[1]}
	if !(got == [2]int{0, 1} || got == [2]int{1, 0}) {
		t.Fatalf("layout = %v, want the low-error edge (0,1)", s.Layout)
	}
	want := -math.Log(1-0.01) - 2*math.Log(1-0.01) // one cx + no measures; plus 0 readout
	_ = want
}

func TestCostValue(t *testing.T) {
	g := graph.Line(2)
	b := uniform(t, "c", g, 0.2)
	c := circuit.New(2)
	c.CX(0, 1)
	c.MeasureAll()
	s, err := mapomatic.BestLayout(c, b, mapomatic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := -math.Log(1-0.2) - 2*math.Log(1-0.02)
	if math.Abs(s.Cost-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v (-ln(1-e2) - 2·ln(1-ro))", s.Cost, want)
	}
}

func TestU1IsFree(t *testing.T) {
	g := graph.Line(2)
	b := uniform(t, "f", g, 0.2)
	c1 := circuit.New(1)
	c1.U1(0, 1.0)
	s, err := mapomatic.BestLayout(c1, b, mapomatic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 0 {
		t.Fatalf("u1 charged cost %v, want 0 (virtual Z)", s.Cost)
	}
}

func TestRoutedFallbackForDensePattern(t *testing.T) {
	// K4 cannot embed in a line: must route and cost extra cx.
	full := mapomatic.TopologyCircuit(graph.Full(4))
	line := uniform(t, "line", graph.Line(6), 0.1)
	s, err := mapomatic.BestLayout(full, line, mapomatic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Routed {
		t.Fatal("K4 on a line must use the routed fallback")
	}
	if s.ExtraCX == 0 {
		t.Fatal("routing reported zero extra cx")
	}
	// A perfect host scores strictly lower.
	fullDev := uniform(t, "full", graph.Full(4), 0.1)
	s2, err := mapomatic.BestLayout(full, fullDev, mapomatic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Routed {
		t.Fatal("K4 on K4 should embed perfectly")
	}
	if s2.Cost >= s.Cost {
		t.Fatalf("perfect embedding cost %v >= routed cost %v", s2.Cost, s.Cost)
	}
}

func TestDisableRoutedFallback(t *testing.T) {
	full := mapomatic.TopologyCircuit(graph.Full(4))
	line := uniform(t, "line", graph.Line(6), 0.1)
	if _, err := mapomatic.BestLayout(full, line, mapomatic.Options{DisableRoutedFallback: true}); err == nil {
		t.Fatal("expected failure with fallback disabled")
	}
}

func TestRankBackendsOrdering(t *testing.T) {
	ring := mapomatic.TopologyCircuit(graph.Ring(4))
	good := uniform(t, "good", graph.Ring(8), 0.05)
	bad := uniform(t, "bad", graph.Ring(8), 0.5)
	tiny := uniform(t, "tiny", graph.Ring(3), 0.01) // too small, filtered out
	scores := mapomatic.RankBackends(ring, []*device.Backend{bad, good, tiny}, mapomatic.Options{})
	if len(scores) != 2 {
		t.Fatalf("got %d scores, want 2 (tiny filtered)", len(scores))
	}
	if scores[0].Backend != "good" || scores[1].Backend != "bad" {
		t.Fatalf("ranking wrong: %v", scores)
	}
	if scores[0].Cost >= scores[1].Cost {
		t.Fatal("scores not sorted ascending")
	}
}

func TestTopologyCircuit(t *testing.T) {
	g := graph.Ring(5)
	c := mapomatic.TopologyCircuit(g)
	if c.NumQubits != 5 {
		t.Fatalf("topology circuit has %d qubits", c.NumQubits)
	}
	if c.TwoQubitGateCount() != 5 {
		t.Fatalf("topology circuit has %d cx, want 5", c.TwoQubitGateCount())
	}
	// Interaction graph must equal the input graph.
	ig := graph.New(5)
	for e := range c.InteractionGraph() {
		ig.MustAddEdge(e.A, e.B)
	}
	if !ig.Equal(g) {
		t.Fatal("interaction graph differs from requested topology")
	}
}

func TestBestLayoutPicksBestSubgraphWithinDevice(t *testing.T) {
	// Device: two disjoint-ish triangles connected by a bridge; one
	// triangle has low-error edges. A triangle request must land there.
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	b := uniform(t, "tri", g, 0.4)
	for _, e := range [][2]int{{4, 5}, {5, 6}, {4, 6}} {
		b.TwoQubitErr[[2]int{e[0], e[1]}] = 0.02
	}
	tri := mapomatic.TopologyCircuit(graph.Ring(3)) // triangle
	s, err := mapomatic.BestLayout(tri, b, mapomatic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Routed {
		t.Fatal("triangle should embed")
	}
	for _, p := range s.Layout {
		if p != 4 && p != 5 && p != 6 {
			t.Fatalf("layout %v not on the low-error triangle", s.Layout)
		}
	}
}

func TestOversizedCircuitErrors(t *testing.T) {
	c := mapomatic.TopologyCircuit(graph.Ring(10))
	b := uniform(t, "small", graph.Ring(4), 0.1)
	if _, err := mapomatic.BestLayout(c, b, mapomatic.Options{}); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

// TestBestLayoutIsDeterministic: with MaxLayouts capping the enumeration,
// which embeddings are scored depends on VF2's visiting order, and that on
// the pattern's adjacency order — built sorted (transpile.InteractionGraph),
// so fifty searches return one layout and one cost.
func TestBestLayoutIsDeterministic(t *testing.T) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	b := fleet[3] // sim-q15-p045: a 5-ring embeds there in several ways
	c := mapomatic.TopologyCircuit(graph.Ring(5))
	var first mapomatic.Score
	for i := 0; i < 50; i++ {
		s, err := mapomatic.BestLayout(c, b, mapomatic.Options{MaxLayouts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = s
		}
		if !reflect.DeepEqual(s, first) {
			t.Fatalf("search %d found %+v, the first found %+v", i, s, first)
		}
	}
}
