package transpile_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/statevec"
	"qrio/internal/transpile"
)

func lineBackend(t *testing.T, n int) *device.Backend {
	t.Helper()
	b, err := device.UniformBackend("line", graph.Line(n), 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// distEqual compares two distributions with tolerance.
func distEqual(a, b map[string]float64, tol float64) bool {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		if math.Abs(a[k]-b[k]) > tol {
			return false
		}
	}
	return true
}

// checkEquivalent transpiles and verifies the measured distribution is
// preserved — the end-to-end semantic test.
func checkEquivalent(t *testing.T, c *circuit.Circuit, b *device.Backend, opts transpile.Options) *transpile.Result {
	t.Helper()
	measured := c.Copy()
	if !measured.HasMeasurements() {
		measured.MeasureAll()
	}
	want, err := statevec.IdealDistribution(measured)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transpile.Transpile(measured, b, opts)
	if err != nil {
		t.Fatalf("transpile failed: %v", err)
	}
	got, err := statevec.IdealDistribution(res.Circuit)
	if err != nil {
		t.Fatalf("transpiled circuit does not simulate: %v", err)
	}
	if !distEqual(want, got, 1e-9) {
		t.Fatalf("distribution changed by transpilation\nwant %v\ngot  %v\ncircuit %v",
			want, got, res.Circuit.Gates)
	}
	return res
}

func TestBellOnLine(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	res := checkEquivalent(t, c, lineBackend(t, 4), transpile.Options{})
	for _, g := range res.Circuit.Gates {
		switch g.Name {
		case "u1", "u2", "u3", "cx", "measure", "barrier", "reset":
		default:
			t.Fatalf("non-basis gate %q in output", g.Name)
		}
	}
}

func TestRoutingLongRange(t *testing.T) {
	// cx between the two ends of a line forces swaps.
	c := circuit.New(5)
	c.H(0)
	c.CX(0, 4)
	res := checkEquivalent(t, c, lineBackend(t, 5), transpile.Options{})
	if res.AddedSwaps == 0 && !res.PerfectLayout {
		// Either the layout placed 0 and 4 adjacent (perfect) or routing
		// must have inserted swaps.
		t.Fatalf("long-range cx needed no swaps and no perfect layout")
	}
	// Every 2q gate must act on a coupling edge.
	b := lineBackend(t, 5)
	for _, g := range res.Circuit.Gates {
		if g.Name == "cx" && !b.Coupling.HasEdge(g.Qubits[0], g.Qubits[1]) {
			t.Fatalf("cx on non-edge (%d,%d)", g.Qubits[0], g.Qubits[1])
		}
	}
}

func TestGHZOnRing(t *testing.T) {
	b, err := device.UniformBackend("ring", graph.Ring(6), 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(4)
	c.H(0)
	c.CX(0, 1)
	c.CX(0, 2)
	c.CX(0, 3)
	checkEquivalent(t, c, b, transpile.Options{})
}

func TestCCXDecomposition(t *testing.T) {
	c := circuit.New(3)
	c.X(0)
	c.X(1)
	c.CCX(0, 1, 2)
	res := checkEquivalent(t, c, lineBackend(t, 4), transpile.Options{})
	for _, g := range res.Circuit.Gates {
		if len(g.Qubits) > 2 {
			t.Fatalf("multi-qubit gate %v survived", g)
		}
	}
}

func randomTestCircuit(rng *rand.Rand, n int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < 20; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.U3(rng.Intn(n), rng.Float64()*3, rng.Float64()*3, rng.Float64()*3)
		case 3, 4:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		case 5:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CZ(a, b)
		}
	}
	return c
}

// TestRandomCircuitsOnRandomDevices is the transpiler's core property test:
// measured distributions are preserved across random circuits, devices and
// option combinations.
func TestRandomCircuitsOnRandomDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	optVariants := []transpile.Options{
		{},
		{DisableVF2Layout: true},
		{SkipOptimize: true},
		{DisableVF2Layout: true, SkipOptimize: true},
	}
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		c := randomTestCircuit(rng, n)
		devQubits := n + rng.Intn(4)
		coupling := graph.RandomConnected(devQubits, 0.2+0.6*rng.Float64(), 4, rng)
		b, err := device.UniformBackend("rand", coupling, 0.1, 0.01, 0.02, 100e3, 100e3)
		if err != nil {
			t.Fatal(err)
		}
		opts := optVariants[trial%len(optVariants)]
		checkEquivalent(t, c, b, opts)
	}
}

func TestOptimizeReducesGateCount(t *testing.T) {
	c := circuit.New(2)
	// Six 1q gates on the same qubit fuse to at most one; cx-cx cancels.
	c.H(0)
	c.H(0)
	c.T(0)
	c.Tdg(0)
	c.S(0)
	c.Sdg(0)
	c.CX(0, 1)
	c.CX(0, 1)
	b := lineBackend(t, 2)
	plain, err := transpile.Transpile(c, b, transpile.Options{SkipOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := transpile.Transpile(c, b, transpile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Circuit.Size() >= plain.Circuit.Size() {
		t.Fatalf("optimisation did not help: %d vs %d gates",
			opt.Circuit.Size(), plain.Circuit.Size())
	}
	if opt.Circuit.Size() != 0 {
		t.Fatalf("fully cancelling circuit left %d gates: %v",
			opt.Circuit.Size(), opt.Circuit.Gates)
	}
}

func TestPerfectLayoutAvoidsSwaps(t *testing.T) {
	// A line-shaped circuit on a line device must embed perfectly.
	c := circuit.New(4)
	for q := 0; q < 3; q++ {
		c.CX(q, q+1)
	}
	res, err := transpile.Transpile(c, lineBackend(t, 6), transpile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PerfectLayout {
		t.Fatal("line circuit did not embed perfectly in line device")
	}
	if res.AddedSwaps != 0 {
		t.Fatalf("perfect layout still swapped %d times", res.AddedSwaps)
	}
}

func TestTooManyQubitsRejected(t *testing.T) {
	c := circuit.New(10)
	c.H(0)
	if _, err := transpile.Transpile(c, lineBackend(t, 4), transpile.Options{}); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func TestBasisCheck(t *testing.T) {
	b := lineBackend(t, 3)
	b.BasisGates = []string{"rx", "rz", "cz"}
	c := circuit.New(2)
	c.H(0)
	if _, err := transpile.Transpile(c, b, transpile.Options{}); err == nil {
		t.Fatal("unsupported basis accepted")
	}
}

func TestMeasurementMappingSurvivesRouting(t *testing.T) {
	// A circuit that certainly routes: entangle ends of a 6-line, measure
	// only qubit 5 into clbit 0, expect the marginal to survive.
	c := circuit.NewWithClbits(6, 1)
	c.X(0)
	c.CX(0, 5)
	c.Measure(5, 0)
	b := lineBackend(t, 6)
	res, err := transpile.Transpile(c, b, transpile.Options{DisableVF2Layout: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := statevec.IdealDistribution(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["1"]-1) > 1e-9 {
		t.Fatalf("measurement mapping broken: %v", got)
	}
}

func TestFinalLayoutTracksSwaps(t *testing.T) {
	c := circuit.New(3)
	c.CX(0, 2) // on a 3-line with trivial layout this needs one swap
	res, err := transpile.Transpile(c, lineBackend(t, 3), transpile.Options{DisableVF2Layout: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalLayout) != 3 || len(res.InitialLayout) != 3 {
		t.Fatalf("layout sizes wrong: %v %v", res.InitialLayout, res.FinalLayout)
	}
	// Final layout must be a permutation.
	seen := map[int]bool{}
	for _, p := range res.FinalLayout {
		if seen[p] {
			t.Fatalf("final layout not injective: %v", res.FinalLayout)
		}
		seen[p] = true
	}
}

// fleetDevice returns one device of the default fleet by name.
func fleetDevice(t *testing.T, name string) *device.Backend {
	t.Helper()
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fleet {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no device %q in the default fleet", name)
	return nil
}

// TestLayoutIsDeterministic: the interaction graph is built in sorted edge
// order, so repeated transpiles of one circuit on one backend choose one
// layout. (It used to be built by ranging over a map; adjacency order —
// and with it the first VF2 embedding found — changed from call to call.)
func TestLayoutIsDeterministic(t *testing.T) {
	// One of the default fleet's devices on which a 5-ring has several
	// embeddings reachable from different adjacency orders.
	b := fleetDevice(t, "sim-q15-p045")
	c := circuit.New(5)
	for q := 0; q < 5; q++ {
		c.CX(q, (q+1)%5)
	}
	c.MeasureAll()
	var first []int
	for i := 0; i < 50; i++ {
		tr, err := transpile.Transpile(c, b, transpile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = tr.InitialLayout
		}
		if !reflect.DeepEqual(tr.InitialLayout, first) {
			t.Fatalf("transpile %d chose layout %v, the first chose %v", i, tr.InitialLayout, first)
		}
	}
}
