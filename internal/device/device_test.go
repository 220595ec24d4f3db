package device

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"qrio/internal/graph"
)

func TestDefaultFleetMatchesTable2(t *testing.T) {
	spec := DefaultFleetSpec()
	fleet, err := GenerateFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 100 {
		t.Fatalf("fleet size = %d, want 100", len(fleet))
	}
	seenQubits := map[int]int{}
	for _, b := range fleet {
		if err := b.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", b.Name, err)
		}
		seenQubits[b.NumQubits]++
		if !b.Coupling.Connected() {
			t.Errorf("%s: disconnected coupling map", b.Name)
		}
		if d := b.Coupling.MaxDegree(); d > spec.MaxDegree+1 {
			t.Errorf("%s: degree %d exceeds cap", b.Name, d)
		}
		// Readout from the Table 2 choices.
		ro := b.ReadoutErr[0]
		if ro != 0.05 && ro != 0.15 {
			t.Errorf("%s: readout %v not in {0.05, 0.15}", b.Name, ro)
		}
		t1 := b.T1us[0]
		if t1 != 500e3 && t1 != 100e3 {
			t.Errorf("%s: T1 %v not in {500e3, 100e3}", b.Name, t1)
		}
		if b.ReadoutLenNS[0] != 30 {
			t.Errorf("%s: readout length %v != 30ns", b.Name, b.ReadoutLenNS[0])
		}
	}
	for _, nq := range spec.QubitCounts {
		if seenQubits[nq] != 10 {
			t.Errorf("qubit count %d appears %d times, want 10", nq, seenQubits[nq])
		}
	}
}

func TestFleetIsDeterministic(t *testing.T) {
	a, err := GenerateFleet(DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFleet(DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].AvgTwoQubitErr() != b[i].AvgTwoQubitErr() {
			t.Fatalf("fleet not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if !a[i].Coupling.Equal(b[i].Coupling) {
			t.Fatalf("coupling maps differ at %d", i)
		}
	}
}

func TestFleetAvgErrorsSpreadAcrossRange(t *testing.T) {
	// The DESIGN.md substitution: device average 2q errors must spread
	// across [ErrLow, ErrHigh], not concentrate at the midpoint — Fig. 10
	// depends on this.
	fleet, err := GenerateFleet(DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	low, high := 0, 0
	for _, b := range fleet {
		avg := b.AvgTwoQubitErr()
		if avg < 0.2 {
			low++
		}
		if avg > 0.5 {
			high++
		}
	}
	if low < 10 || high < 10 {
		t.Fatalf("avg 2q errors not spread: %d below 0.2, %d above 0.5", low, high)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	fleet, err := GenerateFleet(DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	b := fleet[7]
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back Backend
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != b.Name || back.NumQubits != b.NumQubits {
		t.Fatal("identity lost in round trip")
	}
	if !back.Coupling.Equal(b.Coupling) {
		t.Fatal("coupling lost in round trip")
	}
	if math.Abs(back.AvgTwoQubitErr()-b.AvgTwoQubitErr()) > 1e-12 {
		t.Fatal("errors lost in round trip")
	}
	if back.CPUMillis != b.CPUMillis || back.MemoryMB != b.MemoryMB {
		t.Fatal("classical capacity lost in round trip")
	}
}

// TestJSONRoundTripKeepsAdjacencyOrder: every default-fleet device decodes
// with each qubit's neighbours in the order the generated device lists
// them. Routing walks adjacency lists in order, so a node's decoded device
// (what its kubelet executes on) must route as the generated one (what the
// Meta Server scores) does.
func TestJSONRoundTripKeepsAdjacencyOrder(t *testing.T) {
	fleet, err := GenerateFleet(DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fleet {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		var back Backend
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < b.NumQubits; q++ {
			if got, want := back.Coupling.Neighbors(q), b.Coupling.Neighbors(q); !slices.Equal(got, want) {
				t.Fatalf("%s qubit %d: decoded neighbours %v, generated %v", b.Name, q, got, want)
			}
		}
		if back.Coupling.Digest() != b.Coupling.Digest() {
			t.Fatalf("%s: decoded coupling digest differs", b.Name)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	// An edge without a recorded error must fail validation.
	bad := `{"name":"x","num_qubits":2,"coupling_map":[[0,1]],
		"two_qubit_error":[],"one_qubit_error":[0.1,0.1],
		"readout_error":[0.1,0.1],"readout_length_ns":[30,30],
		"t1_us":[1,1],"t2_us":[1,1],"basis_gates":["u1","u2","u3","cx"]}`
	var b Backend
	if err := json.Unmarshal([]byte(bad), &b); err == nil {
		t.Fatal("corrupt backend accepted")
	}
}

func TestNoiseModelMirrorsCalibration(t *testing.T) {
	g := graph.Line(3)
	b, err := UniformBackend("u", g, 0.2, 0.05, 0.1, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	m := b.NoiseModel()
	if m.TwoQubitProb(0, 1) != 0.2 {
		t.Fatalf("2q prob = %v", m.TwoQubitProb(0, 1))
	}
	if m.TwoQubitProb(0, 2) != 0.99 {
		t.Fatalf("off-coupling prob = %v, want punitive 0.99", m.TwoQubitProb(0, 2))
	}
	if m.OneQubit[1] != 0.05 || m.Readout[2] != 0.1 {
		t.Fatal("1q/readout not mirrored")
	}
}

func TestAverages(t *testing.T) {
	g := graph.Line(2)
	b, err := UniformBackend("u", g, 0.3, 0.01, 0.07, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if b.AvgTwoQubitErr() != 0.3 || b.AvgOneQubitErr() != 0.01 ||
		b.AvgReadoutErr() != 0.07 || b.AvgT1us() != 500e3 || b.AvgT2us() != 100e3 {
		t.Fatalf("averages wrong: %v %v %v %v %v",
			b.AvgTwoQubitErr(), b.AvgOneQubitErr(), b.AvgReadoutErr(), b.AvgT1us(), b.AvgT2us())
	}
}

func TestGenerateBackendSingle(t *testing.T) {
	b, err := GenerateBackend("solo", 12, 0.5, DefaultFleetSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumQubits != 12 || !b.Coupling.Connected() {
		t.Fatalf("bad single backend: %v", b)
	}
}

func TestSpecValidation(t *testing.T) {
	s := DefaultFleetSpec()
	s.ErrHigh = 1.2
	if _, err := GenerateFleet(s); err == nil {
		t.Fatal("invalid error range accepted")
	}
	s = DefaultFleetSpec()
	s.QubitCounts = nil
	if _, err := GenerateFleet(s); err == nil {
		t.Fatal("empty qubit list accepted")
	}
}
