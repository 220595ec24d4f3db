package stabilizer_test

import (
	"math"
	"math/rand"
	"testing"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/stabilizer"
	"qrio/internal/quantum/statevec"
)

func TestZeroStateMeasuresZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := stabilizer.New(3)
	for q := 0; q < 3; q++ {
		if out := tb.Measure(q, rng); out != 0 {
			t.Fatalf("qubit %d of |000> measured %d", q, out)
		}
	}
}

func TestDeterministicOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := stabilizer.New(2)
	tb.X(0)
	if out := tb.Measure(0, rng); out != 1 {
		t.Fatalf("X|0> measured %d, want 1", out)
	}
	if out := tb.Measure(1, rng); out != 0 {
		t.Fatalf("untouched qubit measured %d, want 0", out)
	}
}

func TestBellCorrelations(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	c.MeasureAll()
	counts, err := stabilizer.Runner{Shots: 2000, Seed: 3}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	if counts["01"]+counts["10"] != 0 {
		t.Fatalf("bell state gave uncorrelated outcomes: %v", counts)
	}
	frac := float64(counts["00"]) / 2000
	if frac < 0.44 || frac > 0.56 {
		t.Fatalf("bell 00 fraction = %v", frac)
	}
}

func TestRepeatedMeasurementIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := stabilizer.New(1)
	tb.H(0)
	first := tb.Measure(0, rng)
	for i := 0; i < 10; i++ {
		if out := tb.Measure(0, rng); out != first {
			t.Fatalf("repeated measurement changed: %d then %d", first, out)
		}
	}
}

// randomCliffordCircuit builds a random Clifford circuit over the gate set
// the tableau supports, including parameterised Clifford angles.
func randomCliffordCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	halfPi := math.Pi / 2
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.S(rng.Intn(n))
		case 2:
			c.Sdg(rng.Intn(n))
		case 3:
			names := []string{"x", "y", "z", "sx"}
			c.MustAppend(circuit.Gate{Name: names[rng.Intn(4)], Qubits: []int{rng.Intn(n)}})
		case 4:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		case 5:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			if rng.Intn(2) == 0 {
				c.CZ(a, b)
			} else {
				c.Swap(a, b)
			}
		case 6:
			k := float64(rng.Intn(4)) * halfPi
			switch rng.Intn(3) {
			case 0:
				c.RX(rng.Intn(n), k)
			case 1:
				c.RY(rng.Intn(n), k)
			default:
				c.RZ(rng.Intn(n), k)
			}
		case 7:
			c.U3(rng.Intn(n),
				float64(rng.Intn(4))*halfPi,
				float64(rng.Intn(4))*halfPi,
				float64(rng.Intn(4))*halfPi)
		}
	}
	return c
}

// TestAgreementWithStatevector is the core cross-validation property: on
// random Clifford circuits, the tableau's exact outcome probabilities must
// match the dense simulator's for every basis state.
func TestAgreementWithStatevector(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 4
	for trial := 0; trial < 60; trial++ {
		c := randomCliffordCircuit(rng, n, 25)
		sv, err := statevec.Run(c)
		if err != nil {
			t.Fatalf("trial %d: statevec failed: %v", trial, err)
		}
		probs := sv.Probabilities()
		for idx := 0; idx < 1<<n; idx++ {
			bits := statevec.FormatBits(idx, n)
			got, err := stabilizer.OutcomeProbability(c, bits)
			if err != nil {
				t.Fatalf("trial %d: OutcomeProbability: %v", trial, err)
			}
			if math.Abs(got-probs[idx]) > 1e-9 {
				t.Fatalf("trial %d outcome %s: stabilizer %v vs statevec %v\ncircuit: %v",
					trial, bits, got, probs[idx], c.Gates)
			}
		}
	}
}

// TestSampledCountsAgreement compares sampled distributions between the two
// simulators on a fixed Clifford circuit.
func TestSampledCountsAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := randomCliffordCircuit(rng, 3, 20)
	c.MeasureAll()
	const shots = 8000
	sc, err := stabilizer.Runner{Shots: shots, Seed: 21}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := statevec.Noisy{Shots: shots, Seed: 22}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	for key := 0; key < 8; key++ {
		bits := statevec.FormatBits(key, 3)
		a := float64(sc[bits]) / shots
		b := float64(vc[bits]) / shots
		if math.Abs(a-b) > 0.03 {
			t.Fatalf("outcome %s: stabilizer %v vs statevec %v", bits, a, b)
		}
	}
}

func TestGHZOutcomeProbability(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.MeasureAll()
	for bits, want := range map[string]float64{
		"000": 0.5, "111": 0.5, "001": 0, "010": 0, "101": 0,
	} {
		got, err := stabilizer.OutcomeProbability(c, bits)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", bits, got, want)
		}
	}
}

func TestNonCliffordGateRejected(t *testing.T) {
	tb := stabilizer.New(1)
	err := tb.ApplyGate(circuit.Gate{Name: circuit.GateT, Qubits: []int{0}})
	if err == nil {
		t.Fatal("t gate must be rejected")
	}
	err = tb.ApplyGate(circuit.Gate{Name: circuit.GateRZ, Qubits: []int{0}, Params: []float64{0.3}})
	if err == nil {
		t.Fatal("rz(0.3) must be rejected")
	}
}

func TestNoiseDegradesGHZ(t *testing.T) {
	c := circuit.New(4)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CX(2, 3)
	c.MeasureAll()
	m := noise.Uniform(4, 0.02, 0.15, 0.02)
	counts, err := stabilizer.Runner{Model: m, Shots: 4000, Seed: 77}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	good := counts["0000"] + counts["1111"]
	if good == 4000 {
		t.Fatal("noise had no effect")
	}
	if float64(good)/4000 < 0.3 {
		t.Fatalf("noise too destructive: %v good shots", good)
	}
}

func TestMidCircuitMeasurementCollapse(t *testing.T) {
	// Measure half a Bell pair mid-circuit, then CX onto a fresh qubit: the
	// final qubits must all agree.
	c := circuit.NewWithClbits(3, 3)
	c.H(0)
	c.CX(0, 1)
	c.Measure(0, 0)
	c.CX(1, 2)
	c.Measure(1, 1)
	c.Measure(2, 2)
	counts, err := stabilizer.Runner{Shots: 1000, Seed: 9}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	for bits, n := range counts {
		if n > 0 && bits != "000" && bits != "111" {
			t.Fatalf("inconsistent outcome %s appeared %d times", bits, n)
		}
	}
}

func TestResetInRunner(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	c.Reset(0)
	c.MeasureAll()
	counts, err := stabilizer.Runner{Shots: 500, Seed: 2}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	if counts["0"] != 500 {
		t.Fatalf("reset failed: %v", counts)
	}
}

func TestLargeRegisterSmoke(t *testing.T) {
	// 100-qubit GHZ: far beyond dense simulation, trivial for the tableau.
	const n = 100
	c := circuit.New(n)
	c.H(0)
	for q := 0; q < n-1; q++ {
		c.CX(q, q+1)
	}
	c.MeasureAll()
	counts, err := stabilizer.Runner{Shots: 200, Seed: 4}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	all0 := ""
	all1 := ""
	for i := 0; i < n; i++ {
		all0 += "0"
		all1 += "1"
	}
	if counts[all0]+counts[all1] != 200 {
		t.Fatalf("100-qubit GHZ broken: %d distinct outcomes", len(counts))
	}
	if counts[all0] == 0 || counts[all1] == 0 {
		t.Fatalf("GHZ sampling one-sided: %v/%v", counts[all0], counts[all1])
	}
}

func TestCopyIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb := stabilizer.New(2)
	tb.H(0)
	cp := tb.Copy()
	cp.CX(0, 1)
	cp.Measure(0, rng)
	// Original must still be in superposition: both outcomes possible.
	saw := map[int]bool{}
	for i := 0; i < 50; i++ {
		saw[tb.Copy().Measure(0, rng)] = true
	}
	if !saw[0] || !saw[1] {
		t.Fatal("copy mutated the original tableau")
	}
}
