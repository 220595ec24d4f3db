package noise

import (
	"math/rand"
	"testing"
)

// pauliError is a Pauli error on one qubit.
type pauliError struct {
	Qubit int
	Pauli Pauli
}

// sampleGateError is the composition the simulators' interpreters used to
// call (Model.SampleGateError until the dense engine was compiled too):
// DrawOneQubit after a one-qubit gate, DrawTwoQubit after a two-qubit gate,
// one DrawTwoQubit per qubit pair for a wider one, nothing for a nil model.
// Both engines now lay these draws out at compile time (Model.Sites,
// pinned to this shape in stream_test.go); the tests below keep checking
// the draws through the old shape.
func sampleGateError(m *Model, qubits []int, rng *rand.Rand) []pauliError {
	if m == nil {
		return nil
	}
	var errs []pauliError
	add := func(q int, p Pauli) {
		if p != PauliNone {
			errs = append(errs, pauliError{Qubit: q, Pauli: p})
		}
	}
	if len(qubits) == 1 {
		q := qubits[0]
		add(q, DrawOneQubit(m.OneQubitProb(q), rng))
		return errs
	}
	for i := 0; i < len(qubits); i++ {
		for j := i + 1; j < len(qubits); j++ {
			a, b := qubits[i], qubits[j]
			pa, pb := DrawTwoQubit(m.TwoQubitProb(a, b), rng)
			add(a, pa)
			add(b, pb)
		}
	}
	return errs
}

// flipReadout is the readout rule both engines compile in: the measured
// value of qubits[i] flips with ReadoutProb(qubits[i]), one Float64 each;
// a nil model flips and draws nothing.
func flipReadout(m *Model, qubits []int, bits []int, rng *rand.Rand) {
	if m == nil {
		return
	}
	for i, q := range qubits {
		if rng.Float64() < m.ReadoutProb(q) {
			bits[i] ^= 1
		}
	}
}

func TestNoiselessSamplesNothing(t *testing.T) {
	m := Noiseless(3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if errs := sampleGateError(m, []int{0, 1}, rng); len(errs) != 0 {
			t.Fatalf("noiseless model produced errors: %v", errs)
		}
	}
}

func TestOneQubitErrorRate(t *testing.T) {
	m := Uniform(1, 0.25, 0, 0)
	rng := rand.New(rand.NewSource(2))
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if len(sampleGateError(m, []int{0}, rng)) > 0 {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("1q error frequency = %v, want ~0.25", frac)
	}
}

func TestTwoQubitErrorUniformOverPaulis(t *testing.T) {
	m := Uniform(2, 0, 1.0, 0) // always error
	rng := rand.New(rand.NewSource(3))
	single, double := 0, 0
	const trials = 30000
	for i := 0; i < trials; i++ {
		errs := sampleGateError(m, []int{0, 1}, rng)
		switch len(errs) {
		case 1:
			single++
		case 2:
			double++
		default:
			t.Fatalf("p=1 model produced %d errors", len(errs))
		}
	}
	// 6 of 15 Paulis touch one qubit, 9 touch both.
	fracSingle := float64(single) / trials
	if fracSingle < 0.37 || fracSingle > 0.43 {
		t.Fatalf("single-qubit fraction = %v, want ~0.4", fracSingle)
	}
	if single+double != trials {
		t.Fatal("accounting error")
	}
}

func TestPerEdgeRates(t *testing.T) {
	m := &Model{
		NumQubits:       3,
		TwoQubit:        map[[2]int]float64{{0, 1}: 0.5},
		TwoQubitDefault: 0.0,
	}
	if got := m.TwoQubitProb(1, 0); got != 0.5 {
		t.Fatalf("TwoQubitProb(1,0) = %v, want 0.5 (order-insensitive)", got)
	}
	if got := m.TwoQubitProb(1, 2); got != 0 {
		t.Fatalf("TwoQubitProb(1,2) = %v, want default 0", got)
	}
}

func TestReadoutFlip(t *testing.T) {
	m := Uniform(2, 0, 0, 1.0) // always flip
	rng := rand.New(rand.NewSource(4))
	bits := []int{0, 1}
	flipReadout(m, []int{0, 1}, bits, rng)
	if bits[0] != 1 || bits[1] != 0 {
		t.Fatalf("p=1 readout flip gave %v", bits)
	}
}

func TestValidate(t *testing.T) {
	bad := Uniform(1, 1.5, 0, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for p=1.5")
	}
	good := Uniform(2, 0.1, 0.2, 0.05)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
}

func TestThreeQubitGateChargedPairwise(t *testing.T) {
	m := Uniform(3, 0, 1.0, 0)
	rng := rand.New(rand.NewSource(5))
	errs := sampleGateError(m, []int{0, 1, 2}, rng)
	if len(errs) == 0 {
		t.Fatal("3q gate with p=1 produced no errors")
	}
}

func TestAverageTwoQubit(t *testing.T) {
	m := &Model{
		TwoQubit:        map[[2]int]float64{{0, 1}: 0.2, {1, 2}: 0.4},
		TwoQubitDefault: 0.9,
	}
	if got := m.AverageTwoQubit(); got < 0.3-1e-12 || got > 0.3+1e-12 {
		t.Fatalf("AverageTwoQubit = %v, want 0.3", got)
	}
	empty := &Model{TwoQubitDefault: 0.7}
	if got := empty.AverageTwoQubit(); got != 0.7 {
		t.Fatalf("AverageTwoQubit fallback = %v, want 0.7", got)
	}
}

func TestNilModelIsSafe(t *testing.T) {
	var m *Model
	rng := rand.New(rand.NewSource(6))
	if errs := sampleGateError(m, []int{0}, rng); errs != nil {
		t.Fatal("nil model sampled errors")
	}
	bits := []int{1}
	flipReadout(m, []int{0}, bits, rng)
	if bits[0] != 1 {
		t.Fatal("nil model flipped readout")
	}
}
