// Package noise models device noise for QRIO's simulated backends.
//
// The model mirrors the calibration surface the paper's vendors must
// publish for every node (§3.1): per-qubit single-qubit gate error, per-edge
// two-qubit gate error, and per-qubit readout error. Gate errors are
// depolarizing channels: after a gate, with its probability, one of the
// non-identity Paulis on its qubits, each equally likely. The shot-by-shot
// engines — the stabilizer simulator and the dense trajectories — realise
// them by sampling that Pauli per shot through Stream (Pauli errors are
// Clifford, so one model serves both); the exact dense engine
// (statevec.Exact) applies the same channels to a density matrix and
// samples only the outcome.
package noise

import (
	"fmt"
	"math/rand"

	"qrio/internal/quantum/circuit"
)

// Pauli identifies a single-qubit Pauli error.
type Pauli byte

const (
	// PauliNone is "no error drawn" (the identity).
	PauliNone Pauli = 0
	PauliX    Pauli = 'X'
	PauliY    Pauli = 'Y'
	PauliZ    Pauli = 'Z'
)

// Model holds the error rates of one device.
//
// The zero value is a noiseless model. All probabilities are in [0, 1].
type Model struct {
	NumQubits int
	// OneQubit[q] is the depolarizing probability after a 1-qubit gate on q.
	OneQubit []float64
	// TwoQubit[edge] is the depolarizing probability after a 2-qubit gate on
	// the normalised (low, high) qubit pair.
	TwoQubit map[[2]int]float64
	// TwoQubitDefault applies to pairs missing from TwoQubit (e.g. after a
	// routing bug); keeping it high makes such bugs visible in fidelity.
	TwoQubitDefault float64
	// Readout[q] is the classical bit-flip probability when measuring q.
	Readout []float64
}

// Noiseless returns a model with zero error everywhere.
func Noiseless(n int) *Model {
	return &Model{NumQubits: n}
}

// Uniform returns a model with uniform error rates; handy in tests.
func Uniform(n int, e1, e2, ro float64) *Model {
	m := &Model{
		NumQubits:       n,
		OneQubit:        make([]float64, n),
		Readout:         make([]float64, n),
		TwoQubit:        map[[2]int]float64{},
		TwoQubitDefault: e2,
	}
	for q := 0; q < n; q++ {
		m.OneQubit[q] = e1
		m.Readout[q] = ro
	}
	return m
}

// Validate checks all probabilities are within [0, 1].
func (m *Model) Validate() error {
	check := func(p float64, what string) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("noise: %s probability %g out of [0,1]", what, p)
		}
		return nil
	}
	for q, p := range m.OneQubit {
		if err := check(p, fmt.Sprintf("1q[%d]", q)); err != nil {
			return err
		}
	}
	for e, p := range m.TwoQubit {
		if err := check(p, fmt.Sprintf("2q[%d-%d]", e[0], e[1])); err != nil {
			return err
		}
	}
	for q, p := range m.Readout {
		if err := check(p, fmt.Sprintf("readout[%d]", q)); err != nil {
			return err
		}
	}
	return check(m.TwoQubitDefault, "2q default")
}

// NormPair returns the normalised (low, high) qubit pair key.
func NormPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// OneQubitProb returns the error probability for a 1-qubit gate on q.
func (m *Model) OneQubitProb(q int) float64 {
	if q < len(m.OneQubit) {
		return m.OneQubit[q]
	}
	return 0
}

// TwoQubitProb returns the error probability for a gate on pair (a, b).
func (m *Model) TwoQubitProb(a, b int) float64 {
	if m.TwoQubit != nil {
		if p, ok := m.TwoQubit[NormPair(a, b)]; ok {
			return p
		}
	}
	return m.TwoQubitDefault
}

// ReadoutProb returns the readout flip probability of qubit q.
func (m *Model) ReadoutProb(q int) float64 {
	if q < len(m.Readout) {
		return m.Readout[q]
	}
	return 0
}

// paulis is indexed by a base-4 digit: 0 is the identity.
var paulis = [4]Pauli{PauliNone, PauliX, PauliY, PauliZ}

// DrawOneQubit draws the error that follows a one-qubit gate whose
// depolarizing probability is p: {I: 1-p, X/Y/Z: p/3 each}. It consumes one
// rng.Float64 and, when an error fires, one rng.Intn(3) — always, even for
// p = 0. It is the reference Stream.Draw's OneQubitError reproduces: the
// simulators' oracles draw through it from a real rand.Rand.
func DrawOneQubit(p float64, rng *rand.Rand) Pauli {
	if rng.Float64() >= p {
		return PauliNone
	}
	return paulis[rng.Intn(3)+1]
}

// DrawTwoQubit draws the errors on (first, second) qubit after a two-qubit
// gate with depolarizing probability p: the 15 non-identity two-qubit
// Paulis equally likely. It consumes one rng.Float64 and, when an error
// fires, one rng.Intn(15); Stream.Draw's TwoQubitError reproduces it.
func DrawTwoQubit(p float64, rng *rand.Rand) (Pauli, Pauli) {
	if rng.Float64() >= p {
		return PauliNone, PauliNone
	}
	k := rng.Intn(15) + 1 // 1..15, base-4 digits (pa, pb), never (0,0)
	return paulis[k%4], paulis[k/4]
}

// Site is one gate-error draw: a OneQubitError on qubit A or a
// TwoQubitError on the pair (A, B), firing with probability P.
type Site struct {
	Kind Kind
	A, B int
	P    float64
}

// Sites calls site, in draw order, for each error draw that follows gate
// g: one OneQubitError after a one-qubit gate, one TwoQubitError after a
// two-qubit gate and one per qubit pair i<j, in operand order, after a
// wider one. id, barrier, measure, reset and a nil model draw none. Both
// simulators lower a gate's noise through it, once, at compile time.
func (m *Model) Sites(g circuit.Gate, site func(Site)) {
	if m == nil || !g.IsUnitary() || g.Name == circuit.GateID {
		return
	}
	if q := g.Qubits; len(q) == 1 {
		site(Site{Kind: OneQubitError, A: q[0], P: m.OneQubitProb(q[0])})
		return
	}
	for i, a := range g.Qubits {
		for _, b := range g.Qubits[i+1:] {
			site(Site{Kind: TwoQubitError, A: a, B: b, P: m.TwoQubitProb(a, b)})
		}
	}
}

// AverageTwoQubit returns the mean two-qubit error over known edges,
// falling back to the default when no edges are recorded.
func (m *Model) AverageTwoQubit() float64 {
	if len(m.TwoQubit) == 0 {
		return m.TwoQubitDefault
	}
	s := 0.0
	for _, p := range m.TwoQubit {
		s += p
	}
	return s / float64(len(m.TwoQubit))
}
