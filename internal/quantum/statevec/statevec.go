// Package statevec implements a dense state-vector simulator. It provides
// the "oracle" execution path of the paper's evaluation (§4.3): exact ideal
// output distributions for arbitrary circuits, and Monte-Carlo noisy
// execution under a device noise model. Memory grows as 2^n; it is intended
// for the ≤ ~20-qubit circuits the paper schedules.
package statevec

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// MaxQubits bounds the register size to keep allocations sane (2^24 amps).
const MaxQubits = 24

// State is an n-qubit pure state. Amplitude indices are little-endian:
// qubit 0 is the least-significant bit of the index.
type State struct {
	n    int
	amps []complex128
}

// New returns |0...0> over n qubits.
func New(n int) (*State, error) {
	if n < 0 || n > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits out of range [0,%d]", n, MaxQubits)
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s, nil
}

// NumQubits returns the register size.
func (s *State) NumQubits() int { return s.n }

// Amplitudes exposes the raw amplitude slice (do not mutate).
func (s *State) Amplitudes() []complex128 { return s.amps }

// Clone returns a deep copy.
func (s *State) Clone() *State {
	amps := make([]complex128, len(s.amps))
	copy(amps, s.amps)
	return &State{n: s.n, amps: amps}
}

// Apply1Q applies a 2x2 unitary to qubit q.
func (s *State) Apply1Q(q int, m circuit.Matrix2) {
	amps := s.amps
	m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
	bit := 1 << uint(q)
	for base := 0; base < len(amps); base += bit << 1 {
		for i := base; i < base+bit; i++ {
			a0, a1 := amps[i], amps[i|bit]
			amps[i] = m00*a0 + m01*a1
			amps[i|bit] = m10*a0 + m11*a1
		}
	}
}

// applyDiagonal applies diag(d0, d1) to qubit q. It computes what Apply1Q
// computes for the matrix with zero off-diagonal entries — adding a zero
// product changes at most the sign of a zero amplitude, which no
// probability can see — in a third of the multiplications, and in a sixth
// when d0 is exactly one (u1, p, z, s, t and their inverses).
func (s *State) applyDiagonal(q int, d0, d1 complex128) {
	amps := s.amps
	bit := 1 << uint(q)
	for base := 0; base < len(amps); base += bit << 1 {
		if d0 != 1 {
			for i := base; i < base+bit; i++ {
				amps[i] = d0 * amps[i]
			}
		}
		for i := base + bit; i < base+bit<<1; i++ {
			amps[i] = d1 * amps[i]
		}
	}
}

// apply2Q applies cx (control a, target b), cz or swap: each is a
// permutation or a sign on the amplitudes, visited by walking the indices
// with both qubits' bits clear.
func (s *State) apply2Q(code opcode, a, b int) {
	amps := s.amps
	ab, bb := 1<<uint(a), 1<<uint(b)
	lo, hi := min(ab, bb), max(ab, bb)
	for top := 0; top < len(amps); top += hi << 1 {
		for mid := top; mid < top+hi; mid += lo << 1 {
			for i := mid; i < mid+lo; i++ {
				switch code {
				case opCX:
					amps[i|ab], amps[i|ab|bb] = amps[i|ab|bb], amps[i|ab]
				case opCZ:
					amps[i|ab|bb] = -amps[i|ab|bb]
				case opSwap:
					amps[i|ab], amps[i|bb] = amps[i|bb], amps[i|ab]
				}
			}
		}
	}
}

// ApplyCX applies controlled-X with the given control and target.
func (s *State) ApplyCX(ctl, tgt int) { s.apply2Q(opCX, ctl, tgt) }

// ApplyCZ applies controlled-Z on the pair (a, b).
func (s *State) ApplyCZ(a, b int) { s.apply2Q(opCZ, a, b) }

// ApplySwap exchanges qubits a and b.
func (s *State) ApplySwap(a, b int) { s.apply2Q(opSwap, a, b) }

// ApplyGate applies any unitary gate from the circuit vocabulary,
// decomposing multi-qubit gates beyond {cx, cz, swap}.
func (s *State) ApplyGate(g circuit.Gate) error {
	if !g.IsUnitary() {
		return fmt.Errorf("statevec: gate %q is not unitary", g.Name)
	}
	if err := checkGate(g, s.n); err != nil {
		return err
	}
	ops, err := appendGate(nil, g)
	if err != nil {
		return err
	}
	for i := range ops {
		s.apply(&ops[i])
	}
	return nil
}

// Probabilities returns |amp|^2 for every basis state.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	for i, a := range s.amps {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// ProbOne returns the probability of measuring 1 on qubit q.
func (s *State) ProbOne(q int) float64 {
	bit := 1 << uint(q)
	p := 0.0
	for i, a := range s.amps {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// MeasureQubit projects qubit q, returning the observed bit.
func (s *State) MeasureQubit(q int, rng *rand.Rand) int {
	p1 := s.ProbOne(q)
	bit := 1 << uint(q)
	out := 0
	if rng.Float64() < p1 {
		out = 1
	}
	var norm float64
	if out == 1 {
		norm = math.Sqrt(p1)
	} else {
		norm = math.Sqrt(1 - p1)
	}
	if norm == 0 {
		norm = 1 // fully collapsed already; avoid division by zero
	}
	for i := range s.amps {
		if (i&bit != 0) != (out == 1) {
			s.amps[i] = 0
		} else {
			s.amps[i] /= complex(norm, 0)
		}
	}
	return out
}

// ResetQubit measures q and flips it back to |0> if needed.
func (s *State) ResetQubit(q int, rng *rand.Rand) {
	if s.MeasureQubit(q, rng) == 1 {
		s.pauli(q, noise.PauliX)
	}
}

// SampleIndex draws one basis-state index from the state's distribution.
func (s *State) SampleIndex(rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	last := 0
	for i, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return i
		}
		last = i
	}
	return last // numerical slack: fall back to the final index
}

// FidelityTo returns |<s|t>|^2, the state fidelity with another pure state.
func (s *State) FidelityTo(t *State) (float64, error) {
	if s.n != t.n {
		return 0, fmt.Errorf("statevec: size mismatch %d vs %d", s.n, t.n)
	}
	var ip complex128
	for i := range s.amps {
		ip += cmplx.Conj(s.amps[i]) * t.amps[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip), nil
}

// EqualUpToGlobalPhase reports whether two states are equal modulo a global
// phase, within tolerance tol on fidelity.
func (s *State) EqualUpToGlobalPhase(t *State, tol float64) bool {
	f, err := s.FidelityTo(t)
	return err == nil && f >= 1-tol
}

// Run executes all unitary gates of c (skipping barriers) on a fresh state.
// It rejects measure/reset: strip them first or use Counts.
func Run(c *circuit.Circuit) (*State, error) {
	s, err := New(c.NumQubits)
	if err != nil {
		return nil, err
	}
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateBarrier:
			continue
		case circuit.GateMeasure, circuit.GateReset:
			return nil, fmt.Errorf("statevec: Run cannot handle %q; use Counts", g.Name)
		}
		if err := s.ApplyGate(g); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// FormatBits renders a basis index over nbits as a Qiskit-style bitstring:
// bit 0 is the rightmost character.
func FormatBits(index, nbits int) string {
	b := make([]byte, nbits)
	for i := 0; i < nbits; i++ {
		if index&(1<<uint(i)) != 0 {
			b[nbits-1-i] = '1'
		} else {
			b[nbits-1-i] = '0'
		}
	}
	return string(b)
}

// terminalMeasurements validates that measures appear only after the last
// unitary touching the measured qubit and returns the (qubit, clbit) pairs.
func terminalMeasurements(c *circuit.Circuit) (qubits, clbits []int, err error) {
	measured := map[int]bool{}
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateMeasure:
			measured[g.Qubits[0]] = true
			qubits = append(qubits, g.Qubits[0])
			clbits = append(clbits, g.Clbits[0])
		case circuit.GateBarrier:
			continue
		default:
			for _, q := range g.Qubits {
				if measured[q] {
					return nil, nil, fmt.Errorf(
						"statevec: qubit %d used after measurement (mid-circuit measurement unsupported)", q)
				}
			}
		}
	}
	return qubits, clbits, nil
}

// errIdealReset: a reset leaves a mixture, not one state to read an exact
// distribution off.
var errIdealReset = errors.New(`statevec: the ideal distribution of a circuit with "reset" is not supported; use Counts`)

// IdealDistribution returns the exact outcome distribution of the circuit
// over its classical register (or over all qubits when there are no
// measurements). Keys are Qiskit-style bitstrings.
func IdealDistribution(c *circuit.Circuit) (map[string]float64, error) {
	prog, err := compile(c, nil)
	if err != nil {
		return nil, err
	}
	if prog.hasReset {
		return nil, errIdealReset
	}
	s, err := New(prog.nq)
	if err != nil {
		return nil, err
	}
	prog.runNoiseless(s)
	return prog.distribution(s), nil
}
