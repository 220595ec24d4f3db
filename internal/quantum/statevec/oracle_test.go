package statevec

// The oracle: the per-shot, gate-by-name interpreter this package shipped
// before the compiled engine, moved here verbatim (types renamed; the
// bodies of noise.Model.SampleGateError and FlipReadout, which had no
// other caller, inlined beside it) so TestEngineIdenticalToOracle can hold
// the engine to it — same counts, same ideal distribution, same consumption
// of the random stream. Do not optimise it.

import (
	"fmt"
	"math"
	"math/rand"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// oracleState is an n-qubit pure state, little-endian like State.
type oracleState struct {
	n    int
	amps []complex128
}

func newOracleState(n int) (*oracleState, error) {
	if n < 0 || n > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits out of range [0,%d]", n, MaxQubits)
	}
	s := &oracleState{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s, nil
}

func (s *oracleState) Apply1Q(q int, m circuit.Matrix2) {
	bit := 1 << uint(q)
	for base := 0; base < len(s.amps); base += bit << 1 {
		for i := base; i < base+bit; i++ {
			a0, a1 := s.amps[i], s.amps[i|bit]
			s.amps[i] = m[0][0]*a0 + m[0][1]*a1
			s.amps[i|bit] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

func (s *oracleState) ApplyCX(ctl, tgt int) {
	cb, tb := 1<<uint(ctl), 1<<uint(tgt)
	for i := range s.amps {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

func (s *oracleState) ApplyCZ(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := range s.amps {
		if i&ab != 0 && i&bb != 0 {
			s.amps[i] = -s.amps[i]
		}
	}
}

func (s *oracleState) ApplySwap(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := range s.amps {
		hasA, hasB := i&ab != 0, i&bb != 0
		if hasA && !hasB {
			j := (i &^ ab) | bb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// ApplyPauli applies a single-qubit Pauli error, re-deriving its matrix.
func (s *oracleState) ApplyPauli(q int, p noise.Pauli) {
	switch p {
	case noise.PauliX:
		s.Apply1Q(q, circuit.Gate{Name: circuit.GateX}.MustMatrix1Q())
	case noise.PauliY:
		s.Apply1Q(q, circuit.Gate{Name: circuit.GateY}.MustMatrix1Q())
	case noise.PauliZ:
		s.Apply1Q(q, circuit.Gate{Name: circuit.GateZ}.MustMatrix1Q())
	}
}

// ApplyGate applies any unitary gate from the circuit vocabulary,
// decomposing multi-qubit gates beyond {cx, cz, swap}.
func (s *oracleState) ApplyGate(g circuit.Gate) error {
	if !g.IsUnitary() {
		return fmt.Errorf("statevec: gate %q is not unitary", g.Name)
	}
	for _, q := range g.Qubits {
		if q < 0 || q >= s.n {
			return fmt.Errorf("statevec: qubit %d out of range (n=%d)", q, s.n)
		}
	}
	switch g.Name {
	case circuit.GateCX:
		s.ApplyCX(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.GateCZ:
		s.ApplyCZ(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.GateSwap:
		s.ApplySwap(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.GateID, circuit.GateBarrier:
		return nil
	}
	if len(g.Qubits) == 1 {
		m, err := g.Matrix1Q()
		if err != nil {
			return err
		}
		s.Apply1Q(g.Qubits[0], m)
		return nil
	}
	// Multi-qubit gate: decompose and recurse.
	sub := g.Decompose()
	if len(sub) == 1 && sub[0].Name == g.Name {
		return fmt.Errorf("statevec: cannot apply gate %q", g.Name)
	}
	for _, sg := range sub {
		if err := s.ApplyGate(sg); err != nil {
			return err
		}
	}
	return nil
}

func (s *oracleState) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	for i, a := range s.amps {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

func (s *oracleState) ProbOne(q int) float64 {
	bit := 1 << uint(q)
	p := 0.0
	for i, a := range s.amps {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

func (s *oracleState) MeasureQubit(q int, rng *rand.Rand) int {
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

func (s *oracleState) ResetQubit(q int, rng *rand.Rand) {
	if s.MeasureQubit(q, rng) == 1 {
		s.Apply1Q(q, circuit.Gate{Name: circuit.GateX}.MustMatrix1Q())
	}
}

func (s *oracleState) SampleIndex(rng *rand.Rand) int {
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

// oracleError is a Pauli error on one qubit.
type oracleError struct {
	Qubit int
	Pauli noise.Pauli
}

// oracleSampleGateError draws the Pauli errors (possibly none) that follow
// one gate application on the given qubits: DrawOneQubit for one-qubit
// gates, DrawTwoQubit for two-qubit gates. Gates on 3+ qubits are charged
// one two-qubit error per qubit pair.
func oracleSampleGateError(m *noise.Model, qubits []int, rng *rand.Rand) []oracleError {
	if m == nil {
		return nil
	}
	var errs []oracleError
	add := func(q int, p noise.Pauli) {
		if p != noise.PauliNone {
			errs = append(errs, oracleError{Qubit: q, Pauli: p})
		}
	}
	if len(qubits) == 1 {
		q := qubits[0]
		add(q, noise.DrawOneQubit(m.OneQubitProb(q), rng))
		return errs
	}
	for i := 0; i < len(qubits); i++ {
		for j := i + 1; j < len(qubits); j++ {
			a, b := qubits[i], qubits[j]
			pa, pb := noise.DrawTwoQubit(m.TwoQubitProb(a, b), rng)
			add(a, pa)
			add(b, pb)
		}
	}
	return errs
}

// oracleFlipReadout applies classical readout error in place: bits[i] is
// the measured value of qubit qubits[i] and flips with Readout[qubit].
func oracleFlipReadout(m *noise.Model, qubits []int, bits []int, rng *rand.Rand) {
	if m == nil {
		return
	}
	for i, q := range qubits {
		if rng.Float64() < m.ReadoutProb(q) {
			bits[i] ^= 1
		}
	}
}

// oracleCounts is the old Noisy.Counts: every shot replays the whole
// circuit on a fresh state with freshly sampled gate errors.
func oracleCounts(r Noisy, c *circuit.Circuit) (map[string]int, error) {
	if r.Shots <= 0 {
		return nil, fmt.Errorf("statevec: Shots must be positive, got %d", r.Shots)
	}
	qubits, clbits, err := terminalMeasurements(c)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	counts := make(map[string]int)
	body := c.WithoutMeasurements()
	nc := c.NumClbits
	measureAll := len(qubits) == 0
	if measureAll {
		nc = c.NumQubits
	}

	for shot := 0; shot < r.Shots; shot++ {
		s, err := newOracleState(c.NumQubits)
		if err != nil {
			return nil, err
		}
		for _, g := range body.Gates {
			if g.Name == circuit.GateReset {
				s.ResetQubit(g.Qubits[0], rng)
				continue
			}
			if err := s.ApplyGate(g); err != nil {
				return nil, err
			}
			if r.Model != nil && g.IsUnitary() && g.Name != circuit.GateID {
				for _, e := range oracleSampleGateError(r.Model, g.Qubits, rng) {
					s.ApplyPauli(e.Qubit, e.Pauli)
				}
			}
		}
		idx := s.SampleIndex(rng)
		var key int
		if measureAll {
			key = idx
			if r.Model != nil {
				key = oracleFlipAllReadout(idx, c.NumQubits, r.Model, rng)
			}
		} else {
			bits := make([]int, len(qubits))
			for i, q := range qubits {
				if idx&(1<<uint(q)) != 0 {
					bits[i] = 1
				}
			}
			oracleFlipReadout(r.Model, qubits, bits, rng)
			for i, b := range bits {
				if b == 1 {
					key |= 1 << uint(clbits[i])
				}
			}
		}
		counts[FormatBits(key, nc)]++
	}
	return counts, nil
}

func oracleFlipAllReadout(idx, n int, m *noise.Model, rng *rand.Rand) int {
	for q := 0; q < n; q++ {
		if rng.Float64() < m.ReadoutProb(q) {
			idx ^= 1 << uint(q)
		}
	}
	return idx
}

// oracleRun executes all unitary gates of c (skipping barriers) on a fresh
// state and rejects measure/reset.
func oracleRun(c *circuit.Circuit) (*oracleState, error) {
	s, err := newOracleState(c.NumQubits)
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

// oracleIdealDistribution is the old IdealDistribution: a second walk of
// the circuit, a probability slice, a key string per non-zero amplitude.
func oracleIdealDistribution(c *circuit.Circuit) (map[string]float64, error) {
	qubits, clbits, err := terminalMeasurements(c)
	if err != nil {
		return nil, err
	}
	s, err := oracleRun(c.WithoutMeasurements())
	if err != nil {
		return nil, err
	}
	probs := s.Probabilities()
	dist := make(map[string]float64)
	if len(qubits) == 0 {
		for i, p := range probs {
			if p > 1e-15 {
				dist[FormatBits(i, c.NumQubits)] += p
			}
		}
		return dist, nil
	}
	nc := c.NumClbits
	for i, p := range probs {
		if p <= 1e-15 {
			continue
		}
		key := 0
		for k, q := range qubits {
			if i&(1<<uint(q)) != 0 {
				key |= 1 << uint(clbits[k])
			}
		}
		dist[FormatBits(key, nc)] += p
	}
	return dist, nil
}
