package stabilizer_test

// The oracle: the row-major, gate-by-name tableau interpreter this package
// shipped before the compiled column-major engine, moved here verbatim
// (types renamed; noise.Model.SampleGateError, since deleted, inlined in
// the body it had then) so the
// identity property test below can hold the engine to it — same counts,
// same probabilities, same consumption of the random stream. Do not
// optimise it.

import (
	"fmt"
	"math"
	"math/rand"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// oracleTableau is the stabilizer tableau of an n-qubit state. Rows 0..n-1 are
// destabilizer generators, rows n..2n-1 stabilizer generators, and row 2n a
// scratch row used during measurement. Bits are packed into uint64 words.
type oracleTableau struct {
	n     int
	words int
	x     [][]uint64 // X-part bits, (2n+1) rows
	z     [][]uint64 // Z-part bits
	r     []uint8    // sign bits (0 = +, 1 = -)
}

// New returns the tableau of |0...0>: destabilizers X_i, stabilizers Z_i.
func newOracle(n int) *oracleTableau {
	if n < 0 {
		panic("stabilizer: negative qubit count")
	}
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	t := &oracleTableau{n: n, words: words}
	rows := 2*n + 1
	t.x = make([][]uint64, rows)
	t.z = make([][]uint64, rows)
	t.r = make([]uint8, rows)
	for i := range t.x {
		t.x[i] = make([]uint64, words)
		t.z[i] = make([]uint64, words)
	}
	for i := 0; i < n; i++ {
		setBit(t.x[i], i)   // destabilizer i = X_i
		setBit(t.z[i+n], i) // stabilizer i = Z_i
	}
	return t
}

// NumQubits returns the register size.
func (t *oracleTableau) NumQubits() int { return t.n }

// Copy returns a deep copy of the tableau.
func (t *oracleTableau) Copy() *oracleTableau {
	c := &oracleTableau{n: t.n, words: t.words}
	c.x = make([][]uint64, len(t.x))
	c.z = make([][]uint64, len(t.z))
	c.r = append([]uint8(nil), t.r...)
	for i := range t.x {
		c.x[i] = append([]uint64(nil), t.x[i]...)
		c.z[i] = append([]uint64(nil), t.z[i]...)
	}
	return c
}

func setBit(w []uint64, i int)   { w[i>>6] |= 1 << uint(i&63) }
func clearBit(w []uint64, i int) { w[i>>6] &^= 1 << uint(i&63) }
func getBit(w []uint64, i int) uint8 {
	return uint8((w[i>>6] >> uint(i&63)) & 1)
}
func assignBit(w []uint64, i int, v uint8) {
	if v != 0 {
		setBit(w, i)
	} else {
		clearBit(w, i)
	}
}

// H applies a Hadamard on qubit a.
func (t *oracleTableau) H(a int) {
	for i := 0; i < 2*t.n; i++ {
		xa, za := getBit(t.x[i], a), getBit(t.z[i], a)
		t.r[i] ^= xa & za
		assignBit(t.x[i], a, za)
		assignBit(t.z[i], a, xa)
	}
}

// S applies the phase gate diag(1, i) on qubit a.
func (t *oracleTableau) S(a int) {
	for i := 0; i < 2*t.n; i++ {
		xa, za := getBit(t.x[i], a), getBit(t.z[i], a)
		t.r[i] ^= xa & za
		assignBit(t.z[i], a, za^xa)
	}
}

// Sdg applies S† = diag(1, -i) on qubit a.
func (t *oracleTableau) Sdg(a int) {
	t.Z(a)
	t.S(a)
}

// X applies a Pauli X on qubit a.
func (t *oracleTableau) X(a int) {
	for i := 0; i < 2*t.n; i++ {
		t.r[i] ^= getBit(t.z[i], a)
	}
}

// Z applies a Pauli Z on qubit a.
func (t *oracleTableau) Z(a int) {
	for i := 0; i < 2*t.n; i++ {
		t.r[i] ^= getBit(t.x[i], a)
	}
}

// Y applies a Pauli Y on qubit a.
func (t *oracleTableau) Y(a int) {
	for i := 0; i < 2*t.n; i++ {
		t.r[i] ^= getBit(t.x[i], a) ^ getBit(t.z[i], a)
	}
}

// CX applies controlled-X with control a and target b.
func (t *oracleTableau) CX(a, b int) {
	for i := 0; i < 2*t.n; i++ {
		xa, za := getBit(t.x[i], a), getBit(t.z[i], a)
		xb, zb := getBit(t.x[i], b), getBit(t.z[i], b)
		t.r[i] ^= xa & zb & (xb ^ za ^ 1)
		assignBit(t.x[i], b, xb^xa)
		assignBit(t.z[i], a, za^zb)
	}
}

// CZ applies controlled-Z on the pair (a, b).
func (t *oracleTableau) CZ(a, b int) {
	t.H(b)
	t.CX(a, b)
	t.H(b)
}

// Swap exchanges qubits a and b.
func (t *oracleTableau) Swap(a, b int) {
	t.CX(a, b)
	t.CX(b, a)
	t.CX(a, b)
}

// SX applies sqrt(X) (equal to H·S·H up to global phase).
func (t *oracleTableau) SX(a int) {
	t.H(a)
	t.S(a)
	t.H(a)
}

// g is the phase exponent contribution when multiplying single-qubit Pauli
// (x1,z1) into (x2,z2); see Aaronson & Gottesman, PRA 70, 052328 (2004).
func g(x1, z1, x2, z2 uint8) int {
	switch {
	case x1 == 0 && z1 == 0:
		return 0
	case x1 == 1 && z1 == 1:
		return int(z2) - int(x2)
	case x1 == 1 && z1 == 0:
		return int(z2) * (2*int(x2) - 1)
	default: // x1 == 0 && z1 == 1
		return int(x2) * (1 - 2*int(z2))
	}
}

// rowsum multiplies generator row i into row h, tracking the sign.
func (t *oracleTableau) rowsum(h, i int) {
	phase := 2*int(t.r[h]) + 2*int(t.r[i])
	for j := 0; j < t.n; j++ {
		phase += g(getBit(t.x[i], j), getBit(t.z[i], j),
			getBit(t.x[h], j), getBit(t.z[h], j))
	}
	phase = ((phase % 4) + 4) % 4
	if phase == 0 {
		t.r[h] = 0
	} else {
		t.r[h] = 1 // phase is guaranteed to be 0 or 2 for valid tableaus
	}
	for w := 0; w < t.words; w++ {
		t.x[h][w] ^= t.x[i][w]
		t.z[h][w] ^= t.z[i][w]
	}
}

// anticommutingStabilizer returns the first stabilizer row index p in
// [n, 2n) whose X part has bit a set, or -1 when the measurement of Z_a is
// deterministic.
func (t *oracleTableau) anticommutingStabilizer(a int) int {
	for p := t.n; p < 2*t.n; p++ {
		if getBit(t.x[p], a) == 1 {
			return p
		}
	}
	return -1
}

// Measure performs a Z-basis measurement of qubit a, collapsing the state.
// rng supplies the coin for random outcomes.
func (t *oracleTableau) Measure(a int, rng *rand.Rand) int {
	p := t.anticommutingStabilizer(a)
	if p < 0 {
		return t.deterministicOutcome(a)
	}
	out := uint8(rng.Intn(2))
	t.collapse(a, p, out)
	return int(out)
}

// ForcedMeasure measures qubit a forcing the given outcome. It returns the
// probability of that outcome (1, 0.5 or 0); on probability 0 the state is
// left untouched.
func (t *oracleTableau) ForcedMeasure(a, outcome int) float64 {
	p := t.anticommutingStabilizer(a)
	if p < 0 {
		if t.deterministicOutcome(a) == outcome {
			return 1
		}
		return 0
	}
	t.collapse(a, p, uint8(outcome))
	return 0.5
}

// deterministicOutcome computes the determined measurement value of Z_a
// using the scratch row.
func (t *oracleTableau) deterministicOutcome(a int) int {
	scratch := 2 * t.n
	for w := 0; w < t.words; w++ {
		t.x[scratch][w] = 0
		t.z[scratch][w] = 0
	}
	t.r[scratch] = 0
	for i := 0; i < t.n; i++ {
		if getBit(t.x[i], a) == 1 {
			t.rowsum(scratch, i+t.n)
		}
	}
	return int(t.r[scratch])
}

// collapse performs the random-outcome measurement update: p is an
// anticommuting stabilizer row and out the chosen outcome bit.
func (t *oracleTableau) collapse(a, p int, out uint8) {
	for i := 0; i < 2*t.n; i++ {
		if i != p && getBit(t.x[i], a) == 1 {
			t.rowsum(i, p)
		}
	}
	// Destabilizer p-n becomes the old stabilizer row p.
	d := p - t.n
	copy(t.x[d], t.x[p])
	copy(t.z[d], t.z[p])
	t.r[d] = t.r[p]
	// Stabilizer p becomes ±Z_a with the measured sign.
	for w := 0; w < t.words; w++ {
		t.x[p][w] = 0
		t.z[p][w] = 0
	}
	setBit(t.z[p], a)
	t.r[p] = out
}

// Reset measures qubit a and flips it to |0> when the outcome was 1.
func (t *oracleTableau) Reset(a int, rng *rand.Rand) {
	if t.Measure(a, rng) == 1 {
		t.X(a)
	}
}

// String renders the stabilizer generators for debugging.
func (t *oracleTableau) String() string {
	out := ""
	for i := t.n; i < 2*t.n; i++ {
		if t.r[i] == 1 {
			out += "-"
		} else {
			out += "+"
		}
		for j := 0; j < t.n; j++ {
			x, z := getBit(t.x[i], j), getBit(t.z[i], j)
			switch {
			case x == 1 && z == 1:
				out += "Y"
			case x == 1:
				out += "X"
			case z == 1:
				out += "Z"
			default:
				out += "I"
			}
		}
		out += "\n"
	}
	return out
}

var errOracleNotClifford = fmt.Errorf("stabilizer: gate is not Clifford")

// ApplyGate applies a unitary Clifford gate from the circuit vocabulary.
// Parameterised gates are accepted when their angles are multiples of π/2.
// Non-Clifford gates return an error: callers should cliffordize first.
func (t *oracleTableau) ApplyGate(g circuit.Gate) error {
	for _, q := range g.Qubits {
		if q < 0 || q >= t.n {
			return fmt.Errorf("stabilizer: qubit %d out of range (n=%d)", q, t.n)
		}
	}
	q := g.Qubits
	switch g.Name {
	case circuit.GateID, circuit.GateBarrier:
		return nil
	case circuit.GateX:
		t.X(q[0])
	case circuit.GateY:
		t.Y(q[0])
	case circuit.GateZ:
		t.Z(q[0])
	case circuit.GateH:
		t.H(q[0])
	case circuit.GateS:
		t.S(q[0])
	case circuit.GateSdg:
		t.Sdg(q[0])
	case circuit.GateSX:
		t.SX(q[0])
	case circuit.GateCX:
		t.CX(q[0], q[1])
	case circuit.GateCZ:
		t.CZ(q[0], q[1])
	case circuit.GateCY:
		t.Sdg(q[1])
		t.CX(q[0], q[1])
		t.S(q[1])
	case circuit.GateSwap:
		t.Swap(q[0], q[1])
	case circuit.GateU1, circuit.GateP, circuit.GateRZ:
		return t.applyRZ(q[0], g.Params[0])
	case circuit.GateRX:
		return t.applyRX(q[0], g.Params[0])
	case circuit.GateRY:
		return t.applyRY(q[0], g.Params[0])
	case circuit.GateU2:
		return t.applyU3(q[0], math.Pi/2, g.Params[0], g.Params[1])
	case circuit.GateU3:
		return t.applyU3(q[0], g.Params[0], g.Params[1], g.Params[2])
	default:
		return fmt.Errorf("%w: %q", errOracleNotClifford, g.Name)
	}
	return nil
}

// quarterTurns converts an angle to its multiple of π/2 mod 4, or errors.
func quarterTurns(a float64) (int, error) {
	k := a / (math.Pi / 2)
	r := math.Round(k)
	if math.Abs(k-r) > 1e-7 {
		return 0, fmt.Errorf("%w: angle %g is not a multiple of π/2", errOracleNotClifford, a)
	}
	m := int(r) % 4
	if m < 0 {
		m += 4
	}
	return m, nil
}

func (t *oracleTableau) applyRZ(q int, a float64) error {
	m, err := quarterTurns(a)
	if err != nil {
		return err
	}
	switch m {
	case 1:
		t.S(q)
	case 2:
		t.Z(q)
	case 3:
		t.Sdg(q)
	}
	return nil
}

func (t *oracleTableau) applyRX(q int, a float64) error {
	m, err := quarterTurns(a)
	if err != nil {
		return err
	}
	switch m {
	case 1: // rx(π/2) ≅ sqrt(X) = H·S·H up to global phase
		t.H(q)
		t.S(q)
		t.H(q)
	case 2:
		t.X(q)
	case 3:
		t.H(q)
		t.Sdg(q)
		t.H(q)
	}
	return nil
}

func (t *oracleTableau) applyRY(q int, a float64) error {
	m, err := quarterTurns(a)
	if err != nil {
		return err
	}
	switch m {
	case 1: // ry(π/2) ≅ H·Z: conjugation Z→X, X→-Z
		t.Z(q)
		t.H(q)
	case 2:
		t.Y(q)
	case 3:
		t.H(q)
		t.Z(q)
	}
	return nil
}

// applyU3 uses u3(θ,φ,λ) ≅ rz(φ)·ry(θ)·rz(λ) up to global phase.
func (t *oracleTableau) applyU3(q int, theta, phi, lambda float64) error {
	if err := t.applyRZ(q, lambda); err != nil {
		return err
	}
	if err := t.applyRY(q, theta); err != nil {
		return err
	}
	return t.applyRZ(q, phi)
}

// oracleRunner executes Clifford circuits shot-by-shot, optionally under a Pauli
// + readout noise model. It supports mid-circuit measurement and reset.
type oracleRunner struct {
	Model *noise.Model // nil means noiseless
	Shots int
	Seed  int64
}

// Counts returns a histogram over classical bitstrings. When the circuit
// has no measurements every qubit is measured at the end in qubit order.
// Keys use the Qiskit convention: clbit 0 is the rightmost character.
// Registers beyond 64 bits are supported (the fleet has 100-qubit devices).
func (r oracleRunner) Counts(c *circuit.Circuit) (map[string]int, error) {
	if r.Shots <= 0 {
		return nil, fmt.Errorf("stabilizer: Shots must be positive, got %d", r.Shots)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	counts := make(map[string]int)
	hasMeasure := c.HasMeasurements()
	nc := c.NumClbits
	if !hasMeasure {
		nc = c.NumQubits
	}
	key := make([]byte, nc)
	for shot := 0; shot < r.Shots; shot++ {
		for i := range key {
			key[i] = '0'
		}
		if err := r.runShot(c, hasMeasure, rng, key); err != nil {
			return nil, err
		}
		counts[string(key)]++
	}
	return counts, nil
}

// runShot executes one trajectory, writing outcome bits into key (bit i at
// position len(key)-1-i).
func (r oracleRunner) runShot(c *circuit.Circuit, hasMeasure bool, rng *rand.Rand, key []byte) error {
	t := newOracle(c.NumQubits)
	record := func(bit, pos int) {
		if bit == 1 {
			key[len(key)-1-pos] = '1'
		} else {
			key[len(key)-1-pos] = '0'
		}
	}
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateBarrier:
			continue
		case circuit.GateReset:
			t.Reset(g.Qubits[0], rng)
			continue
		case circuit.GateMeasure:
			q := g.Qubits[0]
			bit := t.Measure(q, rng)
			if r.Model != nil && rng.Float64() < r.Model.ReadoutProb(q) {
				bit ^= 1
			}
			record(bit, g.Clbits[0])
			continue
		}
		if err := t.ApplyGate(g); err != nil {
			return err
		}
		if r.Model != nil && g.Name != circuit.GateID {
			for _, e := range oracleSampleGateError(r.Model, g.Qubits, rng) {
				switch e.Pauli {
				case noise.PauliX:
					t.X(e.Qubit)
				case noise.PauliY:
					t.Y(e.Qubit)
				case noise.PauliZ:
					t.Z(e.Qubit)
				}
			}
		}
	}
	if !hasMeasure {
		for q := 0; q < c.NumQubits; q++ {
			bit := t.Measure(q, rng)
			if r.Model != nil && rng.Float64() < r.Model.ReadoutProb(q) {
				bit ^= 1
			}
			record(bit, q)
		}
	}
	return nil
}

// oracleOutcomeProbability returns the exact probability that a noiseless run of
// the Clifford circuit produces the given classical bitstring. For circuits
// without measurements the bitstring covers all qubits. Probabilities of
// stabilizer states are always of the form 2^-k (or 0), so this is exact.
func oracleOutcomeProbability(c *circuit.Circuit, bits string) (float64, error) {
	hasMeasure := c.HasMeasurements()
	if hasMeasure && len(bits) != c.NumClbits {
		return 0, fmt.Errorf("stabilizer: bitstring length %d != %d clbits", len(bits), c.NumClbits)
	}
	if !hasMeasure && len(bits) != c.NumQubits {
		return 0, fmt.Errorf("stabilizer: bitstring length %d != %d qubits", len(bits), c.NumQubits)
	}
	bitAt := func(pos int) (int, error) {
		switch bits[len(bits)-1-pos] {
		case '0':
			return 0, nil
		case '1':
			return 1, nil
		}
		return 0, fmt.Errorf("stabilizer: bad bitstring %q", bits)
	}
	t := newOracle(c.NumQubits)
	prob := 1.0
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateBarrier:
			continue
		case circuit.GateReset:
			return 0, fmt.Errorf("stabilizer: oracleOutcomeProbability does not support reset")
		case circuit.GateMeasure:
			want, err := bitAt(g.Clbits[0])
			if err != nil {
				return 0, err
			}
			prob *= t.ForcedMeasure(g.Qubits[0], want)
			if prob == 0 {
				return 0, nil
			}
			continue
		}
		if err := t.ApplyGate(g); err != nil {
			return 0, err
		}
	}
	if !hasMeasure {
		for q := 0; q < c.NumQubits; q++ {
			want, err := bitAt(q)
			if err != nil {
				return 0, err
			}
			prob *= t.ForcedMeasure(q, want)
			if prob == 0 {
				return 0, nil
			}
		}
	}
	return prob, nil
}

var paulis = [3]noise.Pauli{noise.PauliX, noise.PauliY, noise.PauliZ}

// oracleError is a Pauli error on one qubit.
type oracleError struct {
	Qubit int
	Pauli noise.Pauli
}

// SampleGateError draws the Pauli errors (possibly none) that follow one
// gate application on the given qubits. One-qubit gates use the depolarizing
// channel {I: 1-p, X/Y/Z: p/3 each}; two-qubit gates use the 16-element
// two-qubit depolarizing channel with the 15 non-identity Paulis equally
// likely. Gates on 3+ qubits are charged one two-qubit error per qubit pair
// (they should have been decomposed before execution anyway).
func oracleSampleGateError(m *noise.Model, qubits []int, rng *rand.Rand) []oracleError {
	if m == nil {
		return nil
	}
	switch len(qubits) {
	case 0:
		return nil
	case 1:
		q := qubits[0]
		if rng.Float64() >= m.OneQubitProb(q) {
			return nil
		}
		return []oracleError{{Qubit: q, Pauli: paulis[rng.Intn(3)]}}
	case 2:
		return oracleSampleTwoQubit(m, qubits[0], qubits[1], rng)
	default:
		var errs []oracleError
		for i := 0; i < len(qubits); i++ {
			for j := i + 1; j < len(qubits); j++ {
				errs = append(errs, oracleSampleTwoQubit(m, qubits[i], qubits[j], rng)...)
			}
		}
		return errs
	}
}

func oracleSampleTwoQubit(m *noise.Model, a, b int, rng *rand.Rand) []oracleError {
	p := m.TwoQubitProb(a, b)
	if rng.Float64() >= p {
		return nil
	}
	// Pick one of the 15 non-identity two-qubit Paulis uniformly.
	k := rng.Intn(15) + 1 // 1..15, base-4 digits (pa, pb), never (0,0)
	pa, pb := k%4, k/4
	var errs []oracleError
	if pa > 0 {
		errs = append(errs, oracleError{Qubit: a, Pauli: paulis[pa-1]})
	}
	if pb > 0 {
		errs = append(errs, oracleError{Qubit: b, Pauli: paulis[pb-1]})
	}
	return errs
}
