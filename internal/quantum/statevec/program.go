package statevec

import (
	"fmt"
	"math/rand"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// opcode is one primitive step of a compiled circuit.
type opcode uint8

const (
	op1Q     opcode = iota // the 2x2 unitary m on qubit a
	opDiag                 // the same when m is diagonal
	opCX                   // control a, target b
	opCZ                   // on the pair (a, b)
	opSwap                 // exchanges a and b
	opNoise1               // depolarizing error of strength p after a one-qubit gate on a
	opNoise2               // depolarizing error of strength p after a gate on (a, b)
	opReset                // measure a (one Float64) and flip it back to |0>
)

// op is one compiled step. Everything a shot would otherwise re-derive per
// gate — its decomposition, its 2x2 matrix (a cmplx.Exp and two cosines
// each), the noise model's error probability for these qubits — was
// resolved when it was built.
type op struct {
	code opcode
	a, b int
	p    float64
	m    circuit.Matrix2
}

// measurement is one measured qubit: outcome bit qmask of the sampled
// index lands on classical bit cmask, flipped with probability p.
type measurement struct {
	qmask, cmask int
	p            float64
}

// program is a circuit compiled for the dense engine: a flat list of
// primitive ops over nq qubits, then the measurements in program order
// writing nbits classical bits.
type program struct {
	ops      []op
	measures []measurement
	nq       int
	nbits    int
	noisy    bool // a noise model is attached: measurements draw a readout coin
	hasReset bool
	// sites are the indices of the noise ops, in order: the places a shot
	// draws a gate error.
	sites []int
}

// matrixOp compiles a 2x2 unitary on qubit q.
func matrixOp(q int, m circuit.Matrix2) op {
	if m[0][1] == 0 && m[1][0] == 0 {
		return op{code: opDiag, a: q, m: m}
	}
	return op{code: op1Q, a: q, m: m}
}

// The Pauli errors, compiled once. They are the x, y and z gates' own
// matrices, last bits of cos(π/2) included, because the engine must
// compute the amplitudes a shot with that error always had.
var pauliOps = [...]op{
	noise.PauliX - noise.PauliX: matrixOp(0, circuit.Gate{Name: circuit.GateX}.MustMatrix1Q()),
	noise.PauliY - noise.PauliX: matrixOp(0, circuit.Gate{Name: circuit.GateY}.MustMatrix1Q()),
	noise.PauliZ - noise.PauliX: matrixOp(0, circuit.Gate{Name: circuit.GateZ}.MustMatrix1Q()),
}

// checkGate rejects a malformed gate or one reaching outside an n-qubit
// register, so lowering and execution can index without checks.
func checkGate(g circuit.Gate, n int) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("statevec: %w", err)
	}
	for _, q := range g.Qubits {
		if q >= n {
			return fmt.Errorf("statevec: qubit %d out of range (n=%d)", q, n)
		}
	}
	return nil
}

// appendGate lowers one (checked) unitary gate of the circuit vocabulary
// to primitive ops: cx, cz and swap natively, one-qubit gates as their
// matrix, everything else through its decomposition over {1q, cx}.
func appendGate(ops []op, g circuit.Gate) ([]op, error) {
	switch g.Name {
	case circuit.GateCX:
		return append(ops, op{code: opCX, a: g.Qubits[0], b: g.Qubits[1]}), nil
	case circuit.GateCZ:
		return append(ops, op{code: opCZ, a: g.Qubits[0], b: g.Qubits[1]}), nil
	case circuit.GateSwap:
		return append(ops, op{code: opSwap, a: g.Qubits[0], b: g.Qubits[1]}), nil
	case circuit.GateID:
		return ops, nil
	}
	if len(g.Qubits) == 1 {
		m, err := g.Matrix1Q()
		if err != nil {
			return nil, err
		}
		return append(ops, matrixOp(g.Qubits[0], m)), nil
	}
	if !g.Decomposes() {
		return nil, fmt.Errorf("statevec: cannot apply gate %q", g.Name)
	}
	for _, sg := range g.Decompose() {
		var err error
		if ops, err = appendGate(ops, sg); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// compile lowers c to a program. Measurements must be terminal. With a
// noise model every unitary gate except id is followed by its error draw —
// one for a one- or two-qubit gate, one per qubit pair i<j for a wider one
// — and every measurement carries its readout flip probability, all looked
// up here, once, instead of once per shot. When the circuit has no
// measurements every qubit is measured at the end in qubit order.
func compile(c *circuit.Circuit, model *noise.Model) (*program, error) {
	qubits, clbits, err := terminalMeasurements(c)
	if err != nil {
		return nil, err
	}
	if c.NumQubits < 0 || c.NumQubits > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits out of range [0,%d]", c.NumQubits, MaxQubits)
	}
	p := &program{nq: c.NumQubits, nbits: c.NumClbits, noisy: model != nil}
	if len(qubits) == 0 {
		p.nbits = c.NumQubits
		for q := 0; q < c.NumQubits; q++ {
			qubits, clbits = append(qubits, q), append(clbits, q)
		}
	}
	for i, q := range qubits {
		if clbits[i] < 0 || clbits[i] >= p.nbits {
			return nil, fmt.Errorf("statevec: clbit %d out of range (%d clbits)", clbits[i], p.nbits)
		}
		m := measurement{qmask: 1 << uint(q), cmask: 1 << uint(clbits[i])}
		if model != nil {
			m.p = model.ReadoutProb(q)
		}
		p.measures = append(p.measures, m)
	}
	p.ops = make([]op, 0, 2*len(c.Gates))
	for _, g := range c.Gates {
		if err := checkGate(g, p.nq); err != nil {
			return nil, err
		}
		switch g.Name {
		case circuit.GateBarrier, circuit.GateMeasure:
			continue
		case circuit.GateReset:
			p.ops = append(p.ops, op{code: opReset, a: g.Qubits[0]})
			p.hasReset = true
			continue
		}
		if p.ops, err = appendGate(p.ops, g); err != nil {
			return nil, err
		}
		if model == nil || g.Name == circuit.GateID {
			continue
		}
		if q := g.Qubits; len(q) == 1 {
			p.sites = append(p.sites, len(p.ops))
			p.ops = append(p.ops, op{code: opNoise1, a: q[0], p: model.OneQubitProb(q[0])})
			continue
		}
		for i, a := range g.Qubits {
			for _, b := range g.Qubits[i+1:] {
				p.sites = append(p.sites, len(p.ops))
				p.ops = append(p.ops, op{code: opNoise2, a: a, b: b, p: model.TwoQubitProb(a, b)})
			}
		}
	}
	return p, nil
}

// apply executes one unitary primitive.
func (s *State) apply(o *op) {
	switch o.code {
	case op1Q:
		s.Apply1Q(o.a, o.m)
	case opDiag:
		s.applyDiagonal(o.a, o.m[0][0], o.m[1][1])
	case opCX, opCZ, opSwap:
		s.apply2Q(o.code, o.a, o.b)
	}
}

// pauli applies a drawn Pauli error (PauliNone does nothing).
func (s *State) pauli(q int, p noise.Pauli) {
	if p != noise.PauliNone {
		o := pauliOps[p-noise.PauliX]
		o.a = q
		s.apply(&o)
	}
}

// reset returns the state to |0...0> in place.
func (s *State) reset() {
	clear(s.amps)
	s.amps[0] = 1
}

// hit is one gate error a shot drew: the Paulis to inject at the program's
// site-th noise op.
type hit struct {
	site   int
	pa, pb noise.Pauli
}

// drawErrors draws one shot's gate errors, site by site in circuit order,
// and appends the ones that fired to hits. No draw depends on the quantum
// state (the program has no reset), so the stream is consumed exactly as a
// shot that interleaved the draws with its gates would consume it.
func (p *program) drawErrors(rng *rand.Rand, hits []hit) []hit {
	for site, at := range p.sites {
		o := &p.ops[at]
		if o.code == opNoise1 {
			if pa := noise.DrawOneQubit(o.p, rng); pa != noise.PauliNone {
				hits = append(hits, hit{site: site, pa: pa})
			}
			continue
		}
		if pa, pb := noise.DrawTwoQubit(o.p, rng); pa != noise.PauliNone || pb != noise.PauliNone {
			hits = append(hits, hit{site: site, pa: pa, pb: pb})
		}
	}
	return hits
}

// replay executes ops[from:] with the drawn errors injected at their
// sites; hits are in site order and none sits before from.
func (p *program) replay(s *State, from int, hits []hit) {
	for i := from; i < len(p.ops); i++ {
		o := &p.ops[i]
		switch o.code {
		case opNoise1, opNoise2:
			if len(hits) > 0 && p.sites[hits[0].site] == i {
				s.pauli(o.a, hits[0].pa)
				s.pauli(o.b, hits[0].pb)
				hits = hits[1:]
			}
		default:
			s.apply(o)
		}
	}
}

// runShot executes one trajectory in program order, drawing as it goes —
// the loop for programs with a reset, whose draw picks a branch of the
// state and so cannot be taken ahead of the gates before it.
func (p *program) runShot(s *State, rng *rand.Rand) {
	for i := range p.ops {
		o := &p.ops[i]
		switch o.code {
		case opNoise1:
			s.pauli(o.a, noise.DrawOneQubit(o.p, rng))
		case opNoise2:
			pa, pb := noise.DrawTwoQubit(o.p, rng)
			s.pauli(o.a, pa)
			s.pauli(o.b, pb)
		case opReset:
			s.ResetQubit(o.a, rng)
		default:
			s.apply(o)
		}
	}
}

// readout maps a sampled basis index to its classical-register key: each
// measured qubit's bit, flipped by its readout coin (noisy programs only,
// one Float64 per measurement in program order), onto its classical bit.
func (p *program) readout(idx int, rng *rand.Rand) int {
	key := 0
	for _, m := range p.measures {
		one := idx&m.qmask != 0
		if p.noisy && rng.Float64() < m.p {
			one = !one
		}
		if one {
			key |= m.cmask
		}
	}
	return key
}

// distribution returns the exact outcome distribution of the state over
// the program's classical register. Amplitudes are summed per key in index
// order and a key is formatted once, not once per amplitude.
func (p *program) distribution(s *State) map[string]float64 {
	byKey := make(map[int]float64)
	for i, a := range s.amps {
		pr := real(a)*real(a) + imag(a)*imag(a)
		if pr <= 1e-15 {
			continue
		}
		key := 0
		for _, m := range p.measures {
			if i&m.qmask != 0 {
				key |= m.cmask
			}
		}
		byKey[key] += pr
	}
	dist := make(map[string]float64, len(byKey))
	for key, pr := range byKey {
		dist[FormatBits(key, p.nbits)] = pr
	}
	return dist
}
