package statevec

import (
	"fmt"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// opcode is one primitive step of a compiled circuit.
type opcode uint8

const (
	op1Q    opcode = iota // the 2x2 unitary m on qubit a
	opDiag                // the same when m is diagonal
	opCX                  // control a, target b
	opCZ                  // on the pair (a, b)
	opSwap                // exchanges a and b
	opNoise               // a gate-error draw (its site's errs entry) after a gate on a, or on (a, b)
	opReset               // measure a (one Float64) and flip it back to |0>
)

// op is one compiled step. Everything a shot would otherwise re-derive per
// gate — its decomposition, its 2x2 matrix (a cmplx.Exp and two cosines
// each) — was resolved when it was built. A noise op's draw is the
// program's errs entry of its site.
type op struct {
	code opcode
	a, b int
	m    circuit.Matrix2
}

// measurement is one measured qubit: outcome bit qmask of the sampled
// index lands on classical bit cmask.
type measurement struct {
	qmask, cmask int
}

// draws is a run of draws a shot makes in order: draw i is of kind kind[i],
// firing with probability p[i], at threshold t[i].
type draws struct {
	t    []noise.Threshold
	kind []noise.Kind
	p    []float64
}

// newDraws returns an empty run with room for n draws.
func newDraws(n int) draws {
	return draws{t: make([]noise.Threshold, 0, n), kind: make([]noise.Kind, 0, n), p: make([]float64, 0, n)}
}

// add appends a draw of kind k that fires with probability p.
func (ds *draws) add(k noise.Kind, p float64) {
	ds.t, ds.kind, ds.p = append(ds.t, noise.ThresholdOf(p)), append(ds.kind, k), append(ds.p, p)
}

// fire makes the draws in order and appends i<<4 | d for each draw i whose
// selection d is not 0 — a run of quiet draws costs a compare each.
func (ds *draws) fire(st *noise.Stream, out []uint64) []uint64 {
	for i := 0; ; i++ {
		if i += st.Quiet(ds.t[i:]); i == len(ds.t) {
			return out
		}
		if d := st.DrawAt(ds.kind[i], ds.t[i]); d != 0 {
			out = append(out, uint64(i)<<4|uint64(d))
		}
	}
}

// program is a circuit compiled for the dense engine: a flat list of
// primitive ops over nq qubits, then the measurements in program order
// writing nbits classical bits.
type program struct {
	ops      []op
	measures []measurement
	nq       int
	nbits    int
	hasReset bool
	// sites are the indices of the noise ops, in order: the places a shot
	// draws a gate error, errs[i] at sites[i].
	sites []int
	errs  draws
	// reads are the measurements' readout draws, one each in order; none
	// without a noise model.
	reads draws
}

// matrixOp compiles a 2x2 unitary on qubit q.
func matrixOp(q int, m circuit.Matrix2) op {
	if m[0][1] == 0 && m[1][0] == 0 {
		return op{code: opDiag, a: q, m: m}
	}
	return op{code: op1Q, a: q, m: m}
}

// The Pauli errors X, Y, Z, compiled once and indexed by their base-4
// digit less one. They are the x, y and z gates' own matrices, last bits
// of cos(π/2) included, because the engine must compute the amplitudes a
// shot with that error always had.
var pauliOps = [...]op{
	matrixOp(0, circuit.Gate{Name: circuit.GateX}.MustMatrix1Q()),
	matrixOp(0, circuit.Gate{Name: circuit.GateY}.MustMatrix1Q()),
	matrixOp(0, circuit.Gate{Name: circuit.GateZ}.MustMatrix1Q()),
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
// noise model every unitary gate is followed by its error draws
// (noise.Model.Sites) and every measurement carries its readout flip
// probability, all looked up here, once, instead of once per shot. When the circuit has no
// measurements every qubit is measured at the end in qubit order.
func compile(c *circuit.Circuit, model *noise.Model) (*program, error) {
	qubits, clbits, err := terminalMeasurements(c)
	if err != nil {
		return nil, err
	}
	if c.NumQubits < 0 || c.NumQubits > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits out of range [0,%d]", c.NumQubits, MaxQubits)
	}
	p := &program{nq: c.NumQubits, nbits: c.NumClbits}
	if len(qubits) == 0 {
		p.nbits = c.NumQubits
		for q := 0; q < c.NumQubits; q++ {
			qubits, clbits = append(qubits, q), append(clbits, q)
		}
	}
	if model != nil {
		// A unitary gate has one site, a three-qubit gate three.
		p.sites, p.errs, p.reads = make([]int, 0, len(c.Gates)), newDraws(len(c.Gates)), newDraws(len(qubits))
	}
	for i, q := range qubits {
		if clbits[i] < 0 || clbits[i] >= p.nbits {
			return nil, fmt.Errorf("statevec: clbit %d out of range (%d clbits)", clbits[i], p.nbits)
		}
		p.measures = append(p.measures, measurement{qmask: 1 << uint(q), cmask: 1 << uint(clbits[i])})
		if model != nil {
			p.reads.add(noise.Readout, model.ReadoutProb(q))
		}
	}
	p.ops = make([]op, 0, 2*len(c.Gates))
	for _, g := range c.Gates {
		if err := g.ValidateOn(p.nq); err != nil {
			return nil, fmt.Errorf("statevec: %w", err)
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
		model.Sites(g, func(s noise.Site) {
			p.sites = append(p.sites, len(p.ops))
			p.ops = append(p.ops, op{code: opNoise, a: s.A, b: s.B})
			p.errs.add(s.Kind, s.P)
		})
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

// advance executes the unitary ops in ops[from:to], injecting nothing.
func (p *program) advance(s *State, from, to int) {
	for i := from; i < to; i++ {
		if o := &p.ops[i]; o.code != opNoise {
			s.apply(o)
		}
	}
}

// inject applies error draw d (noise.Stream.Draw's selection) at noise op
// o: Pauli digit d%4 on o.a, d/4 on o.b.
func (s *State) inject(o *op, d int) {
	s.pauli(o.a, d%4)
	s.pauli(o.b, d/4)
}

// pauli applies the Pauli with base-4 digit d (0 I, 1 X, 2 Y, 3 Z) to q.
func (s *State) pauli(q, d int) {
	if d != 0 {
		o := pauliOps[d-1]
		o.a = q
		s.apply(&o)
	}
}

// reset returns the state to |0...0> in place.
func (s *State) reset() {
	clear(s.amps)
	s.amps[0] = 1
}

// runShot executes one trajectory in program order, drawing as it goes —
// the loop for programs with a reset, whose draw picks a branch of the
// state and so cannot be taken ahead of the gates before it.
func (p *program) runShot(s *State, st *noise.Stream) {
	site := 0
	for i := range p.ops {
		o := &p.ops[i]
		switch o.code {
		case opNoise:
			s.inject(o, st.DrawAt(p.errs.kind[site], p.errs.t[site]))
			site++
		case opReset:
			s.ResetQubit(o.a, st.Float64())
		default:
			s.apply(o)
		}
	}
}

// key maps a sampled basis index to its classical-register key: each
// measured qubit's bit, flipped where the shot's readout draw fired (flips:
// reads.fire's entries), onto its classical bit.
func (p *program) key(idx int, flips []uint64) int {
	key := 0
	for i, m := range p.measures {
		one := idx&m.qmask != 0
		if len(flips) > 0 && flips[0]>>4 == uint64(i) {
			one, flips = !one, flips[1:]
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
