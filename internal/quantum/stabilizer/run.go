package stabilizer

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// opcode is one primitive step of a compiled circuit.
type opcode uint8

const (
	opH opcode = iota
	opS
	opX
	opY
	opZ
	opCX      // control a, target b
	opNoise1  // depolarizing error of strength p after a one-qubit gate on a
	opNoise2  // depolarizing error of strength p after a two-qubit gate on (a, b)
	opMeasure // measure qubit a into clbit b; the readout flips with probability p
	opReset
)

// op is one compiled step. Everything a shot would otherwise re-derive per
// gate — the gate name, its angles as quarter turns, the noise model's
// error probability for these qubits — was resolved when it was built; what
// the reference pass learns about a measure or reset op (kernel.go) sits in
// the struct's padding.
type op struct {
	code  opcode
	ref   uint8 // measure, reset: the reference run's outcome (0 when it was random)
	pivot int32 // measure, reset: where the kernel's slab holds the pivot row, -1 when deterministic
	a, b  int
	p     float64
}

// program is a circuit compiled for the tableau: a flat list of primitive
// ops over nq qubits writing nbits classical bits.
type program struct {
	ops   []op
	nq    int
	nbits int
	noisy bool // a noise model is attached: measurements draw a readout coin
	nmeas int  // measure and reset ops
}

// quarterTurns converts an angle to its multiple of π/2 mod 4, or errors.
func quarterTurns(a float64) (int, error) {
	k := a / (math.Pi / 2)
	r := math.Round(k)
	if math.Abs(k-r) > 1e-7 {
		return 0, fmt.Errorf("%w: angle %g is not a multiple of π/2", errNotClifford, a)
	}
	m := int(r) % 4
	if m < 0 {
		m += 4
	}
	return m, nil
}

// prim is one primitive of a gate's lowering; a and b index the gate's
// operands.
type prim struct {
	code opcode
	a, b int
}

// fixedGates lowers the parameter-free Clifford gates.
var fixedGates = map[string][]prim{
	circuit.GateID:      nil,
	circuit.GateBarrier: nil,
	circuit.GateX:       {{code: opX}},
	circuit.GateY:       {{code: opY}},
	circuit.GateZ:       {{code: opZ}},
	circuit.GateH:       {{code: opH}},
	circuit.GateS:       {{code: opS}},
	circuit.GateSdg:     {{code: opZ}, {code: opS}},
	circuit.GateSX:      {{code: opH}, {code: opS}, {code: opH}},
	circuit.GateCX:      {{opCX, 0, 1}},
	circuit.GateCZ:      {{opH, 1, 1}, {opCX, 0, 1}, {opH, 1, 1}},
	circuit.GateCY:      {{opZ, 1, 1}, {opS, 1, 1}, {opCX, 0, 1}, {opS, 1, 1}},
	circuit.GateSwap:    {{opCX, 0, 1}, {opCX, 1, 0}, {opCX, 0, 1}},
}

// Primitive sequences, by quarter turns, of the three axis rotations (up to
// global phase): rz = (I, S, Z, S†), rx = (I, √X, X, √X†), ry(π/2) ≅ H·Z.
var (
	rzTurns = [4][]opcode{nil, {opS}, {opZ}, {opZ, opS}}
	rxTurns = [4][]opcode{nil, {opH, opS, opH}, {opX}, {opH, opZ, opS, opH}}
	ryTurns = [4][]opcode{nil, {opZ, opH}, {opY}, {opH, opZ}}
)

// rotation is one factor of a parameterised gate: a rotation about an axis
// by the gate's param-th angle (param < 0: a fixed quarter turn).
type rotation struct {
	axis  *[4][]opcode
	param int
}

// rotationGates lowers the parameterised gates, factors in application
// order; u3(θ,φ,λ) ≅ rz(φ)·ry(θ)·rz(λ) up to global phase and u2(φ,λ) =
// u3(π/2,φ,λ).
var rotationGates = map[string][]rotation{
	circuit.GateU1: {{&rzTurns, 0}},
	circuit.GateP:  {{&rzTurns, 0}},
	circuit.GateRZ: {{&rzTurns, 0}},
	circuit.GateRX: {{&rxTurns, 0}},
	circuit.GateRY: {{&ryTurns, 0}},
	circuit.GateU2: {{&rzTurns, 1}, {&ryTurns, -1}, {&rzTurns, 0}},
	circuit.GateU3: {{&rzTurns, 2}, {&ryTurns, 0}, {&rzTurns, 1}},
}

// checkGate rejects a malformed gate or one reaching outside an n-qubit
// register, so lowering and execution can index without checks.
func checkGate(g circuit.Gate, n int) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("stabilizer: %w", err)
	}
	for _, q := range g.Qubits {
		if q >= n {
			return fmt.Errorf("stabilizer: qubit %d out of range (n=%d)", q, n)
		}
	}
	return nil
}

// appendGate lowers one (checked) unitary gate of the circuit vocabulary
// to primitive ops. Parameterised gates are accepted when their angles are
// multiples of π/2; non-Clifford gates return an error: callers should
// cliffordize first.
func appendGate(ops []op, g circuit.Gate) ([]op, error) {
	if seq, ok := fixedGates[g.Name]; ok {
		for _, p := range seq {
			ops = append(ops, op{code: p.code, a: g.Qubits[p.a], b: g.Qubits[p.b]})
		}
		return ops, nil
	}
	factors, ok := rotationGates[g.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNotClifford, g.Name)
	}
	for _, f := range factors {
		turns := 1
		if f.param >= 0 {
			var err error
			if turns, err = quarterTurns(g.Params[f.param]); err != nil {
				return nil, err
			}
		}
		for _, code := range f.axis[turns] {
			ops = append(ops, op{code: code, a: g.Qubits[0]})
		}
	}
	return ops, nil
}

// apply executes one unitary primitive.
func (t *Tableau) apply(o op) {
	switch o.code {
	case opH:
		t.H(o.a)
	case opS:
		t.S(o.a)
	case opX:
		t.X(o.a)
	case opY:
		t.Y(o.a)
	case opZ:
		t.Z(o.a)
	case opCX:
		t.CX(o.a, o.b)
	}
}

// ApplyGate applies a unitary Clifford gate from the circuit vocabulary.
// Parameterised gates are accepted when their angles are multiples of π/2.
// Non-Clifford gates return an error: callers should cliffordize first.
func (t *Tableau) ApplyGate(g circuit.Gate) error {
	if err := checkGate(g, t.n); err != nil {
		return err
	}
	ops, err := appendGate(nil, g)
	if err != nil {
		return err
	}
	for _, o := range ops {
		t.apply(o)
	}
	return nil
}

// compile lowers c to a program. With a noise model every gate except id
// is followed by its error draw and every measurement carries its readout
// flip probability, all looked up here, once, instead of once per shot.
// When the circuit has no measurements every qubit is measured at the end
// in qubit order. The ops are appended to ops[:0].
func compile(c *circuit.Circuit, model *noise.Model, ops []op) (*program, error) {
	p := &program{nq: c.NumQubits, nbits: c.NumClbits, noisy: model != nil}
	p.ops = slices.Grow(ops[:0], 2*len(c.Gates)+c.NumQubits)
	measure := func(q, clbit int) {
		o := op{code: opMeasure, a: q, b: clbit}
		if model != nil {
			o.p = model.ReadoutProb(q)
		}
		p.ops = append(p.ops, o)
		p.nmeas++
	}
	hasMeasure := c.HasMeasurements()
	if !hasMeasure {
		p.nbits = c.NumQubits
	}
	for _, g := range c.Gates {
		if err := checkGate(g, p.nq); err != nil {
			return nil, err
		}
		switch g.Name {
		case circuit.GateBarrier:
			continue
		case circuit.GateReset:
			p.ops = append(p.ops, op{code: opReset, a: g.Qubits[0]})
			p.nmeas++
			continue
		case circuit.GateMeasure:
			if clbit := g.Clbits[0]; clbit < 0 || clbit >= p.nbits {
				return nil, fmt.Errorf("stabilizer: clbit %d out of range (%d clbits)", clbit, p.nbits)
			}
			measure(g.Qubits[0], g.Clbits[0])
			continue
		}
		var err error
		if p.ops, err = appendGate(p.ops, g); err != nil {
			return nil, err
		}
		if model == nil || g.Name == circuit.GateID {
			continue
		}
		switch q := g.Qubits; len(q) {
		case 1:
			p.ops = append(p.ops, op{code: opNoise1, a: q[0], p: model.OneQubitProb(q[0])})
		case 2:
			p.ops = append(p.ops, op{code: opNoise2, a: q[0], b: q[1], p: model.TwoQubitProb(q[0], q[1])})
		}
	}
	if !hasMeasure {
		for q := 0; q < c.NumQubits; q++ {
			measure(q, q)
		}
	}
	return p, nil
}

// scratch is what a Counts call uses and does not return, recycled between
// calls (a cold sweep makes 500): the stream, the compiled ops, the
// kernel's slab and the tally of packed outcomes.
type scratch struct {
	s      stream
	k      kernel
	ops    []op
	key    []byte
	tally  map[string]int32 // packed outcome → its index in hits
	tally1 map[uint64]int32 // the same for outcomes of one word
	hits   []int
}

var scratches = sync.Pool{New: func() any { return &scratch{tally: map[string]int32{}, tally1: map[uint64]int32{}} }}

// Runner executes Clifford circuits shot-by-shot, optionally under a Pauli
// + readout noise model. It supports mid-circuit measurement and reset.
type Runner struct {
	Model *noise.Model // nil means noiseless
	Shots int
	Seed  int64
}

// Counts returns a histogram over classical bitstrings. When the circuit
// has no measurements every qubit is measured at the end in qubit order.
// Keys use the Qiskit convention: clbit 0 is the rightmost character.
// Registers beyond 64 bits are supported (the fleet has 100-qubit devices).
//
// The circuit is compiled once, one noiseless reference pass and one
// backward pass turn it into a list of random events with an outcome mask
// per draw (kernel.go), and a shot is the reference outcome XOR the masks
// its draws select. Counts are a function of (circuit, model, Shots, Seed)
// alone: the random stream is rand.New(rand.NewSource(Seed))'s, consumed in
// gate order — per gate its error draw (noise.DrawOneQubit /
// DrawTwoQubit), per measurement one Intn(2) when the outcome is random and
// then, with a model, one Float64 for the readout flip — and that order
// never changes. The kernel honours it because whether a measurement is
// random depends on the tableau's X/Z bits only, which errors and coins
// never touch, and it reads the stream (stream.go) exactly as those
// rand.Rand calls would.
func (r Runner) Counts(c *circuit.Circuit) (map[string]int, error) {
	if r.Shots <= 0 {
		return nil, fmt.Errorf("stabilizer: Shots must be positive, got %d", r.Shots)
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	prog, err := compile(c, r.Model, sc.ops)
	if err != nil {
		return nil, err
	}
	sc.ops = prog.ops
	k := &sc.k
	prog.kernel(k)
	sc.s.seed(r.Seed)
	// An outcome is tallied by its packed word — or, past 64 clbits, its
	// packed bytes — and formatted once, in the same buffer.
	n := max(8*k.words, prog.nbits)
	key := slices.Grow(sc.key[:0], n)[:n]
	nbytes := (prog.nbits + 7) / 8
	clear(sc.tally)
	clear(sc.tally1)
	hits := sc.hits[:0]
	for shot := 0; shot < r.Shots; shot++ {
		k.shot(&sc.s)
		if k.words == 1 {
			i, ok := sc.tally1[k.out[0]]
			if !ok {
				i = int32(len(hits))
				sc.tally1[k.out[0]] = i
				hits = append(hits, 0)
			}
			hits[i]++
			continue
		}
		for w, v := range k.out {
			binary.LittleEndian.PutUint64(key[8*w:], v)
		}
		i, ok := sc.tally[string(key[:nbytes])]
		if !ok {
			i = int32(len(hits))
			sc.tally[string(key[:nbytes])] = i
			hits = append(hits, 0)
		}
		hits[i]++
	}
	counts := make(map[string]int, len(hits))
	for v, i := range sc.tally1 {
		for b := range key[:prog.nbits] {
			key[prog.nbits-1-b] = '0' + byte(v>>b&1)
		}
		counts[string(key[:prog.nbits])] = hits[i]
	}
	for packed, i := range sc.tally {
		for b := range key[:prog.nbits] {
			key[prog.nbits-1-b] = '0' + packed[b>>3]>>(b&7)&1
		}
		counts[string(key[:prog.nbits])] = hits[i]
	}
	sc.key, sc.hits = key, hits
	return counts, nil
}

// FormatBits renders a basis index as a Qiskit-style bitstring (bit 0
// rightmost); identical convention to package statevec.
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

// ParseBits inverts FormatBits.
func ParseBits(s string) (int, error) {
	v := 0
	for i := 0; i < len(s); i++ {
		bit := s[len(s)-1-i]
		switch bit {
		case '1':
			v |= 1 << uint(i)
		case '0':
		default:
			return 0, fmt.Errorf("stabilizer: bad bitstring %q", s)
		}
	}
	return v, nil
}

// Ideal answers exact outcome-probability queries about the noiseless run
// of one Clifford circuit. The circuit is compiled once; every query
// replays it on a fresh tableau with the measurement outcomes forced, so an
// Ideal is safe for concurrent use.
type Ideal struct {
	prog *program
}

// NewIdeal compiles c for outcome queries.
func NewIdeal(c *circuit.Circuit) (*Ideal, error) {
	prog, err := compile(c, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Ideal{prog: prog}, nil
}

// Probability returns the exact probability that the circuit's noiseless
// run produces the given classical bitstring (all qubits, in qubit order,
// for a circuit without measurements). Probabilities of stabilizer states
// are always of the form 2^-k (or 0), so this is exact. A query that
// reaches a reset fails: a reset's measurement has no forced value.
func (id *Ideal) Probability(bits string) (float64, error) {
	if len(bits) != id.prog.nbits {
		return 0, fmt.Errorf("stabilizer: bitstring length %d != %d classical bits", len(bits), id.prog.nbits)
	}
	t := New(id.prog.nq)
	prob := 1.0
	for _, o := range id.prog.ops {
		switch o.code {
		case opReset:
			return 0, fmt.Errorf("stabilizer: OutcomeProbability does not support reset")
		case opMeasure:
			want := int(bits[len(bits)-1-o.b]) - '0'
			if want != 0 && want != 1 {
				return 0, fmt.Errorf("stabilizer: bad bitstring %q", bits)
			}
			prob *= t.ForcedMeasure(o.a, want)
			if prob == 0 {
				return 0, nil
			}
		default:
			t.apply(o)
		}
	}
	return prob, nil
}

// OutcomeProbability is NewIdeal(c).Probability(bits) for callers with a
// single query.
func OutcomeProbability(c *circuit.Circuit, bits string) (float64, error) {
	id, err := NewIdeal(c)
	if err != nil {
		return 0, err
	}
	return id.Probability(bits)
}
