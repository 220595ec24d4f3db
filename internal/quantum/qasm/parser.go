package qasm

import (
	"fmt"
	"math"
	"sync/atomic"

	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
)

// parses counts Parse calls, so tests can hold a path to its parse budget.
var parses atomic.Int64

// sharedSlots bounds ParseShared's memo. A recurring workload needs one
// entry per circuit it keeps submitting; a one-off circuit needs its entry
// only from submission to execution.
const sharedSlots = 32

// shared maps a source text to its parsed circuit.
var shared = memo.NewShared[string, *circuit.Circuit]("qasm.parse", sharedSlots)

// ParseShared is Parse behind a bounded, process-wide memo keyed by the
// exact source text: the intake and execution paths that each need a job's
// circuit parse its text once while it recurs. The circuit returned is
// shared with every other caller of the same text and must not be modified
// (copy it first; a shallow copy is enough to rename it). Errors are never
// stored, so an unparseable text fails the same way as Parse every time.
func ParseShared(src string) (*circuit.Circuit, error) {
	return shared.Load(src, func() (*circuit.Circuit, error) { return Parse(src) })
}

// Parse reads OpenQASM 2.0 source and returns the flattened circuit.
// All quantum registers are concatenated into one logical qubit space in
// declaration order, and likewise for classical registers.
func Parse(src string) (*circuit.Circuit, error) {
	parses.Add(1)
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:  toks,
		qregs: map[string]regInfo{},
		cregs: map[string]regInfo{},
		gates: map[string]*gateDef{},
	}
	return p.parseProgram()
}

type regInfo struct{ offset, size int }

// gateDef is a user-declared gate: `gate name(params) qargs { body }`.
type gateDef struct {
	params []string
	qargs  []string
	body   []bodyOp
}

// bodyOp is one statement inside a gate body. Qubit operands are indices
// into the enclosing definition's qarg list.
type bodyOp struct {
	name    string
	params  []*expr
	qargIdx []int
	barrier bool
}

type parser struct {
	toks  []token
	pos   int
	qregs map[string]regInfo
	cregs map[string]regInfo
	qlist []string // declaration order
	clist []string
	gates map[string]*gateDef
	nq    int
	nc    int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.advance()
	if t.kind != k {
		return t, p.errf(t, "expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) expectIdent(word string) error {
	t := p.advance()
	if t.kind != tokIdent || t.text != word {
		return p.errf(t, "expected %q, got %s", word, t)
	}
	return nil
}

func (p *parser) parseProgram() (*circuit.Circuit, error) {
	if err := p.expectIdent("OPENQASM"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokNumber, "version number"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return nil, err
	}
	c := &circuit.Circuit{}
	for p.peek().kind != tokEOF {
		if err := p.parseStatement(c); err != nil {
			return nil, err
		}
	}
	c.NumQubits = p.nq
	c.NumClbits = p.nc
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("qasm: parsed circuit invalid: %w", err)
	}
	return c, nil
}

func (p *parser) parseStatement(c *circuit.Circuit) error {
	t := p.peek()
	if t.kind != tokIdent {
		return p.errf(t, "expected statement, got %s", t)
	}
	switch t.text {
	case "include":
		p.advance()
		if _, err := p.expect(tokString, "include path"); err != nil {
			return err
		}
		_, err := p.expect(tokSemi, "';'")
		return err
	case "qreg", "creg":
		return p.parseRegDecl(t.text)
	case "gate":
		return p.parseGateDef()
	case "opaque":
		// Skip to semicolon: opaque gates cannot be executed anyway.
		for p.peek().kind != tokSemi && p.peek().kind != tokEOF {
			p.advance()
		}
		_, err := p.expect(tokSemi, "';'")
		return err
	case "measure":
		return p.parseMeasure(c)
	case "barrier":
		return p.parseBarrier(c)
	case "reset":
		return p.parseReset(c)
	case "if":
		return p.errf(t, "classical control ('if') is not supported")
	default:
		return p.parseGateApplication(c)
	}
}

func (p *parser) parseRegDecl(kind string) error {
	p.advance() // qreg/creg
	name, err := p.expect(tokIdent, "register name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLBracket, "'['"); err != nil {
		return err
	}
	sz, err := p.expect(tokNumber, "register size")
	if err != nil {
		return err
	}
	var n int
	if _, err := fmt.Sscanf(sz.text, "%d", &n); err != nil || n <= 0 {
		return p.errf(sz, "bad register size %q", sz.text)
	}
	if _, err := p.expect(tokRBracket, "']'"); err != nil {
		return err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return err
	}
	if kind == "qreg" {
		if _, dup := p.qregs[name.text]; dup {
			return p.errf(name, "duplicate qreg %q", name.text)
		}
		p.qregs[name.text] = regInfo{p.nq, n}
		p.qlist = append(p.qlist, name.text)
		p.nq += n
	} else {
		if _, dup := p.cregs[name.text]; dup {
			return p.errf(name, "duplicate creg %q", name.text)
		}
		p.cregs[name.text] = regInfo{p.nc, n}
		p.clist = append(p.clist, name.text)
		p.nc += n
	}
	return nil
}

// arg is a parsed register argument: whole register (idx < 0) or one element.
type arg struct {
	reg string
	idx int // -1 for whole register
}

func (p *parser) parseArg() (arg, error) {
	name, err := p.expect(tokIdent, "register reference")
	if err != nil {
		return arg{}, err
	}
	a := arg{reg: name.text, idx: -1}
	if p.peek().kind == tokLBracket {
		p.advance()
		num, err := p.expect(tokNumber, "index")
		if err != nil {
			return arg{}, err
		}
		if _, err := fmt.Sscanf(num.text, "%d", &a.idx); err != nil {
			return arg{}, p.errf(num, "bad index %q", num.text)
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return arg{}, err
		}
	}
	return a, nil
}

// resolveQ maps an argument to concrete qubit indices.
func (p *parser) resolveQ(a arg, at token) ([]int, error) {
	r, ok := p.qregs[a.reg]
	if !ok {
		return nil, p.errf(at, "unknown qreg %q", a.reg)
	}
	if a.idx >= 0 {
		if a.idx >= r.size {
			return nil, p.errf(at, "index %d out of range for qreg %q[%d]", a.idx, a.reg, r.size)
		}
		return []int{r.offset + a.idx}, nil
	}
	out := make([]int, r.size)
	for i := range out {
		out[i] = r.offset + i
	}
	return out, nil
}

func (p *parser) resolveC(a arg, at token) ([]int, error) {
	r, ok := p.cregs[a.reg]
	if !ok {
		return nil, p.errf(at, "unknown creg %q", a.reg)
	}
	if a.idx >= 0 {
		if a.idx >= r.size {
			return nil, p.errf(at, "index %d out of range for creg %q[%d]", a.idx, a.reg, r.size)
		}
		return []int{r.offset + a.idx}, nil
	}
	out := make([]int, r.size)
	for i := range out {
		out[i] = r.offset + i
	}
	return out, nil
}

func (p *parser) parseMeasure(c *circuit.Circuit) error {
	at := p.advance() // measure
	qa, err := p.parseArg()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokArrow, "'->'"); err != nil {
		return err
	}
	ca, err := p.parseArg()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return err
	}
	qs, err := p.resolveQ(qa, at)
	if err != nil {
		return err
	}
	cs, err := p.resolveC(ca, at)
	if err != nil {
		return err
	}
	if len(qs) != len(cs) {
		return p.errf(at, "measure operand sizes differ: %d vs %d", len(qs), len(cs))
	}
	for i := range qs {
		c.Gates = append(c.Gates, circuit.Gate{
			Name: circuit.GateMeasure, Qubits: []int{qs[i]}, Clbits: []int{cs[i]},
		})
	}
	return nil
}

func (p *parser) parseBarrier(c *circuit.Circuit) error {
	at := p.advance() // barrier
	var qubits []int
	for {
		a, err := p.parseArg()
		if err != nil {
			return err
		}
		qs, err := p.resolveQ(a, at)
		if err != nil {
			return err
		}
		qubits = append(qubits, qs...)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return err
	}
	c.Gates = append(c.Gates, circuit.Gate{Name: circuit.GateBarrier, Qubits: qubits})
	return nil
}

func (p *parser) parseReset(c *circuit.Circuit) error {
	at := p.advance() // reset
	a, err := p.parseArg()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return err
	}
	qs, err := p.resolveQ(a, at)
	if err != nil {
		return err
	}
	for _, q := range qs {
		c.Gates = append(c.Gates, circuit.Gate{Name: circuit.GateReset, Qubits: []int{q}})
	}
	return nil
}

// builtinName maps OpenQASM builtins and aliases onto the circuit vocabulary.
func builtinName(name string) string {
	switch name {
	case "U":
		return circuit.GateU3
	case "CX":
		return circuit.GateCX
	case "u":
		return circuit.GateU3
	case "cnot":
		return circuit.GateCX
	}
	return name
}

func (p *parser) parseGateApplication(c *circuit.Circuit) error {
	nameTok := p.advance()
	name := builtinName(nameTok.text)

	var params []float64
	if p.peek().kind == tokLParen {
		p.advance()
		if p.peek().kind != tokRParen {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return err
				}
				v, err := e.eval(nil)
				if err != nil {
					return p.errf(nameTok, "%v", err)
				}
				params = append(params, v)
				if p.peek().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return err
		}
	}

	var args []arg
	for {
		a, err := p.parseArg()
		if err != nil {
			return err
		}
		args = append(args, a)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return err
	}

	// Resolve each argument, then broadcast whole-register operands.
	resolved := make([][]int, len(args))
	bcast := 1
	for i, a := range args {
		qs, err := p.resolveQ(a, nameTok)
		if err != nil {
			return err
		}
		resolved[i] = qs
		if a.idx < 0 {
			if bcast != 1 && bcast != len(qs) {
				return p.errf(nameTok, "mismatched broadcast register sizes")
			}
			bcast = len(qs)
		}
	}
	for rep := 0; rep < bcast; rep++ {
		qubits := make([]int, len(args))
		for i := range args {
			if len(resolved[i]) == 1 {
				qubits[i] = resolved[i][0]
			} else {
				qubits[i] = resolved[i][rep]
			}
		}
		if err := p.emit(c, name, params, qubits, nameTok); err != nil {
			return err
		}
	}
	return nil
}

// emit appends a primitive gate or expands a user-defined one.
func (p *parser) emit(c *circuit.Circuit, name string, params []float64, qubits []int, at token) error {
	if def, ok := p.gates[name]; ok {
		return p.expand(c, def, name, params, qubits, at, 0)
	}
	if !circuit.KnownGate(name) {
		return p.errf(at, "unknown gate %q", name)
	}
	g := circuit.Gate{Name: name, Qubits: qubits, Params: params}
	if err := g.Validate(); err != nil {
		return p.errf(at, "%v", err)
	}
	c.Gates = append(c.Gates, g)
	return nil
}

const maxExpandDepth = 64

func (p *parser) expand(c *circuit.Circuit, def *gateDef, name string, params []float64, qubits []int, at token, depth int) error {
	if depth > maxExpandDepth {
		return p.errf(at, "gate %q expands too deeply (recursive definition?)", name)
	}
	if len(params) != len(def.params) {
		return p.errf(at, "gate %q wants %d params, got %d", name, len(def.params), len(params))
	}
	if len(qubits) != len(def.qargs) {
		return p.errf(at, "gate %q wants %d qubits, got %d", name, len(def.qargs), len(qubits))
	}
	env := map[string]float64{"pi": math.Pi}
	for i, pn := range def.params {
		env[pn] = params[i]
	}
	for _, op := range def.body {
		qs := make([]int, len(op.qargIdx))
		for i, idx := range op.qargIdx {
			qs[i] = qubits[idx]
		}
		if op.barrier {
			c.Gates = append(c.Gates, circuit.Gate{Name: circuit.GateBarrier, Qubits: qs})
			continue
		}
		var ps []float64
		for _, e := range op.params {
			v, err := e.eval(env)
			if err != nil {
				return p.errf(at, "in gate %q: %v", name, err)
			}
			ps = append(ps, v)
		}
		if sub, ok := p.gates[op.name]; ok {
			if err := p.expand(c, sub, op.name, ps, qs, at, depth+1); err != nil {
				return err
			}
			continue
		}
		if !circuit.KnownGate(op.name) {
			return p.errf(at, "gate %q uses unknown gate %q", name, op.name)
		}
		g := circuit.Gate{Name: op.name, Qubits: qs, Params: ps}
		if err := g.Validate(); err != nil {
			return p.errf(at, "in gate %q: %v", name, err)
		}
		c.Gates = append(c.Gates, g)
	}
	return nil
}

func (p *parser) parseGateDef() error {
	p.advance() // gate
	nameTok, err := p.expect(tokIdent, "gate name")
	if err != nil {
		return err
	}
	def := &gateDef{}
	if p.peek().kind == tokLParen {
		p.advance()
		if p.peek().kind != tokRParen {
			for {
				id, err := p.expect(tokIdent, "parameter name")
				if err != nil {
					return err
				}
				def.params = append(def.params, id.text)
				if p.peek().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return err
		}
	}
	for {
		id, err := p.expect(tokIdent, "qubit argument name")
		if err != nil {
			return err
		}
		def.qargs = append(def.qargs, id.text)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return err
	}
	qindex := map[string]int{}
	for i, n := range def.qargs {
		qindex[n] = i
	}
	for p.peek().kind != tokRBrace {
		if p.peek().kind == tokEOF {
			return p.errf(nameTok, "unterminated gate body for %q", nameTok.text)
		}
		op, err := p.parseBodyOp(qindex, def.params)
		if err != nil {
			return err
		}
		def.body = append(def.body, op)
	}
	p.advance() // }
	if _, dup := p.gates[nameTok.text]; dup {
		return p.errf(nameTok, "duplicate gate definition %q", nameTok.text)
	}
	p.gates[nameTok.text] = def
	return nil
}

func (p *parser) parseBodyOp(qindex map[string]int, paramNames []string) (bodyOp, error) {
	nameTok, err := p.expect(tokIdent, "gate name")
	if err != nil {
		return bodyOp{}, err
	}
	op := bodyOp{name: builtinName(nameTok.text)}
	if op.name == "barrier" {
		op.barrier = true
	}
	if p.peek().kind == tokLParen {
		p.advance()
		if p.peek().kind != tokRParen {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return bodyOp{}, err
				}
				op.params = append(op.params, e)
				if p.peek().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return bodyOp{}, err
		}
	}
	for {
		id, err := p.expect(tokIdent, "qubit argument")
		if err != nil {
			return bodyOp{}, err
		}
		idx, ok := qindex[id.text]
		if !ok {
			return bodyOp{}, p.errf(id, "unknown qubit argument %q in gate body", id.text)
		}
		op.qargIdx = append(op.qargIdx, idx)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return bodyOp{}, err
	}
	return op, nil
}
