package circuit

import (
	"fmt"
	"sort"
)

// Circuit is an ordered list of gates over NumQubits qubits and NumClbits
// classical bits. The zero value is an empty circuit over zero qubits.
type Circuit struct {
	Name      string
	NumQubits int
	NumClbits int
	Gates     []Gate
}

// New returns an empty circuit over n qubits and n classical bits.
func New(n int) *Circuit {
	return &Circuit{NumQubits: n, NumClbits: n}
}

// NewWithClbits returns an empty circuit with explicit register sizes.
func NewWithClbits(nq, nc int) *Circuit {
	return &Circuit{NumQubits: nq, NumClbits: nc}
}

// Copy returns a deep copy of the circuit.
func (c *Circuit) Copy() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	out.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		out.Gates[i] = g.Copy()
	}
	return out
}

// Append validates g and adds it to the circuit, growing the qubit register
// if needed.
func (c *Circuit) Append(g Gate) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, q := range g.Qubits {
		if q >= c.NumQubits {
			return fmt.Errorf("circuit: qubit %d out of range (%d qubits)", q, c.NumQubits)
		}
	}
	for _, b := range g.Clbits {
		if b < 0 || b >= c.NumClbits {
			return fmt.Errorf("circuit: clbit %d out of range (%d clbits)", b, c.NumClbits)
		}
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// MustAppend is Append that panics on error; for use by builders whose
// inputs are statically correct.
func (c *Circuit) MustAppend(g Gate) {
	if err := c.Append(g); err != nil {
		panic(err)
	}
}

// Builder helpers. Each appends a standard gate and panics on misuse
// (out-of-range qubits), which indicates a programming error.

func (c *Circuit) H(q int)       { c.MustAppend(Gate{Name: GateH, Qubits: []int{q}}) }
func (c *Circuit) X(q int)       { c.MustAppend(Gate{Name: GateX, Qubits: []int{q}}) }
func (c *Circuit) Y(q int)       { c.MustAppend(Gate{Name: GateY, Qubits: []int{q}}) }
func (c *Circuit) Z(q int)       { c.MustAppend(Gate{Name: GateZ, Qubits: []int{q}}) }
func (c *Circuit) S(q int)       { c.MustAppend(Gate{Name: GateS, Qubits: []int{q}}) }
func (c *Circuit) Sdg(q int)     { c.MustAppend(Gate{Name: GateSdg, Qubits: []int{q}}) }
func (c *Circuit) T(q int)       { c.MustAppend(Gate{Name: GateT, Qubits: []int{q}}) }
func (c *Circuit) Tdg(q int)     { c.MustAppend(Gate{Name: GateTdg, Qubits: []int{q}}) }
func (c *Circuit) CX(a, b int)   { c.MustAppend(Gate{Name: GateCX, Qubits: []int{a, b}}) }
func (c *Circuit) CZ(a, b int)   { c.MustAppend(Gate{Name: GateCZ, Qubits: []int{a, b}}) }
func (c *Circuit) Swap(a, b int) { c.MustAppend(Gate{Name: GateSwap, Qubits: []int{a, b}}) }
func (c *Circuit) CCX(a, b, t int) {
	c.MustAppend(Gate{Name: GateCCX, Qubits: []int{a, b, t}})
}
func (c *Circuit) RX(q int, theta float64) {
	c.MustAppend(Gate{Name: GateRX, Qubits: []int{q}, Params: []float64{theta}})
}
func (c *Circuit) RY(q int, theta float64) {
	c.MustAppend(Gate{Name: GateRY, Qubits: []int{q}, Params: []float64{theta}})
}
func (c *Circuit) RZ(q int, theta float64) {
	c.MustAppend(Gate{Name: GateRZ, Qubits: []int{q}, Params: []float64{theta}})
}
func (c *Circuit) U1(q int, l float64) {
	c.MustAppend(Gate{Name: GateU1, Qubits: []int{q}, Params: []float64{l}})
}
func (c *Circuit) U2(q int, p, l float64) {
	c.MustAppend(Gate{Name: GateU2, Qubits: []int{q}, Params: []float64{p, l}})
}
func (c *Circuit) U3(q int, t, p, l float64) {
	c.MustAppend(Gate{Name: GateU3, Qubits: []int{q}, Params: []float64{t, p, l}})
}
func (c *Circuit) Measure(q, clbit int) {
	c.MustAppend(Gate{Name: GateMeasure, Qubits: []int{q}, Clbits: []int{clbit}})
}
func (c *Circuit) Barrier(qs ...int) {
	c.MustAppend(Gate{Name: GateBarrier, Qubits: qs})
}
func (c *Circuit) Reset(q int) {
	c.MustAppend(Gate{Name: GateReset, Qubits: []int{q}})
}

// MeasureAll appends measure q[i] -> c[i] for every qubit, growing the
// classical register if needed.
func (c *Circuit) MeasureAll() {
	if c.NumClbits < c.NumQubits {
		c.NumClbits = c.NumQubits
	}
	for q := 0; q < c.NumQubits; q++ {
		c.Measure(q, q)
	}
}

// HasMeasurements reports whether the circuit contains any measure gates.
func (c *Circuit) HasMeasurements() bool {
	for _, g := range c.Gates {
		if g.Name == GateMeasure {
			return true
		}
	}
	return false
}

// MeasuredQubits returns (qubit, clbit) pairs in program order.
func (c *Circuit) MeasuredQubits() (qubits, clbits []int) {
	for _, g := range c.Gates {
		if g.Name == GateMeasure {
			qubits = append(qubits, g.Qubits[0])
			clbits = append(clbits, g.Clbits[0])
		}
	}
	return qubits, clbits
}

// WithoutMeasurements returns a copy of c with measure/barrier gates removed.
func (c *Circuit) WithoutMeasurements() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	for _, g := range c.Gates {
		if g.Name == GateMeasure || g.Name == GateBarrier {
			continue
		}
		out.Gates = append(out.Gates, g.Copy())
	}
	return out
}

// CountOps returns a histogram of gate names.
func (c *Circuit) CountOps() map[string]int {
	m := make(map[string]int)
	for _, g := range c.Gates {
		m[g.Name]++
	}
	return m
}

// Size returns the number of gates excluding barriers.
func (c *Circuit) Size() int {
	n := 0
	for _, g := range c.Gates {
		if g.Name != GateBarrier {
			n++
		}
	}
	return n
}

// TwoQubitGateCount returns the number of gates acting on exactly 2 qubits.
func (c *Circuit) TwoQubitGateCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsUnitary() && len(g.Qubits) == 2 {
			n++
		}
	}
	return n
}

// Depth returns the circuit depth: the length of the longest path through
// the gate dependency DAG. Barriers synchronise the qubits they touch
// (or all qubits when given none) without contributing depth.
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits+c.NumClbits)
	clOff := c.NumQubits
	max := 0
	for _, g := range c.Gates {
		wires := make([]int, 0, len(g.Qubits)+len(g.Clbits))
		if g.Name == GateBarrier && len(g.Qubits) == 0 {
			for q := 0; q < c.NumQubits; q++ {
				wires = append(wires, q)
			}
		} else {
			wires = append(wires, g.Qubits...)
		}
		for _, b := range g.Clbits {
			wires = append(wires, clOff+b)
		}
		h := 0
		for _, w := range wires {
			if level[w] > h {
				h = level[w]
			}
		}
		if g.Name != GateBarrier {
			h++
		}
		for _, w := range wires {
			level[w] = h
		}
		if h > max {
			max = h
		}
	}
	return max
}

// Edge is an undirected pair of qubits with a < b.
type Edge struct{ A, B int }

// NormEdge returns the normalised (sorted) edge for a qubit pair.
func NormEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// InteractionGraph returns the multiset of 2-qubit interactions in the
// circuit as a map from normalised edge to occurrence count. Gates on three
// or more qubits contribute every pairwise edge (they must be decomposed
// before hardware mapping anyway).
func (c *Circuit) InteractionGraph() map[Edge]int {
	m := make(map[Edge]int)
	for _, g := range c.Gates {
		if !g.IsUnitary() {
			continue
		}
		qs := g.Qubits
		for i := 0; i < len(qs); i++ {
			for j := i + 1; j < len(qs); j++ {
				m[NormEdge(qs[i], qs[j])]++
			}
		}
	}
	return m
}

// InteractionEdges returns the distinct interaction edges sorted
// lexicographically; convenient for deterministic iteration.
func (c *Circuit) InteractionEdges() []Edge {
	g := c.InteractionGraph()
	edges := make([]Edge, 0, len(g))
	for e := range g {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	return edges
}

// ActiveQubits returns the sorted list of qubits touched by any gate.
func (c *Circuit) ActiveQubits() []int {
	seen := map[int]bool{}
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			seen[q] = true
		}
	}
	out := make([]int, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// RemapQubits returns a copy of the circuit with every qubit q replaced by
// perm[q]. perm must be a map defined on all active qubits; newSize is the
// qubit register size of the result.
func (c *Circuit) RemapQubits(perm map[int]int, newSize int) (*Circuit, error) {
	out := &Circuit{Name: c.Name, NumQubits: newSize, NumClbits: c.NumClbits}
	for _, g := range c.Gates {
		ng := g.Copy()
		for i, q := range ng.Qubits {
			p, ok := perm[q]
			if !ok {
				return nil, fmt.Errorf("circuit: remap has no image for qubit %d", q)
			}
			if p < 0 || p >= newSize {
				return nil, fmt.Errorf("circuit: remap image %d out of range %d", p, newSize)
			}
			ng.Qubits[i] = p
		}
		out.Gates = append(out.Gates, ng)
	}
	return out, nil
}

// Decompose returns a copy of the circuit with all multi-qubit gates beyond
// cx rewritten over {1-qubit, cx}, applied recursively.
func (c *Circuit) Decompose() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	var expand func(g Gate)
	expand = func(g Gate) {
		sub := g.rewrite()
		if sub == nil {
			out.Gates = append(out.Gates, g.Copy())
			return
		}
		for _, s := range sub {
			expand(s)
		}
	}
	for _, g := range c.Gates {
		expand(g)
	}
	return out
}

// IsClifford reports whether every unitary gate in the circuit is Clifford.
func (c *Circuit) IsClifford() bool {
	for _, g := range c.Gates {
		if g.IsUnitary() && !g.IsClifford() {
			return false
		}
	}
	return true
}

// Validate checks every gate against the register sizes.
func (c *Circuit) Validate() error {
	if c.NumQubits < 0 || c.NumClbits < 0 {
		return fmt.Errorf("circuit: negative register size")
	}
	for i, g := range c.Gates {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
		for _, q := range g.Qubits {
			if q >= c.NumQubits {
				return fmt.Errorf("gate %d (%s): qubit %d out of range", i, g.Name, q)
			}
		}
		for _, b := range g.Clbits {
			if b >= c.NumClbits {
				return fmt.Errorf("gate %d (%s): clbit %d out of range", i, g.Name, b)
			}
		}
	}
	return nil
}

// String summarises the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("Circuit(%q, %d qubits, %d clbits, %d gates, depth %d)",
		c.Name, c.NumQubits, c.NumClbits, len(c.Gates), c.Depth())
}
