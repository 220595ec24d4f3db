// Package circuit provides the quantum-circuit intermediate representation
// shared by every QRIO component: the QASM front end, the transpiler, the
// state-vector and stabilizer simulators, and the Mapomatic-style scorer.
//
// The gate vocabulary follows OpenQASM 2.0's qelib1 subset plus the
// IBM-style u1/u2/u3 basis the paper's backends expose (Table 2).
package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Gate is a single circuit operation: a unitary gate, a measurement, a
// reset, or a barrier. Qubits are logical indices into the owning circuit;
// Clbits are only used by "measure".
type Gate struct {
	Name   string    // lower-case mnemonic, e.g. "h", "cx", "u3", "measure"
	Qubits []int     // operand qubits, in gate-argument order
	Params []float64 // rotation angles in radians, if any
	Clbits []int     // classical targets (measure only)
}

// Standard gate names understood across the system.
const (
	GateID      = "id"
	GateX       = "x"
	GateY       = "y"
	GateZ       = "z"
	GateH       = "h"
	GateS       = "s"
	GateSdg     = "sdg"
	GateT       = "t"
	GateTdg     = "tdg"
	GateSX      = "sx"
	GateRX      = "rx"
	GateRY      = "ry"
	GateRZ      = "rz"
	GateU1      = "u1"
	GateU2      = "u2"
	GateU3      = "u3"
	GateP       = "p"
	GateCX      = "cx"
	GateCZ      = "cz"
	GateCY      = "cy"
	GateCH      = "ch"
	GateCRZ     = "crz"
	GateCU1     = "cu1"
	GateSwap    = "swap"
	GateCCX     = "ccx"
	GateCCZ     = "ccz"
	GateCSwap   = "cswap"
	GateRZZ     = "rzz"
	GateMeasure = "measure"
	GateBarrier = "barrier"
	GateReset   = "reset"
)

// spec describes the static shape of a named gate.
type spec struct {
	qubits int // -1 means variadic (barrier)
	params int
}

var gateSpecs = map[string]spec{
	GateID: {1, 0}, GateX: {1, 0}, GateY: {1, 0}, GateZ: {1, 0},
	GateH: {1, 0}, GateS: {1, 0}, GateSdg: {1, 0}, GateT: {1, 0},
	GateTdg: {1, 0}, GateSX: {1, 0},
	GateRX: {1, 1}, GateRY: {1, 1}, GateRZ: {1, 1},
	GateU1: {1, 1}, GateU2: {1, 2}, GateU3: {1, 3}, GateP: {1, 1},
	GateCX: {2, 0}, GateCZ: {2, 0}, GateCY: {2, 0}, GateCH: {2, 0},
	GateCRZ: {2, 1}, GateCU1: {2, 1}, GateSwap: {2, 0}, GateRZZ: {2, 1},
	GateCCX: {3, 0}, GateCCZ: {3, 0}, GateCSwap: {3, 0},
	GateMeasure: {1, 0}, GateReset: {1, 0}, GateBarrier: {-1, 0},
}

// KnownGate reports whether name is part of the supported vocabulary.
func KnownGate(name string) bool {
	_, ok := gateSpecs[name]
	return ok
}

// GateArity returns the number of qubit operands a named gate takes,
// or -1 for variadic gates (barrier). It returns 0, false for unknown names.
func GateArity(name string) (int, bool) {
	s, ok := gateSpecs[name]
	if !ok {
		return 0, false
	}
	return s.qubits, true
}

// GateParamCount returns the number of angle parameters a named gate takes.
func GateParamCount(name string) (int, bool) {
	s, ok := gateSpecs[name]
	if !ok {
		return 0, false
	}
	return s.params, true
}

// Validate checks the gate's shape against the vocabulary.
func (g Gate) Validate() error {
	s, ok := gateSpecs[g.Name]
	if !ok {
		return fmt.Errorf("circuit: unknown gate %q", g.Name)
	}
	if s.qubits >= 0 && len(g.Qubits) != s.qubits {
		return fmt.Errorf("circuit: gate %q wants %d qubits, got %d", g.Name, s.qubits, len(g.Qubits))
	}
	if len(g.Params) != s.params {
		return fmt.Errorf("circuit: gate %q wants %d params, got %d", g.Name, s.params, len(g.Params))
	}
	if g.Name == GateMeasure && len(g.Clbits) != 1 {
		return fmt.Errorf("circuit: measure wants 1 clbit, got %d", len(g.Clbits))
	}
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("circuit: gate %q has negative qubit %d", g.Name, q)
		}
		// Operand lists are one to three qubits long (barriers aside), and
		// every transpile and every compiled simulation validates every
		// gate: a scan allocates nothing where a set allocated per gate.
		for _, earlier := range g.Qubits[:i] {
			if earlier == q {
				return fmt.Errorf("circuit: gate %q repeats qubit %d", g.Name, q)
			}
		}
	}
	return nil
}

// IsUnitary reports whether the gate is a unitary operation (as opposed to
// measure, reset, or barrier).
func (g Gate) IsUnitary() bool {
	switch g.Name {
	case GateMeasure, GateBarrier, GateReset:
		return false
	}
	return true
}

// Copy returns a deep copy of the gate.
func (g Gate) Copy() Gate {
	c := Gate{Name: g.Name}
	c.Qubits = append([]int(nil), g.Qubits...)
	if g.Params != nil {
		c.Params = append([]float64(nil), g.Params...)
	}
	if g.Clbits != nil {
		c.Clbits = append([]int(nil), g.Clbits...)
	}
	return c
}

const angleTol = 1e-9

// multipleOfHalfPi reports whether angle is an integer multiple of π/2
// (within tolerance), returning that integer modulo 4.
func multipleOfHalfPi(a float64) (int, bool) {
	k := a / (math.Pi / 2)
	r := math.Round(k)
	if math.Abs(k-r) > 1e-7 {
		return 0, false
	}
	m := int(r) % 4
	if m < 0 {
		m += 4
	}
	return m, true
}

// IsClifford reports whether the gate is a member of the Clifford group.
// Parameterised gates are Clifford when all angles are multiples of π/2.
func (g Gate) IsClifford() bool {
	switch g.Name {
	case GateID, GateX, GateY, GateZ, GateH, GateS, GateSdg, GateSX,
		GateCX, GateCZ, GateCY, GateSwap:
		return true
	case GateT, GateTdg, GateCCX, GateCCZ, GateCSwap, GateCH:
		return false
	case GateRX, GateRY, GateRZ, GateU1, GateP, GateCRZ, GateCU1, GateRZZ:
		_, ok := multipleOfHalfPi(g.Params[0])
		return ok
	case GateU2:
		// u2(φ,λ) = u3(π/2, φ, λ); Clifford iff both angles are k·π/2.
		for _, p := range g.Params {
			if _, ok := multipleOfHalfPi(p); !ok {
				return false
			}
		}
		return true
	case GateU3:
		for _, p := range g.Params {
			if _, ok := multipleOfHalfPi(p); !ok {
				return false
			}
		}
		return true
	}
	return false
}

// Matrix2 is a 2x2 complex matrix in row-major order.
type Matrix2 [2][2]complex128

// Matrix4 is a 4x4 complex matrix in row-major order. The qubit ordering
// convention is q0 = least-significant bit of the row/column index.
type Matrix4 [4][4]complex128

// U3Matrix returns the matrix of u3(theta, phi, lambda) using the OpenQASM
// convention:
//
//	u3 = [[cos(θ/2),            -e^{iλ} sin(θ/2)],
//	      [e^{iφ} sin(θ/2),  e^{i(φ+λ)} cos(θ/2)]]
func U3Matrix(theta, phi, lambda float64) Matrix2 {
	ct, st := math.Cos(theta/2), math.Sin(theta/2)
	return Matrix2{
		{complex(ct, 0), -cmplx.Exp(complex(0, lambda)) * complex(st, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(st, 0),
			cmplx.Exp(complex(0, phi+lambda)) * complex(ct, 0)},
	}
}

// Matrix1Q returns the 2x2 matrix for a one-qubit unitary gate.
func (g Gate) Matrix1Q() (Matrix2, error) {
	switch g.Name {
	case GateID:
		return U3Matrix(0, 0, 0), nil
	case GateX:
		return U3Matrix(math.Pi, 0, math.Pi), nil
	case GateY:
		return U3Matrix(math.Pi, math.Pi/2, math.Pi/2), nil
	case GateZ:
		return U3Matrix(0, 0, math.Pi), nil
	case GateH:
		return U3Matrix(math.Pi/2, 0, math.Pi), nil
	case GateS:
		return U3Matrix(0, 0, math.Pi/2), nil
	case GateSdg:
		return U3Matrix(0, 0, -math.Pi/2), nil
	case GateT:
		return U3Matrix(0, 0, math.Pi/4), nil
	case GateTdg:
		return U3Matrix(0, 0, -math.Pi/4), nil
	case GateSX:
		// sqrt(X) = e^{iπ/4} rx(π/2)
		m := U3Matrix(math.Pi/2, -math.Pi/2, math.Pi/2)
		ph := cmplx.Exp(complex(0, math.Pi/4))
		return Matrix2{{ph * m[0][0], ph * m[0][1]}, {ph * m[1][0], ph * m[1][1]}}, nil
	case GateRX:
		return U3Matrix(g.Params[0], -math.Pi/2, math.Pi/2), nil
	case GateRY:
		return U3Matrix(g.Params[0], 0, 0), nil
	case GateRZ:
		// rz(λ) = e^{-iλ/2} u1(λ)
		ph := cmplx.Exp(complex(0, -g.Params[0]/2))
		m := U3Matrix(0, 0, g.Params[0])
		return Matrix2{{ph * m[0][0], ph * m[0][1]}, {ph * m[1][0], ph * m[1][1]}}, nil
	case GateU1, GateP:
		return U3Matrix(0, 0, g.Params[0]), nil
	case GateU2:
		return U3Matrix(math.Pi/2, g.Params[0], g.Params[1]), nil
	case GateU3:
		return U3Matrix(g.Params[0], g.Params[1], g.Params[2]), nil
	}
	return Matrix2{}, fmt.Errorf("circuit: %q is not a one-qubit unitary", g.Name)
}

// MustMatrix1Q is Matrix1Q for gates statically known to be 1-qubit
// unitaries; it panics otherwise.
func (g Gate) MustMatrix1Q() Matrix2 {
	m, err := g.Matrix1Q()
	if err != nil {
		panic(err)
	}
	return m
}

// Decompose rewrites a gate into an equivalent sequence over {1q, cx}.
// Gates that are already 1-qubit unitaries or cx are returned unchanged.
// Measure, reset and barrier are returned unchanged. The decompositions are
// the textbook ones (e.g. Nielsen & Chuang fig. 4.9 for ccx).
func (g Gate) Decompose() []Gate {
	if sub := g.rewrite(); sub != nil {
		return sub
	}
	return []Gate{g}
}

// Decomposes reports whether Decompose rewrites the gate. Both read one
// rule, rewrite, which allocates nothing for a gate it leaves alone.
func (g Gate) Decomposes() bool { return g.rewrite() != nil }

// rewrite is Decompose's rule: the gate's decomposition, or nil when it is
// already over {1q, cx}, or is measure, reset or barrier.
func (g Gate) rewrite() []Gate {
	q := g.Qubits
	switch g.Name {
	case GateCZ:
		return []Gate{
			{Name: GateH, Qubits: []int{q[1]}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateH, Qubits: []int{q[1]}},
		}
	case GateCY:
		return []Gate{
			{Name: GateSdg, Qubits: []int{q[1]}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateS, Qubits: []int{q[1]}},
		}
	case GateCH:
		// ch = (I⊗ry(π/4)) cx (I⊗ry(-π/4)) up to phase; use exact qelib form.
		return []Gate{
			{Name: GateS, Qubits: []int{q[1]}},
			{Name: GateH, Qubits: []int{q[1]}},
			{Name: GateT, Qubits: []int{q[1]}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateTdg, Qubits: []int{q[1]}},
			{Name: GateH, Qubits: []int{q[1]}},
			{Name: GateSdg, Qubits: []int{q[1]}},
		}
	case GateSwap:
		return []Gate{
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateCX, Qubits: []int{q[1], q[0]}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
		}
	case GateCRZ:
		l := g.Params[0]
		return []Gate{
			{Name: GateRZ, Qubits: []int{q[1]}, Params: []float64{l / 2}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateRZ, Qubits: []int{q[1]}, Params: []float64{-l / 2}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
		}
	case GateCU1:
		l := g.Params[0]
		return []Gate{
			{Name: GateU1, Qubits: []int{q[0]}, Params: []float64{l / 2}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateU1, Qubits: []int{q[1]}, Params: []float64{-l / 2}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateU1, Qubits: []int{q[1]}, Params: []float64{l / 2}},
		}
	case GateRZZ:
		l := g.Params[0]
		return []Gate{
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
			{Name: GateRZ, Qubits: []int{q[1]}, Params: []float64{l}},
			{Name: GateCX, Qubits: []int{q[0], q[1]}},
		}
	case GateCCX:
		a, b, c := q[0], q[1], q[2]
		return []Gate{
			{Name: GateH, Qubits: []int{c}},
			{Name: GateCX, Qubits: []int{b, c}},
			{Name: GateTdg, Qubits: []int{c}},
			{Name: GateCX, Qubits: []int{a, c}},
			{Name: GateT, Qubits: []int{c}},
			{Name: GateCX, Qubits: []int{b, c}},
			{Name: GateTdg, Qubits: []int{c}},
			{Name: GateCX, Qubits: []int{a, c}},
			{Name: GateT, Qubits: []int{b}},
			{Name: GateT, Qubits: []int{c}},
			{Name: GateH, Qubits: []int{c}},
			{Name: GateCX, Qubits: []int{a, b}},
			{Name: GateT, Qubits: []int{a}},
			{Name: GateTdg, Qubits: []int{b}},
			{Name: GateCX, Qubits: []int{a, b}},
		}
	case GateCCZ:
		a, b, c := q[0], q[1], q[2]
		out := []Gate{{Name: GateH, Qubits: []int{c}}}
		out = append(out, Gate{Name: GateCCX, Qubits: []int{a, b, c}}.Decompose()...)
		out = append(out, Gate{Name: GateH, Qubits: []int{c}})
		return out
	case GateCSwap:
		a, b, c := q[0], q[1], q[2]
		out := []Gate{{Name: GateCX, Qubits: []int{c, b}}}
		out = append(out, Gate{Name: GateCCX, Qubits: []int{a, b, c}}.Decompose()...)
		out = append(out, Gate{Name: GateCX, Qubits: []int{c, b}})
		return out
	}
	return nil
}

// String renders the gate in QASM-like syntax for debugging.
func (g Gate) String() string {
	s := g.Name
	if len(g.Params) > 0 {
		s += "("
		for i, p := range g.Params {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%g", p)
		}
		s += ")"
	}
	s += " "
	for i, q := range g.Qubits {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("q[%d]", q)
	}
	if g.Name == GateMeasure && len(g.Clbits) == 1 {
		s += fmt.Sprintf(" -> c[%d]", g.Clbits[0])
	}
	return s
}
