package transpile

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"qrio/internal/quantum/circuit"
)

// translate rewrites every one-qubit gate into the device basis
// {u1, u2, u3} (cx passes through), choosing the cheapest form: u1 for
// phase-only gates, u2 for θ=π/2, u3 otherwise. Gates already in the basis
// move over as they are: replay emitted them for this pipeline alone.
func translate(c *circuit.Circuit) (*circuit.Circuit, error) {
	out := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits,
		Gates: slices.Grow([]circuit.Gate(nil), len(c.Gates))}
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateCX, circuit.GateMeasure, circuit.GateBarrier, circuit.GateReset,
			circuit.GateU1, circuit.GateU2, circuit.GateU3:
			out.Gates = append(out.Gates, g)
			continue
		case circuit.GateID:
			continue
		}
		if len(g.Qubits) != 1 || !g.IsUnitary() {
			return nil, fmt.Errorf("transpile: unexpected gate %q during translation", g.Name)
		}
		m, err := g.Matrix1Q()
		if err != nil {
			return nil, err
		}
		ng, ok := synthesizeU(g.Qubits[0], m)
		if ok {
			out.Gates = append(out.Gates, ng)
		}
		// !ok means the matrix is the identity up to phase: drop it.
	}
	return out, nil
}

const synthTol = 1e-9

// classifyTol is the looser tolerance used to classify synthesised angles
// into gate forms: acos() amplifies one-ulp magnitude errors into ~1e-8
// angles, which are still numerically the identity.
const classifyTol = 1e-7

// zyzAngles decomposes a 2x2 unitary as e^{iα}·u3(θ,φ,λ).
func zyzAngles(m circuit.Matrix2) (theta, phi, lambda float64) {
	a, b := m[0][0], m[0][1]
	c, d := m[1][0], m[1][1]
	absA := cmplx.Abs(a)
	if absA > 1 {
		absA = 1
	}
	theta = 2 * math.Acos(absA)
	sin := math.Sin(theta / 2)
	// Branch tolerances must be loose (classifyTol): acos() amplifies
	// one-ulp magnitude errors into ~1e-8 angles, and the off-diagonal
	// entries of a near-diagonal unitary are then numerically zero — their
	// phases would be garbage (e.g. Phase(-0) = π).
	switch {
	case absA > classifyTol && sin > classifyTol:
		// Remove the global phase so the top-left entry is real positive.
		ph := cmplx.Exp(complex(0, -cmplx.Phase(a)))
		phi = cmplx.Phase(c * ph)
		lambda = cmplx.Phase(-b * ph)
	case absA <= classifyTol:
		// θ = π: normalise on the bottom-left entry; put all phase in λ.
		phi = 0
		lambda = cmplx.Phase(-b / c)
		theta = math.Pi
	default:
		// θ = 0: diagonal gate; u1(λ) with λ = relative phase.
		phi = 0
		lambda = cmplx.Phase(d / a)
		theta = 0
	}
	return theta, phi, lambda
}

// synthesizeU builds the cheapest u-gate realising the matrix on qubit q.
// It returns ok=false when the matrix is the identity up to global phase.
func synthesizeU(q int, m circuit.Matrix2) (circuit.Gate, bool) {
	theta, phi, lambda := zyzAngles(m)
	theta = normalizeAngle(theta)
	switch {
	case math.Abs(theta) < classifyTol:
		l := normalizeAngle(phi + lambda)
		if math.Abs(l) < classifyTol {
			return circuit.Gate{}, false // identity
		}
		return circuit.Gate{Name: circuit.GateU1, Qubits: []int{q}, Params: []float64{l}}, true
	case math.Abs(theta-math.Pi/2) < classifyTol:
		return circuit.Gate{Name: circuit.GateU2, Qubits: []int{q},
			Params: []float64{normalizeAngle(phi), normalizeAngle(lambda)}}, true
	default:
		return circuit.Gate{Name: circuit.GateU3, Qubits: []int{q},
			Params: []float64{theta, normalizeAngle(phi), normalizeAngle(lambda)}}, true
	}
}

// normalizeAngle maps an angle into (-π, π].
func normalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	}
	if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// mul2 multiplies two 2x2 complex matrices (l·r: r applied first).
func mul2(l, r circuit.Matrix2) circuit.Matrix2 {
	var out circuit.Matrix2
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out[i][j] = l[i][0]*r[0][j] + l[i][1]*r[1][j]
		}
	}
	return out
}
