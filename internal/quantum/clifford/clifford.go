// Package clifford builds Clifford "canary" circuits (paper §3.4.1,
// following Quancorde/pass-selection prior work [16, 24]): the user's
// circuit with every non-Clifford gate snapped to its nearest Clifford.
// Canaries keep the structure — especially the noisy two-qubit gates — of
// the original circuit while remaining classically simulable in polynomial
// time, so their fidelity on a device tracks the original circuit's.
package clifford

import (
	"math"
	"math/rand"

	"qrio/internal/quantum/circuit"
)

// Canary returns the Clifford canary of c. Parameterised gates have each
// angle rounded to the nearest multiple of π/2; non-Clifford named gates
// (t, tdg, ccx, ccz, cswap, ch, ...) are first decomposed over {1q, cx} and
// then rounded. Measurements and barriers pass through unchanged.
func Canary(c *circuit.Circuit) *circuit.Circuit {
	out := &circuit.Circuit{
		Name:      c.Name + "-canary",
		NumQubits: c.NumQubits,
		NumClbits: c.NumClbits,
	}
	for _, g := range c.Gates {
		out.Gates = append(out.Gates, cliffordize(g)...)
	}
	return out
}

// cliffordize maps one gate to an equivalent-structure Clifford sequence.
func cliffordize(g circuit.Gate) []circuit.Gate {
	if !g.IsUnitary() || g.IsClifford() {
		return []circuit.Gate{g.Copy()}
	}
	switch g.Name {
	case circuit.GateT:
		return []circuit.Gate{{Name: circuit.GateS, Qubits: append([]int(nil), g.Qubits...)}}
	case circuit.GateTdg:
		return []circuit.Gate{{Name: circuit.GateSdg, Qubits: append([]int(nil), g.Qubits...)}}
	}
	if len(g.Params) > 0 {
		ng := g.Copy()
		for i, p := range ng.Params {
			ng.Params[i] = roundToHalfPi(p)
		}
		return []circuit.Gate{ng}
	}
	// Parameter-free non-Clifford (ccx and friends): decompose, then round.
	if !g.Decomposes() {
		// No decomposition available; drop the gate rather than fail — the
		// canary is an approximation by definition.
		return nil
	}
	var out []circuit.Gate
	for _, s := range g.Decompose() {
		out = append(out, cliffordize(s)...)
	}
	return out
}

// roundToHalfPi snaps an angle to the nearest integer multiple of π/2.
func roundToHalfPi(a float64) float64 {
	return math.Round(a/(math.Pi/2)) * (math.Pi / 2)
}

// Ensemble builds size canary variants of c using randomised rounding:
// every non-Clifford angle θ rounds up to the next multiple of π/2 with
// probability proportional to its fractional position, down otherwise
// (member 0 is always the deterministic nearest-Clifford Canary). A single
// canary can be degenerate — e.g. a cliffordized Grover has a uniform
// output distribution that no amount of Pauli noise can change, making its
// fidelity blind to device quality — but across an ensemble some members
// land on noise-sensitive stabilizer states, so the *average* ensemble
// fidelity ranks devices reliably. This mirrors the diverse-ensemble idea
// of Quancorde [24], which the paper's fidelity strategy builds on.
func Ensemble(c *circuit.Circuit, size int, seed int64) []*circuit.Circuit {
	if size <= 1 {
		return []*circuit.Circuit{Canary(c)}
	}
	out := make([]*circuit.Circuit, 0, size)
	out = append(out, Canary(c))
	rng := rand.New(rand.NewSource(seed))
	for k := 1; k < size; k++ {
		member := &circuit.Circuit{
			Name:      c.Name + "-canary",
			NumQubits: c.NumQubits,
			NumClbits: c.NumClbits,
		}
		for _, g := range c.Gates {
			member.Gates = append(member.Gates, cliffordizeRandom(g, rng)...)
		}
		out = append(out, member)
	}
	return out
}

// cliffordizeRandom is cliffordize with stochastic angle rounding.
func cliffordizeRandom(g circuit.Gate, rng *rand.Rand) []circuit.Gate {
	if !g.IsUnitary() || g.IsClifford() {
		return []circuit.Gate{g.Copy()}
	}
	if len(g.Params) > 0 {
		ng := g.Copy()
		for i, p := range ng.Params {
			ng.Params[i] = stochasticHalfPi(p, rng)
		}
		return []circuit.Gate{ng}
	}
	switch g.Name {
	case circuit.GateT, circuit.GateTdg:
		// θ = ±π/4: snap to 0 (drop) or ±π/2 with equal probability.
		if rng.Float64() < 0.5 {
			return nil
		}
		name := circuit.GateS
		if g.Name == circuit.GateTdg {
			name = circuit.GateSdg
		}
		return []circuit.Gate{{Name: name, Qubits: append([]int(nil), g.Qubits...)}}
	}
	if !g.Decomposes() {
		return nil
	}
	var out []circuit.Gate
	for _, s := range g.Decompose() {
		out = append(out, cliffordizeRandom(s, rng)...)
	}
	return out
}

// stochasticHalfPi rounds an angle up or down to a multiple of π/2 with
// probability given by its fractional position between the two.
func stochasticHalfPi(a float64, rng *rand.Rand) float64 {
	k := a / (math.Pi / 2)
	lo := math.Floor(k)
	frac := k - lo
	if rng.Float64() < frac {
		return (lo + 1) * (math.Pi / 2)
	}
	return lo * (math.Pi / 2)
}

// Distance measures how much cliffordization changed the circuit: the sum
// of |angle - rounded(angle)| over all parameters plus π/4 for every
// parameter-free non-Clifford gate. Zero means the circuit was already
// Clifford; useful as a confidence signal for canary-based estimates.
func Distance(c *circuit.Circuit) float64 {
	d := 0.0
	for _, g := range c.Gates {
		if !g.IsUnitary() || g.IsClifford() {
			continue
		}
		if len(g.Params) == 0 {
			d += math.Pi / 4
			continue
		}
		for _, p := range g.Params {
			d += math.Abs(p - roundToHalfPi(p))
		}
	}
	return d
}
