package transpile

import (
	"slices"

	"qrio/internal/quantum/circuit"
)

// optimize performs physical-circuit peephole optimisation: adjacent
// one-qubit gates on the same qubit are fused into a single u gate, exact
// cx-cx pairs cancel, and identity rotations disappear. Iterates until a
// fixed point (cancelling a cx pair can make 1q gates adjacent). Gates the
// passes keep move over as they are: the pipeline owns them.
func optimize(c *circuit.Circuit) *circuit.Circuit {
	cur := c
	for i := 0; i < 20; i++ { // fixed-point iteration with a hard cap
		next := fuseOneQubitRuns(cur)
		next = cancelCXPairs(next)
		if len(next.Gates) == len(cur.Gates) {
			return next
		}
		cur = next
	}
	return cur
}

func isUGate(name string) bool {
	return name == circuit.GateU1 || name == circuit.GateU2 || name == circuit.GateU3
}

// fuseOneQubitRuns merges maximal runs of u gates per qubit into one gate.
// A gate stream per qubit is interrupted by any multi-qubit gate, measure,
// reset or barrier touching that qubit.
func fuseOneQubitRuns(c *circuit.Circuit) *circuit.Circuit {
	out := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits,
		Gates: slices.Grow([]circuit.Gate(nil), len(c.Gates))}
	// pending[q] holds the accumulated matrix for qubit q when open[q].
	pending := make([]circuit.Matrix2, c.NumQubits)
	open := make([]bool, c.NumQubits)

	flush := func(q int) {
		if !open[q] {
			return
		}
		if g, ok := synthesizeU(q, pending[q]); ok {
			out.Gates = append(out.Gates, g)
		}
		open[q] = false
	}
	flushAll := func() {
		for q := range pending {
			flush(q)
		}
	}

	for _, g := range c.Gates {
		if isUGate(g.Name) && len(g.Qubits) == 1 {
			q := g.Qubits[0]
			m := g.MustMatrix1Q()
			if !open[q] {
				pending[q], open[q] = m, true
			} else {
				pending[q] = mul2(m, pending[q]) // later gate multiplies on the left
			}
			continue
		}
		if g.Name == circuit.GateBarrier && len(g.Qubits) == 0 {
			flushAll()
		} else {
			for _, q := range g.Qubits {
				flush(q)
			}
		}
		out.Gates = append(out.Gates, g)
	}
	flushAll()
	return out
}

// cancelCXPairs removes immediately adjacent identical cx gates (no
// intervening gate on either qubit).
func cancelCXPairs(c *circuit.Circuit) *circuit.Circuit {
	out := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits,
		Gates: slices.Grow([]circuit.Gate(nil), len(c.Gates))}
	// lastCX[q] is the index in out.Gates of the trailing cx touching q,
	// valid only if nothing touched q since.
	lastCX := make([]int, c.NumQubits)
	for i := range lastCX {
		lastCX[i] = -1
	}
	invalidate := func(qs []int) {
		for _, q := range qs {
			lastCX[q] = -1
		}
	}
	for _, g := range c.Gates {
		if g.Name == circuit.GateCX {
			a, b := g.Qubits[0], g.Qubits[1]
			if idx := lastCX[a]; idx >= 0 && idx == lastCX[b] {
				prev := out.Gates[idx]
				if prev.Name == circuit.GateCX && prev.Qubits[0] == a && prev.Qubits[1] == b {
					// Cancel the pair.
					out.Gates = append(out.Gates[:idx], out.Gates[idx+1:]...)
					// Indices above idx shifted down by one.
					for q := range lastCX {
						if lastCX[q] > idx {
							lastCX[q]--
						} else if lastCX[q] == idx {
							lastCX[q] = -1
						}
					}
					continue
				}
			}
			out.Gates = append(out.Gates, g)
			lastCX[a] = len(out.Gates) - 1
			lastCX[b] = len(out.Gates) - 1
			continue
		}
		if g.Name == circuit.GateBarrier && len(g.Qubits) == 0 {
			for q := range lastCX {
				lastCX[q] = -1
			}
		} else {
			invalidate(g.Qubits)
		}
		out.Gates = append(out.Gates, g)
	}
	return out
}
