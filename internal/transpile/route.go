package transpile

import (
	"fmt"

	"qrio/internal/device"
	"qrio/internal/quantum/circuit"
)

// route makes every two-qubit gate act on a coupling edge by inserting
// swaps (emitted as cx triples). It implements a SABRE-lite heuristic:
// candidate swaps are scored by the distance of the blocked gate plus a
// discounted look-ahead over upcoming two-qubit gates. With
// opts.NaiveRouting it instead walks the shortest path (ablation baseline).
func route(c *circuit.Circuit, b *device.Backend, initial []int, opts Options) (*circuit.Circuit, []int, int, error) {
	dist, err := b.Coupling.DistanceMatrix()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("transpile: device %s: %w", b.Name, err)
	}
	lookahead := opts.Lookahead
	if lookahead <= 0 {
		lookahead = 10
	}

	l2p := append([]int(nil), initial...)
	p2l := make([]int, b.NumQubits)
	for i := range p2l {
		p2l[i] = -1
	}
	for l, p := range l2p {
		p2l[p] = l
	}

	out := &circuit.Circuit{
		Name:      c.Name,
		NumQubits: b.NumQubits,
		NumClbits: c.NumClbits,
	}
	swaps := 0

	// Upcoming two-qubit gate pairs (logical), indexed per gate position,
	// for the lookahead term.
	type pair struct{ a, b int }
	var future []pair
	futureAt := make([]int, len(c.Gates)) // index into future for gate i
	for i, g := range c.Gates {
		futureAt[i] = len(future)
		if g.IsUnitary() && len(g.Qubits) == 2 {
			future = append(future, pair{g.Qubits[0], g.Qubits[1]})
		}
	}

	applySwap := func(p, q int) {
		out.Gates = append(out.Gates,
			circuit.Gate{Name: circuit.GateCX, Qubits: []int{p, q}},
			circuit.Gate{Name: circuit.GateCX, Qubits: []int{q, p}},
			circuit.Gate{Name: circuit.GateCX, Qubits: []int{p, q}},
		)
		la, lb := p2l[p], p2l[q]
		p2l[p], p2l[q] = lb, la
		if la >= 0 {
			l2p[la] = q
		}
		if lb >= 0 {
			l2p[lb] = p
		}
		swaps++
	}

	maxSteps := 10 * (len(c.Gates) + 1) * (b.NumQubits + 1)
	steps := 0

	for gi, g := range c.Gates {
		switch {
		case g.Name == circuit.GateBarrier:
			qs := make([]int, len(g.Qubits))
			for i, q := range g.Qubits {
				qs[i] = l2p[q]
			}
			out.Gates = append(out.Gates, circuit.Gate{Name: circuit.GateBarrier, Qubits: qs})
			continue
		case g.Name == circuit.GateMeasure:
			out.Gates = append(out.Gates, circuit.Gate{
				Name: circuit.GateMeasure, Qubits: []int{l2p[g.Qubits[0]]},
				Clbits: append([]int(nil), g.Clbits...),
			})
			continue
		case g.Name == circuit.GateReset:
			out.Gates = append(out.Gates, circuit.Gate{
				Name: circuit.GateReset, Qubits: []int{l2p[g.Qubits[0]]}})
			continue
		case len(g.Qubits) == 1:
			ng := g.Copy()
			ng.Qubits[0] = l2p[g.Qubits[0]]
			out.Gates = append(out.Gates, ng)
			continue
		case len(g.Qubits) != 2:
			return nil, nil, 0, fmt.Errorf("transpile: %d-qubit gate %q survived decomposition", len(g.Qubits), g.Name)
		}

		a, bq := g.Qubits[0], g.Qubits[1]
		for dist.At(l2p[a], l2p[bq]) > 1 {
			steps++
			if steps > maxSteps {
				return nil, nil, 0, fmt.Errorf("transpile: routing failed to converge (device %s)", b.Name)
			}
			pa, pb := l2p[a], l2p[bq]
			if opts.NaiveRouting {
				path := b.Coupling.ShortestPath(pa, pb)
				if len(path) < 2 {
					return nil, nil, 0, fmt.Errorf("transpile: qubits %d,%d disconnected on %s", pa, pb, b.Name)
				}
				applySwap(path[0], path[1])
				continue
			}
			// SABRE-lite: score every swap adjacent to either endpoint.
			window := future[futureAt[gi]:]
			if len(window) > lookahead {
				window = window[:lookahead]
			}
			bestEdge := [2]int{-1, -1}
			bestScore := 1e18
			consider := func(p, q int) {
				// Simulate the swap's effect on distances.
				d := func(x int) int {
					switch x {
					case p:
						return q
					case q:
						return p
					}
					return x
				}
				score := float64(dist.At(d(l2p[a]), d(l2p[bq])))
				discount := 0.5
				for k, f := range window {
					if k == 0 {
						continue // first window entry is the blocked gate itself
					}
					score += discount * float64(dist.At(d(l2p[f.a]), d(l2p[f.b]))) / float64(len(window))
				}
				if score < bestScore-1e-12 {
					bestScore = score
					bestEdge = [2]int{p, q}
				}
			}
			for _, nb := range b.Coupling.Neighbors(pa) {
				consider(pa, nb)
			}
			for _, nb := range b.Coupling.Neighbors(pb) {
				consider(pb, nb)
			}
			if bestEdge[0] < 0 {
				return nil, nil, 0, fmt.Errorf("transpile: no swap candidates on %s", b.Name)
			}
			// Guarantee progress: if the best swap does not reduce the
			// blocked gate's distance, step along the shortest path.
			cur := float64(dist.At(pa, pb))
			d0 := func(x, p, q int) int {
				switch x {
				case p:
					return q
				case q:
					return p
				}
				return x
			}
			after := dist.At(d0(pa, bestEdge[0], bestEdge[1]), d0(pb, bestEdge[0], bestEdge[1]))
			if float64(after) >= cur {
				path := b.Coupling.ShortestPath(pa, pb)
				bestEdge = [2]int{path[0], path[1]}
			}
			applySwap(bestEdge[0], bestEdge[1])
		}
		out.Gates = append(out.Gates, circuit.Gate{
			Name: g.Name, Qubits: []int{l2p[a], l2p[bq]},
			Params: append([]float64(nil), g.Params...),
		})
	}
	return out, l2p, swaps, nil
}
