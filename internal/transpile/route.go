package transpile

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"qrio/internal/device"
	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
)

// plan is what placement and routing decided for one (skeleton, coupling
// map, Options). Plans are shared between calls and never modified.
type plan struct {
	layout  []int      // layout[l] is the physical qubit initially holding logical l
	perfect bool       // the layout embeds the interaction graph
	swaps   [][2]int32 // every routing swap in order; one per routing step
	ends    []int32    // swaps[ends[k]:ends[k+1]] go before the k-th two-qubit gate
}

// DisconnectedError reports a two-qubit gate whose qubits the layout placed
// in different components of a coupling map: no swaps can bring them
// together.
type DisconnectedError struct {
	Device string
	P, Q   int // the physical qubits
}

func (e *DisconnectedError) Error() string {
	return fmt.Sprintf("transpile: qubits %d,%d disconnected on %s", e.P, e.Q, e.Device)
}

// twoQubit is the one test for "a gate routing must make adjacent": the
// skeleton, the plan builder and replay all read it.
func twoQubit(g circuit.Gate) bool { return g.IsUnitary() && len(g.Qubits) == 2 }

// stepCap bounds the routing steps (swaps) spent on c.
func stepCap(c *circuit.Circuit, b *device.Backend) int {
	return 10 * (len(c.Gates) + 1) * (b.NumQubits + 1)
}

// swapped is where physical qubit v sits after swapping x and y.
func swapped(v, x, y int) int {
	switch v {
	case x:
		return y
	case y:
		return x
	}
	return v
}

// applySwap moves the logical qubits on x and y in the layout l2p.
func applySwap(l2p []int, x, y int) {
	for l, v := range l2p {
		l2p[l] = swapped(v, x, y)
	}
}

// route builds c's plan on b: a layout (chooseLayout), then, while a
// two-qubit gate's qubits are not adjacent, a swap scored by a SABRE-lite
// heuristic — the distance of the blocked gate plus a discounted look-ahead
// over upcoming two-qubit gates. It reads only the skeleton of c, and it
// emits no gates: replay does.
func route(c *circuit.Circuit, b *device.Backend, opts Options) (*plan, error) {
	dist, err := b.Coupling.DistanceMatrix()
	if err != nil {
		return nil, fmt.Errorf("transpile: device %s: %w", b.Name, err)
	}
	layout, perfect := chooseLayout(c, b, opts)
	p := &plan{layout: layout, perfect: perfect, ends: []int32{0}}
	var pairs [][]int
	for _, g := range c.Gates {
		if twoQubit(g) {
			pairs = append(pairs, g.Qubits)
		}
	}
	l2p := append([]int(nil), layout...)
	maxSteps := stepCap(c, b)
	for k, g := range pairs {
		for {
			pa, pb := l2p[g[0]], l2p[g[1]]
			if d := dist.At(pa, pb); d < 0 {
				return nil, &DisconnectedError{Device: b.Name, P: pa, Q: pb}
			} else if d <= 1 {
				break
			}
			if len(p.swaps) >= maxSteps {
				return nil, fmt.Errorf("transpile: routing failed to converge (device %s)", b.Name)
			}
			// SABRE-lite: score every swap adjacent to either endpoint (they
			// are connected, and apart) over a window of the next ten gates.
			window := pairs[k:min(k+10, len(pairs))]
			best, bestScore := [2]int{}, 1e18
			consider := func(x, y int) {
				score := float64(dist.At(swapped(pa, x, y), swapped(pb, x, y)))
				for _, f := range window[1:] { // window[0] is the blocked gate itself
					score += 0.5 * float64(dist.At(swapped(l2p[f[0]], x, y), swapped(l2p[f[1]], x, y))) / float64(len(window))
				}
				if score < bestScore-1e-12 {
					best, bestScore = [2]int{x, y}, score
				}
			}
			for _, nb := range b.Coupling.Neighbors(pa) {
				consider(pa, nb)
			}
			for _, nb := range b.Coupling.Neighbors(pb) {
				consider(pb, nb)
			}
			// Guarantee progress: if the best swap does not reduce the
			// blocked gate's distance, step along the shortest path.
			if dist.At(swapped(pa, best[0], best[1]), swapped(pb, best[0], best[1])) >= dist.At(pa, pb) {
				path := b.Coupling.ShortestPath(pa, pb)
				best = [2]int{path[0], path[1]}
			}
			p.swaps = append(p.swaps, [2]int32{int32(best[0]), int32(best[1])})
			applySwap(l2p, best[0], best[1])
		}
		p.ends = append(p.ends, int32(len(p.swaps)))
	}
	return p, nil
}

// replay emits c on b's physical qubits as the plan says: each gate
// relabelled through the current layout, and before each two-qubit gate its
// planned swaps as cx triples. It returns the routed circuit and the final
// layout, and is the only code that emits routed gates. Every emitted
// slice is fresh, so later stages own the gates and need not copy them.
func (p *plan) replay(c *circuit.Circuit, b *device.Backend) (*circuit.Circuit, []int, error) {
	if len(p.swaps) > stepCap(c, b) {
		return nil, nil, fmt.Errorf("transpile: routing failed to converge (device %s)", b.Name)
	}
	l2p := append([]int(nil), p.layout...)
	// One backing array holds every emitted gate's qubits.
	n := 6 * len(p.swaps)
	for _, g := range c.Gates {
		n += len(g.Qubits)
	}
	qs := make([]int, 0, n)
	take := func(k int) []int { return qs[len(qs)-k : len(qs) : len(qs)] }
	out := &circuit.Circuit{Name: c.Name, NumQubits: b.NumQubits, NumClbits: c.NumClbits,
		Gates: slices.Grow([]circuit.Gate(nil), len(c.Gates)+3*len(p.swaps))}
	k := 0
	for _, g := range c.Gates {
		ng := circuit.Gate{Name: g.Name}
		switch {
		case g.Name == circuit.GateBarrier, g.Name == circuit.GateReset:
		case g.Name == circuit.GateMeasure:
			ng.Clbits = append([]int(nil), g.Clbits...)
		case twoQubit(g):
			for _, s := range p.swaps[p.ends[k]:p.ends[k+1]] {
				x, y := int(s[0]), int(s[1])
				for _, cx := range [3][2]int{{x, y}, {y, x}, {x, y}} {
					qs = append(qs, cx[0], cx[1])
					out.Gates = append(out.Gates, circuit.Gate{Name: circuit.GateCX, Qubits: take(2)})
				}
				applySwap(l2p, x, y)
			}
			k++
			ng.Params = append([]float64(nil), g.Params...)
		case len(g.Qubits) == 1:
			ng.Params = append([]float64(nil), g.Params...)
			ng.Clbits = append([]int(nil), g.Clbits...)
		default:
			return nil, nil, fmt.Errorf("transpile: %d-qubit gate %q survived decomposition", len(g.Qubits), g.Name)
		}
		if len(g.Qubits) > 0 {
			for _, l := range g.Qubits {
				qs = append(qs, l2p[l])
			}
			ng.Qubits = take(len(g.Qubits))
		}
		out.Gates = append(out.Gates, ng)
	}
	return out, l2p, nil
}

// planKey identifies a plan by everything placement and routing read.
type planKey struct {
	opts     Options
	coupling [sha256.Size]byte // the coupling map's graph.Digest
	skeleton string            // see appendSkeleton
}

// appendSkeleton appends c's two-qubit skeleton to buf: the register size,
// then each two-qubit gate's (a, b) in order, as uvarints.
func appendSkeleton(buf []byte, c *circuit.Circuit) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.NumQubits))
	for _, g := range c.Gates {
		if twoQubit(g) {
			buf = binary.AppendUvarint(buf, uint64(g.Qubits[0]))
			buf = binary.AppendUvarint(buf, uint64(g.Qubits[1]))
		}
	}
	return buf
}

// maxPlans bounds the memo. A canary's plan is a few hundred bytes, so a
// full memo is about a megabyte; a cold sweep of the 100-device fleet needs
// 100 plans, the steady-warm families about a thousand.
const maxPlans = 4096

// plans memoises route plans across calls and goroutines. No result depends
// on what it holds, so one memo serves the process.
var plans = memo.NewShared[planKey, *plan]("transpile.plans", maxPlans)

// planFor returns c's plan on b, from the memo or built and memoised.
func planFor(c *circuit.Circuit, b *device.Backend, opts Options) (*plan, error) {
	var buf [128]byte
	skel := appendSkeleton(buf[:0], c)
	digest := b.Coupling.Digest()
	// The lookup's key views skel in place, so a hit builds no string; only
	// a stored key copies it.
	if p, ok := plans.Get(planKey{opts, digest, unsafe.String(unsafe.SliceData(skel), len(skel))}); ok {
		return p, nil
	}
	return plans.Load(planKey{opts, digest, string(skel)}, func() (*plan, error) { return route(c, b, opts) })
}
