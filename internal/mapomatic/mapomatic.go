// Package mapomatic reimplements the Mapomatic scoring approach the paper
// leans on for topology-requirement resource allocation (§3.4.2, [21]):
// identify device subgraphs isomorphic to the circuit's interaction graph
// (VF2 subgraph monomorphism) and score each with an error-aware cost
// function; the lowest-cost subgraph (and, across devices, the lowest-cost
// device) wins.
//
// Cost units: negative-log success probability, cost = Σ −ln(1−e_i) over
// executed gates and readouts. This is monotone in Mapomatic's
// 1−Π(1−e_i) and stays informative at the paper's very high error rates
// (see DESIGN.md §1). Lower is better. When no perfect embedding exists the
// circuit is routed first and the inserted swaps are charged at their real
// gate cost — exactly how a dense topology request punishes a sparse device.
package mapomatic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/quantum/circuit"
	"qrio/internal/transpile"
)

// Options bounds the layout search.
type Options struct {
	// MaxLayouts caps the number of VF2 embeddings scored (0 = 256).
	MaxLayouts int
	// VF2MaxVisits caps the VF2 search tree (0 = package default).
	VF2MaxVisits int
	// Transpile configures the routed fallback.
	Transpile transpile.Options
	// DisableRoutedFallback makes BestLayout fail when no perfect
	// embedding exists (ablation).
	DisableRoutedFallback bool
}

func (o Options) maxLayouts() int {
	if o.MaxLayouts <= 0 {
		return 256
	}
	return o.MaxLayouts
}

// Fingerprint digests everything that determines a BestLayout result
// except the backend: the topology-circuit source and the search bounds.
// Equal fingerprints against the same backend calibration yield identical
// costs, enabling Meta-Server memoisation of the subgraph search.
func (o Options) Fingerprint(qasmSrc string) string {
	h := sha256.New()
	fmt.Fprintf(h, "layout|max=%d|visits=%d|tr=%+v|nofallback=%t|",
		o.MaxLayouts, o.VF2MaxVisits, o.Transpile, o.DisableRoutedFallback)
	io.WriteString(h, qasmSrc)
	return hex.EncodeToString(h.Sum(nil))
}

// Score is the result of evaluating one circuit against one backend.
type Score struct {
	Backend string
	// Cost is the negative-log success probability; lower is better.
	Cost float64
	// Layout maps the deflated circuit's logical qubits to physical qubits
	// (perfect embeddings only; routed fallbacks report the initial layout).
	Layout []int
	// Routed is true when no perfect embedding existed and the circuit was
	// routed with swap insertion instead.
	Routed bool
	// ExtraCX counts cx gates added by routing.
	ExtraCX int
}

// Deflate reduces a circuit to its active qubits. It returns the compacted
// circuit and actives, where actives[i] is the original index of compact
// qubit i. Classical bits are preserved as-is.
func Deflate(c *circuit.Circuit) (*circuit.Circuit, []int, error) {
	active := c.ActiveQubits()
	remap := make(map[int]int, len(active))
	for i, q := range active {
		remap[q] = i
	}
	out, err := c.RemapQubits(remap, len(active))
	if err != nil {
		return nil, nil, err
	}
	out.NumClbits = c.NumClbits
	return out, active, nil
}

const maxErrClamp = 0.999999

// gateCost converts an error probability to its negative-log contribution.
func gateCost(e float64) float64 {
	if e <= 0 {
		return 0
	}
	if e > maxErrClamp {
		e = maxErrClamp
	}
	return -math.Log(1 - e)
}

// LayoutCost scores a (deflated) circuit placed on a backend with the given
// logical→physical layout, without routing: every two-qubit gate must land
// on a coupling edge, else the cost is +Inf. u1 gates are free (virtual Z),
// matching Qiskit's convention.
func LayoutCost(c *circuit.Circuit, layout []int, b *device.Backend) float64 {
	cost := 0.0
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateBarrier, circuit.GateID, circuit.GateU1:
			continue
		case circuit.GateMeasure:
			cost += gateCost(b.ReadoutErr[layout[g.Qubits[0]]])
			continue
		case circuit.GateReset:
			continue
		}
		switch len(g.Qubits) {
		case 1:
			cost += gateCost(b.OneQubitErr[layout[g.Qubits[0]]])
		case 2:
			e, ok := b.EdgeError(layout[g.Qubits[0]], layout[g.Qubits[1]])
			if !ok {
				return math.Inf(1)
			}
			cost += gateCost(e)
		default:
			// 3+ qubit gates cannot be placed directly.
			return math.Inf(1)
		}
	}
	return cost
}

// PhysicalCost scores an already-transpiled circuit (acting on physical
// qubits) against the backend calibration.
func PhysicalCost(pc *circuit.Circuit, b *device.Backend) float64 {
	identity := make([]int, b.NumQubits)
	for i := range identity {
		identity[i] = i
	}
	return LayoutCost(pc, identity, b)
}

// BestLayout finds the lowest-cost placement of c on backend b. It prefers
// perfect VF2 embeddings of the interaction graph; if none exists it
// transpiles (routing with swap insertion) and scores the routed circuit.
func BestLayout(c *circuit.Circuit, b *device.Backend, opts Options) (Score, error) {
	deflated, _, err := Deflate(c)
	if err != nil {
		return Score{}, err
	}
	flat := deflated.Decompose()
	if flat.NumQubits > b.NumQubits {
		return Score{}, fmt.Errorf(
			"mapomatic: circuit uses %d qubits, device %s has %d",
			flat.NumQubits, b.Name, b.NumQubits)
	}

	layouts := graph.EnumerateMonomorphisms(transpile.InteractionGraph(flat), b.Coupling, graph.MonomorphismOptions{
		MaxResults: opts.maxLayouts(),
		MaxVisits:  opts.VF2MaxVisits,
	})
	if len(layouts) > 0 {
		best := Score{Backend: b.Name, Cost: math.Inf(1)}
		for _, layout := range layouts {
			if cost := LayoutCost(flat, layout, b); cost < best.Cost {
				best.Cost = cost
				best.Layout = layout
			}
		}
		if !math.IsInf(best.Cost, 1) {
			return best, nil
		}
	}
	if opts.DisableRoutedFallback {
		return Score{}, fmt.Errorf("mapomatic: no perfect embedding of %q on %s", c.Name, b.Name)
	}
	tr, err := transpile.Transpile(flat, b, opts.Transpile)
	if err != nil {
		return Score{}, fmt.Errorf("mapomatic: routed fallback failed on %s: %w", b.Name, err)
	}
	return Score{
		Backend: b.Name,
		Cost:    PhysicalCost(tr.Circuit, b),
		Layout:  tr.InitialLayout,
		Routed:  true,
		ExtraCX: 3 * tr.AddedSwaps,
	}, nil
}

// RankBackends scores the circuit on every backend and returns the feasible
// scores sorted ascending by cost (the scheduler picks the first). Devices
// that cannot host the circuit are omitted.
func RankBackends(c *circuit.Circuit, backends []*device.Backend, opts Options) []Score {
	scores := make([]Score, 0, len(backends))
	for _, b := range backends {
		s, err := BestLayout(c, b, opts)
		if err != nil || math.IsInf(s.Cost, 1) {
			continue
		}
		scores = append(scores, s)
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Cost != scores[j].Cost {
			return scores[i].Cost < scores[j].Cost
		}
		return scores[i].Backend < scores[j].Backend
	})
	return scores
}

// TopologyCircuit converts a user topology request into the paper's
// "pseudo quantum circuit" (§3.2): one CNOT per requested edge over the
// requested number of qubits.
func TopologyCircuit(g *graph.Graph) *circuit.Circuit {
	c := circuit.New(g.NumVertices())
	c.Name = "topology"
	for _, e := range g.Edges() {
		c.CX(e[0], e[1])
	}
	return c
}
