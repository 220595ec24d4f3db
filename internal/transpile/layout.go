package transpile

import (
	"sort"

	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/quantum/circuit"
)

// InteractionGraph builds the circuit's two-qubit interaction graph over
// all its qubits, adding edges in sorted order. Adjacency order decides
// which VF2 embedding is found first, so every layout search (here and in
// mapomatic) must build its pattern through this one function: ranging
// over circuit.InteractionGraph()'s map instead made layouts — and with
// them canary scores — differ from run to run.
func InteractionGraph(c *circuit.Circuit) *graph.Graph {
	ig := graph.New(c.NumQubits)
	for _, e := range c.InteractionEdges() {
		ig.MustAddEdge(e.A, e.B)
	}
	return ig
}

// chooseLayout picks the initial logical→physical placement. It first tries
// a VF2 perfect embedding of the circuit's interaction graph into the
// coupling map (zero routing); otherwise it falls back to a greedy
// BFS-based placement that keeps strongly interacting qubits adjacent.
// The returned slice has one entry per logical qubit. The boolean reports
// whether the embedding was perfect.
func chooseLayout(c *circuit.Circuit, b *device.Backend, opts Options) ([]int, bool) {
	n := c.NumQubits
	layout := make([]int, n)
	interactions := c.InteractionGraph()
	ig := InteractionGraph(c)

	if !opts.DisableVF2Layout {
		if m := graph.EnumerateMonomorphisms(ig, b.Coupling, graph.MonomorphismOptions{MaxResults: 1}); len(m) == 1 {
			copy(layout, m[0])
			return layout, true
		}
	}

	// Greedy fallback: place the highest-weight edge on the lowest-error
	// coupling edge region, then grow outwards by interaction weight.
	for i := range layout {
		layout[i] = -1
	}
	usedPhys := make([]bool, b.NumQubits)

	place := func(l, p int) {
		layout[l] = p
		usedPhys[p] = true
	}
	// Order logical qubits: by total interaction weight descending.
	weight := make([]int, n)
	for e, w := range interactions {
		weight[e.A] += w
		weight[e.B] += w
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if weight[order[i]] != weight[order[j]] {
			return weight[order[i]] > weight[order[j]]
		}
		return order[i] < order[j]
	})

	// Physical preference: highest-degree vertices first (more room to
	// grow neighbourhoods).
	physPref := make([]int, b.NumQubits)
	for i := range physPref {
		physPref[i] = i
	}
	sort.Slice(physPref, func(i, j int) bool {
		di, dj := b.Coupling.Degree(physPref[i]), b.Coupling.Degree(physPref[j])
		if di != dj {
			return di > dj
		}
		return physPref[i] < physPref[j]
	})

	freePhys := func() int {
		for _, p := range physPref {
			if !usedPhys[p] {
				return p
			}
		}
		return -1
	}

	for _, l := range order {
		if layout[l] >= 0 {
			continue
		}
		// Prefer a physical qubit adjacent to already-placed neighbours.
		best, bestScore := -1, -1
		for _, p := range physPref {
			if usedPhys[p] {
				continue
			}
			score := 0
			for _, lnbr := range ig.Neighbors(l) {
				if lp := layout[lnbr]; lp >= 0 && b.Coupling.HasEdge(p, lp) {
					score += interactions[circuit.NormEdge(l, lnbr)]
				}
			}
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		if best < 0 {
			best = freePhys()
		}
		place(l, best)
	}
	return layout, false
}
