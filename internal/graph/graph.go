// Package graph provides the undirected-graph machinery QRIO uses for
// device coupling maps and user topology requests: named topologies
// (line/ring/grid/heavy-square/fully-connected/tree/star), the paper's
// bounded-degree random coupling-map generator (§4.1), BFS distances for
// routing, and VF2 subgraph monomorphism search for Mapomatic-style
// topology scoring (§3.4.2).
package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Graph is a simple undirected graph over vertices 0..n-1. Reading methods
// are safe for concurrent use once construction (AddEdge) is over. The
// adjacency lists are the only record of the edges: a fleet's coupling maps
// live as long as the process, in more than one registry, and on
// bounded-degree graphs a list scan beats hashing the pair anyway.
type Graph struct {
	n     int
	edges int
	adj   [][]int
	// dist caches DistanceMatrix and digest caches Digest; AddEdge drops
	// both.
	dist   atomic.Pointer[DistanceMatrix]
	digest atomic.Pointer[[sha256.Size]byte]
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge inserts the undirected edge (a, b); duplicates are ignored.
func (g *Graph) AddEdge(a, b int) error {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range (n=%d)", a, b, g.n)
	}
	if a == b {
		return fmt.Errorf("graph: self-loop on %d", a)
	}
	if g.HasEdge(a, b) {
		return nil
	}
	g.edges++
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.dist.Store(nil)
	g.digest.Store(nil)
	return nil
}

// MustAddEdge panics on error; for statically correct constructors.
func (g *Graph) MustAddEdge(a, b int) {
	if err := g.AddEdge(a, b); err != nil {
		panic(err)
	}
}

// HasEdge reports whether (a, b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return false
	}
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	return slices.Contains(g.adj[a], b)
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the largest vertex degree (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns v's adjacency list (do not mutate).
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Edges returns all edges as normalised pairs in lexicographic order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for a, nbrs := range g.adj {
		for _, b := range nbrs {
			if a < b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Copy returns a deep copy.
func (g *Graph) Copy() *Graph {
	c := New(g.n)
	for _, e := range g.Edges() {
		c.MustAddEdge(e[0], e[1])
	}
	return c
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.Distances(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Distances returns BFS hop counts from src; -1 marks unreachable vertices.
func (g *Graph) Distances(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// DistanceMatrix is a graph's all-pairs BFS hop counts, held flat in 16-bit
// cells: a fleet's coupling maps live as long as the process, in more than
// one registry, and an [][]int matrix per 100-qubit device is 80 KB.
type DistanceMatrix struct {
	n int
	d []int16
}

// At returns the hop count from a to b; -1 marks unreachable.
func (m *DistanceMatrix) At(a, b int) int { return int(m.d[a*m.n+b]) }

// DistanceMatrix returns the all-pairs distance matrix, computed on first
// use and kept until the next AddEdge (routing asks for it once per
// transpiled circuit). It fails for graphs whose distances could overflow
// a cell.
func (g *Graph) DistanceMatrix() (*DistanceMatrix, error) {
	if m := g.dist.Load(); m != nil {
		return m, nil
	}
	if g.n > math.MaxInt16 {
		return nil, fmt.Errorf("graph: distance matrix supports at most %d vertices, have %d", math.MaxInt16, g.n)
	}
	m := &DistanceMatrix{n: g.n, d: make([]int16, g.n*g.n)}
	for i := range m.d {
		m.d[i] = -1
	}
	queue := make([]int, 0, g.n)
	for src := 0; src < g.n; src++ {
		row := m.d[src*g.n : (src+1)*g.n]
		row[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if row[w] < 0 {
					row[w] = row[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	// Concurrent first users may each compute it; they store equal matrices.
	g.dist.Store(m)
	return m, nil
}

// Digest returns a SHA-256 over the vertex count and every adjacency list
// in order, kept until the next AddEdge. Searches that walk adjacency lists
// (VF2's first embedding, routing's neighbour scan) depend on that order,
// so one edge set in another order (a JSON round trip sorts it) differs.
func (g *Graph) Digest() [sha256.Size]byte {
	if d := g.digest.Load(); d != nil {
		return *d
	}
	buf := binary.AppendUvarint(nil, uint64(g.n))
	for _, nbrs := range g.adj {
		buf = binary.AppendUvarint(buf, uint64(len(nbrs)))
		for _, w := range nbrs {
			buf = binary.AppendUvarint(buf, uint64(w))
		}
	}
	d := sha256.Sum256(buf)
	g.digest.Store(&d)
	return d
}

// ShortestPath returns one shortest path from a to b inclusive, or nil if
// unreachable.
func (g *Graph) ShortestPath(a, b int) []int {
	if a == b {
		return []int{a}
	}
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if prev[w] < 0 {
				prev[w] = v
				if w == b {
					var path []int
					for x := b; x != a; x = prev[x] {
						path = append(path, x)
					}
					path = append(path, a)
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path
				}
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		ds[v] = len(g.adj[v])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

// Equal reports whether two graphs have identical vertex and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.edges != h.edges {
		return false
	}
	for a, nbrs := range g.adj {
		for _, b := range nbrs {
			if a < b && !h.HasEdge(a, b) {
				return false
			}
		}
	}
	return true
}

// String renders the graph compactly for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%d vertices, %d edges)", g.n, g.edges)
}
