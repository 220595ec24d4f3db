package graph

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicOperations(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil { // duplicate, reversed
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (duplicate ignored)", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if g.Degree(0) != 1 || g.Degree(3) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestTopologyShapes(t *testing.T) {
	cases := []struct {
		name     string
		g        *Graph
		vertices int
		edges    int
		maxDeg   int
	}{
		{"line6", Line(6), 6, 5, 2},
		{"ring7", Ring(7), 7, 7, 2},
		{"grid2x2", Grid(2, 2), 4, 4, 2},
		{"grid3x3", Grid(3, 3), 9, 12, 4},
		{"full6", Full(6), 6, 15, 5},
		{"star5", Star(5), 5, 4, 4},
		{"tree10", BalancedBinaryTree(10), 10, 9, 3},
	}
	for _, c := range cases {
		if c.g.NumVertices() != c.vertices {
			t.Errorf("%s: vertices = %d, want %d", c.name, c.g.NumVertices(), c.vertices)
		}
		if c.g.NumEdges() != c.edges {
			t.Errorf("%s: edges = %d, want %d", c.name, c.g.NumEdges(), c.edges)
		}
		if c.g.MaxDegree() != c.maxDeg {
			t.Errorf("%s: max degree = %d, want %d", c.name, c.g.MaxDegree(), c.maxDeg)
		}
		if !c.g.Connected() {
			t.Errorf("%s: not connected", c.name)
		}
	}
}

func TestHeavySquare(t *testing.T) {
	g, err := HeavySquare(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || !g.Connected() {
		t.Fatalf("heavy square 6: %v connected=%v", g, g.Connected())
	}
	// 6-vertex heavy square: square with two bridge vertices = 6 edges.
	if g.NumEdges() != 6 {
		t.Fatalf("heavy square 6 edges = %d, want 6", g.NumEdges())
	}
	if _, err := HeavySquare(3); err == nil {
		t.Fatal("heavy square must reject n < 4")
	}
	g8, err := HeavySquare(8)
	if err != nil {
		t.Fatal(err)
	}
	if !g8.Connected() {
		t.Fatal("heavy square 8 disconnected")
	}
}

func TestNamed(t *testing.T) {
	for _, name := range TopologyNames() {
		g, err := Named(name, 6)
		if err != nil {
			t.Errorf("Named(%q): %v", name, err)
			continue
		}
		if g.NumVertices() != 6 {
			t.Errorf("Named(%q): %d vertices", name, g.NumVertices())
		}
		if !g.Connected() {
			t.Errorf("Named(%q): disconnected", name)
		}
	}
	if _, err := Named("moebius", 6); err == nil {
		t.Fatal("unknown topology accepted")
	}
	// "grid" of 6 should be 2x3.
	g, _ := Named("grid", 6)
	if g.NumEdges() != 7 {
		t.Errorf("grid 6 edges = %d, want 7 (2x3 grid)", g.NumEdges())
	}
}

func TestDistancesAndPaths(t *testing.T) {
	g := Line(5)
	d := g.Distances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist(0,%d) = %d, want %d", i, d[i], want)
		}
	}
	p := g.ShortestPath(0, 4)
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Errorf("path = %v", p)
	}
	if got := g.ShortestPath(2, 2); len(got) != 1 {
		t.Errorf("self path = %v", got)
	}
	disconnected := New(3)
	disconnected.MustAddEdge(0, 1)
	if p := disconnected.ShortestPath(0, 2); p != nil {
		t.Errorf("unreachable path = %v, want nil", p)
	}
	if disconnected.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		prob := rng.Float64()
		g := RandomConnected(n, prob, 4, rng)
		if !g.Connected() {
			t.Logf("seed %d: disconnected graph n=%d p=%v", seed, n, prob)
			return false
		}
		// Degree cap may be exceeded by at most the spanning-tree fallback;
		// the generator promises <= max(4, fallback) – verify a loose cap.
		for v := 0; v < n; v++ {
			if g.Degree(v) > 4+1 {
				t.Logf("seed %d: degree %d at vertex %d", seed, g.Degree(v), v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedDensityMonotone(t *testing.T) {
	rng1 := rand.New(rand.NewSource(1))
	rng2 := rand.New(rand.NewSource(1))
	sparse := RandomConnected(50, 0.1, 4, rng1)
	dense := RandomConnected(50, 0.98, 4, rng2)
	if sparse.NumEdges() >= dense.NumEdges() {
		t.Fatalf("sparse (%d edges) >= dense (%d edges)", sparse.NumEdges(), dense.NumEdges())
	}
}

func TestCopyAndEqual(t *testing.T) {
	g := Ring(5)
	h := g.Copy()
	if !g.Equal(h) {
		t.Fatal("copy not equal")
	}
	h.MustAddEdge(0, 2)
	if g.Equal(h) {
		t.Fatal("mutated copy still equal")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("copy shares storage")
	}
}

func TestDegreeSequence(t *testing.T) {
	g := Star(5)
	ds := g.DegreeSequence()
	if ds[0] != 4 || ds[1] != 1 || ds[4] != 1 {
		t.Fatalf("star degree sequence = %v", ds)
	}
}

// TestDistanceMatrix: the cached flat matrix agrees with per-source BFS,
// is computed once, survives concurrent first use, and is dropped by
// AddEdge.
func TestDistanceMatrix(t *testing.T) {
	g := RandomConnected(40, 0.2, 4, rand.New(rand.NewSource(4)))
	island := New(g.NumVertices() + 2) // two extra vertices, one unreachable
	for _, e := range g.Edges() {
		island.MustAddEdge(e[0], e[1])
	}
	island.MustAddEdge(0, 40)
	g = island

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.DistanceMatrix(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m, err := g.DistanceMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.NumVertices(); src++ {
		for dst, want := range g.Distances(src) {
			if got := m.At(src, dst); got != want {
				t.Fatalf("At(%d,%d) = %d, BFS says %d", src, dst, got, want)
			}
		}
	}
	if m.At(3, 41) != -1 {
		t.Fatalf("isolated vertex reachable: %d", m.At(3, 41))
	}
	if again, _ := g.DistanceMatrix(); again != m {
		t.Fatal("matrix recomputed without an edge change")
	}
	g.MustAddEdge(0, 40) // a duplicate changes nothing
	if again, _ := g.DistanceMatrix(); again != m {
		t.Fatal("duplicate edge dropped the matrix")
	}
	g.MustAddEdge(40, 41)
	fresh, err := g.DistanceMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == m || fresh.At(0, 41) != 2 {
		t.Fatalf("AddEdge did not invalidate: At(0,41) = %d", fresh.At(0, 41))
	}
}
