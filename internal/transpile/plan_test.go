package transpile_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
	"qrio/internal/transpile"
	"qrio/internal/workload"
)

// withSkeleton builds an n-qubit circuit whose two-qubit gates are pairs,
// in order, with a random number of random one-qubit gates around them.
// Two calls with one pairs list share a skeleton and nothing else.
func withSkeleton(rng *rand.Rand, n int, pairs [][2]int) *circuit.Circuit {
	c := circuit.New(n)
	oneQubit := func() {
		for k := rng.Intn(3); k > 0; k-- {
			q := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				c.H(q)
			case 1:
				c.T(q)
			case 2:
				c.RZ(q, rng.Float64()*6)
			case 3:
				c.U3(q, rng.Float64()*3, rng.Float64()*3, rng.Float64()*3)
			}
		}
	}
	for _, p := range pairs {
		oneQubit()
		c.CX(p[0], p[1])
	}
	oneQubit()
	c.MeasureAll()
	return c
}

// fresh transpiles with the memo emptied: every plan built anew.
func fresh(c *circuit.Circuit, b *device.Backend, opts transpile.Options) (*transpile.Result, error) {
	memo.Empty()
	return transpile.Transpile(c, b, opts)
}

func sameOutcome(t *testing.T, what string, got, want *transpile.Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from a freshly routed one\ngot  %+v\nwant %+v", what, got, want)
	}
}

// FuzzPlanReplay: a circuit transpiled through a memoised plan — its own,
// one another circuit with its skeleton built, or whatever the memo holds
// after a circuit with its pairs on a wider register — is deeply equal to
// the same circuit routed afresh, on random skeletons and random connected
// couplings, under every option set.
func FuzzPlanReplay(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	optSets := []transpile.Options{{}, {DisableVF2Layout: true}, {SkipOptimize: true}, {DisableVF2Layout: true, SkipOptimize: true}}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		pairs := make([][2]int, 1+rng.Intn(12))
		for i := range pairs {
			a := rng.Intn(n)
			pairs[i] = [2]int{a, (a + 1 + rng.Intn(n-1)) % n}
		}
		coupling := graph.RandomConnected(n+1+rng.Intn(4), 0.15+0.6*rng.Float64(), 2+rng.Intn(3), rng)
		b, err := device.UniformBackend("fuzz", coupling, 0.1, 0.01, 0.02, 100e3, 100e3)
		if err != nil {
			t.Fatal(err)
		}
		opts := optSets[rng.Intn(len(optSets))]
		c1 := withSkeleton(rng, n, pairs)
		want1, err1 := fresh(c1, b, opts)
		got1, gotErr1 := transpile.Transpile(c1, b, opts) // its own plan
		sameOutcome(t, "repeat", got1, want1, gotErr1, err1)

		for _, c := range []*circuit.Circuit{withSkeleton(rng, n, pairs), withSkeleton(rng, n+1, pairs)} {
			want, wantErr := fresh(c, b, opts)
			memo.Empty()
			if _, err := transpile.Transpile(c1, b, opts); err != nil {
				t.Fatal(err)
			}
			got, gotErr := transpile.Transpile(c, b, opts) // after c1's plan
			sameOutcome(t, fmt.Sprintf("%d qubits after %d", c.NumQubits, n), got, want, gotErr, wantErr)
		}
	})
}

// TestPlansUnderConcurrentTranspiles: goroutines sharing the memo, as a
// fleet sweep's scorers do, each get exactly the sequential results while
// they build and hit plans for one another.
func TestPlansUnderConcurrentTranspiles(t *testing.T) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	fleet = fleet[:12]
	rng := rand.New(rand.NewSource(5))
	var cs []*circuit.Circuit
	for _, pairs := range [][][2]int{{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, {{0, 3}, {1, 4}, {0, 2}}} {
		for k := 0; k < 3; k++ {
			cs = append(cs, withSkeleton(rng, 5, pairs))
		}
	}
	want := make([][]*transpile.Result, len(cs))
	for i, c := range cs {
		for _, b := range fleet {
			res, err := fresh(c, b, transpile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], res)
		}
	}
	memo.Empty()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range len(cs) * len(fleet) {
				k := (n*(2*g+1) + g) % (len(cs) * len(fleet)) // each goroutine its own order
				i, d := k/len(fleet), k%len(fleet)
				got, err := transpile.Transpile(cs[i], fleet[d], transpile.Options{})
				if err != nil || !reflect.DeepEqual(got, want[i][d]) {
					t.Errorf("goroutine %d, circuit %d on %s: %v, differs from the sequential result", g, i, fleet[d].Name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// reorderedCopy returns g's edge set with adjacency lists in another order.
func reorderedCopy(g *graph.Graph) *graph.Graph {
	edges := g.Edges()
	out := graph.New(g.NumVertices())
	for i := len(edges) - 1; i >= 0; i-- {
		out.MustAddEdge(edges[i][1], edges[i][0])
	}
	return out
}

// TestPlanFollowsAdjacencyOrder: two couplings with one edge set but
// adjacency lists in another order have different digests, and so their own
// plans — which here choose different layouts — each equal to routing
// afresh. A plan keyed by edge set would hand one device the other's.
func TestPlanFollowsAdjacencyOrder(t *testing.T) {
	b := fleetDevice(t, "sim-q15-p045")
	re := *b
	re.Coupling = reorderedCopy(b.Coupling)
	if !re.Coupling.Equal(b.Coupling) {
		t.Fatal("reordered copy lost an edge")
	}
	if b.Coupling.Digest() == re.Coupling.Digest() {
		t.Fatal("adjacency order does not change the coupling digest")
	}
	c := circuit.New(5)
	for q := 0; q < 5; q++ {
		c.CX(q, (q+1)%5)
	}
	c.MeasureAll()
	want, err := fresh(c, b, transpile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRe, err := fresh(c, &re, transpile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want.InitialLayout, wantRe.InitialLayout) {
		t.Fatalf("both orders choose layout %v; the test needs a device where they differ", want.InitialLayout)
	}
	memo.Empty()
	for pass := 0; pass < 2; pass++ {
		got, err := transpile.Transpile(c, b, transpile.Options{})
		sameOutcome(t, "original order", got, want, err, nil)
		gotRe, err := transpile.Transpile(c, &re, transpile.Options{})
		sameOutcome(t, "reordered", gotRe, wantRe, err, nil)
	}
}

// TestDisconnectedCouplingIsAnError: on a coupling map with two islands (a
// triangle and a line) a 4-qubit ring cannot be placed on one island, and a
// gate across them fails with a typed error instead of emitting a cx on a
// non-edge; the error is not memoised.
func TestDisconnectedCouplingIsAnError(t *testing.T) {
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {5, 6}} {
		g.MustAddEdge(e[0], e[1])
	}
	b, err := device.UniformBackend("islands", g, 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(4)
	for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		c.CX(p[0], p[1])
	}
	c.MeasureAll()
	for pass := 0; pass < 2; pass++ {
		res, err := transpile.Transpile(c, b, transpile.Options{})
		var de *transpile.DisconnectedError
		if !errors.As(err, &de) {
			t.Fatalf("pass %d: got %v, %v; want a DisconnectedError", pass, res, err)
		}
		if want := "transpile: qubits 1,4 disconnected on islands"; err.Error() != want {
			t.Fatalf("pass %d: error %q, want %q", pass, err, want)
		}
	}
}

// BenchmarkTranspileBV10 measures the full transpilation pipeline onto a
// sparse 50-qubit device: /hit replays the memoised route plan (every call
// after the first), /cold builds the plan each op.
func BenchmarkTranspileBV10(b *testing.B) {
	dev, err := device.GenerateBackend("bench", 50, 0.15, device.DefaultFleetSpec(), 9)
	if err != nil {
		b.Fatal(err)
	}
	c := workload.BernsteinVazirani(10, 0b101101101)
	for _, cold := range []bool{false, true} {
		name := "hit"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					memo.Empty()
				}
				if _, err := transpile.Transpile(c, dev, transpile.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
