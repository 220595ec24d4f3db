package meta_test

import (
	"fmt"
	"math"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/meta"
	"qrio/internal/quantum/qasm"
)

const bellQASM = `OPENQASM 2.0;
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
`

func ringTopologyQASM(t *testing.T, n int) string {
	t.Helper()
	src, err := qasm.Dump(mapomatic.TopologyCircuit(graph.Ring(n)))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func backend(t *testing.T, name string, g *graph.Graph, e2 float64) *device.Backend {
	t.Helper()
	b, err := device.UniformBackend(name, g, e2, 0.01, 0.02, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFidelityScoringPrefersCleanDevice(t *testing.T) {
	s := meta.NewServer(meta.Options{})
	clean := backend(t, "clean", graph.Line(4), 0.02)
	noisy := backend(t, "noisy", graph.Line(4), 0.5)
	if err := s.RegisterBackend(clean); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterBackend(noisy); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobMeta(meta.JobMeta{
		JobName: "bell", Strategy: api.StrategyFidelity,
		TargetFidelity: 1.0, CircuitQASM: bellQASM,
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := s.Score("bell", "clean")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := s.Score("bell", "noisy")
	if err != nil {
		t.Fatal(err)
	}
	if sc >= sn {
		t.Fatalf("clean score %v >= noisy score %v (lower must be better)", sc, sn)
	}
}

func TestOverTargetPenaltyPrefersLooseMatch(t *testing.T) {
	// Target 0.9: an excellent device (~0.97 canary fidelity) overshoots
	// slightly; a terrible one misses by a lot. The overshoot must (a)
	// still beat the big miss and (b) be discounted to a quarter of the
	// undiscounted F−target, which a target-1 job of the same circuit
	// (sharing the cached simulation) reveals as 1 − its score.
	s := meta.NewServer(meta.Options{})
	s.RegisterBackend(backend(t, "excellent", graph.Line(4), 0.005))
	s.RegisterBackend(backend(t, "terrible", graph.Line(4), 0.7))
	for name, target := range map[string]float64{"loose": 0.9, "exact": 1} {
		if err := s.PutJobMeta(meta.JobMeta{
			JobName: name, Strategy: api.StrategyFidelity,
			TargetFidelity: target, CircuitQASM: bellQASM,
		}); err != nil {
			t.Fatal(err)
		}
	}
	se, err := s.Score("loose", "excellent")
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Score("loose", "terrible")
	if err != nil {
		t.Fatal(err)
	}
	if se >= st {
		t.Fatalf("overshoot penalised harder than a big miss: excellent %v vs terrible %v", se, st)
	}
	if se < 0 || st < 0 {
		t.Fatalf("negative scores: %v %v", se, st)
	}
	miss, err := s.Score("exact", "excellent")
	if err != nil {
		t.Fatal(err)
	}
	overshoot := 1 - miss - 0.9
	if overshoot <= 0 {
		t.Fatalf("excellent device fidelity %v does not overshoot 0.9", 1-miss)
	}
	if want := 0.25 * overshoot; math.Abs(se-want) > 1e-12 {
		t.Fatalf("overshoot %v scored %v, want a quarter of it (%v)", overshoot, se, want)
	}
}

func TestTopologyScoring(t *testing.T) {
	s := meta.NewServer(meta.Options{})
	ringDev := backend(t, "ring", graph.Ring(8), 0.1)
	lineDev := backend(t, "line", graph.Line(8), 0.1)
	s.RegisterBackend(ringDev)
	s.RegisterBackend(lineDev)
	s.PutJobMeta(meta.JobMeta{
		JobName: "topo", Strategy: api.StrategyTopology,
		TopologyQASM: ringTopologyQASM(t, 6),
	})
	sr, err := s.Score("topo", "ring")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := s.Score("topo", "line")
	if err != nil {
		t.Fatal(err)
	}
	// Ring topology embeds in the ring device; the line device must route.
	if sr >= sl {
		t.Fatalf("ring device score %v >= line device %v for a ring request", sr, sl)
	}
}

// TestScoreCacheHitAndInvalidation: a second Score for the same (job
// fingerprint, backend, calibration generation) must come from the cache;
// re-registering the backend (a calibration refresh) must invalidate it.
func TestScoreCacheHitAndInvalidation(t *testing.T) {
	s := meta.NewServer(meta.Options{})
	dev := backend(t, "dev", graph.Line(4), 0.05)
	if err := s.RegisterBackend(dev); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation("dev"); got != 1 {
		t.Fatalf("generation after first register = %d", got)
	}
	if err := s.PutJobMeta(meta.JobMeta{
		JobName: "bell", Strategy: api.StrategyFidelity,
		TargetFidelity: 1, CircuitQASM: bellQASM,
	}); err != nil {
		t.Fatal(err)
	}
	first, err := s.Score("bell", "dev")
	if err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first score: hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
	second, err := s.Score("bell", "dev")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("cached score %v != first score %v", second, first)
	}
	if st = s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after second score: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// A different job submitting the same circuit shares the simulation.
	if err := s.PutJobMeta(meta.JobMeta{
		JobName: "bell-again", Strategy: api.StrategyFidelity,
		TargetFidelity: 0.9, CircuitQASM: bellQASM,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Score("bell-again", "dev"); err != nil {
		t.Fatal(err)
	}
	if st = s.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("shared circuit: hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
	// Calibration refresh: same name, new error rates → new generation,
	// cold cache, different score.
	recal := backend(t, "dev", graph.Line(4), 0.4)
	if err := s.RegisterBackend(recal); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation("dev"); got != 2 {
		t.Fatalf("generation after re-register = %d", got)
	}
	refreshed, err := s.Score("bell", "dev")
	if err != nil {
		t.Fatal(err)
	}
	if st = s.CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("after invalidation: hits=%d misses=%d, want 2/2", st.Hits, st.Misses)
	}
	if st.Evictions != 0 {
		t.Fatalf("calibration invalidation counted as LRU eviction: %d", st.Evictions)
	}
	if refreshed == first {
		t.Fatalf("score unchanged (%v) after calibration degraded — stale cache served", refreshed)
	}
}

// TestTopologyScoreCached: the subgraph search is memoised too.
func TestTopologyScoreCached(t *testing.T) {
	s := meta.NewServer(meta.Options{})
	s.RegisterBackend(backend(t, "ring", graph.Ring(8), 0.1))
	s.PutJobMeta(meta.JobMeta{
		JobName: "topo", Strategy: api.StrategyTopology,
		TopologyQASM: ringTopologyQASM(t, 6),
	})
	a, err := s.Score("topo", "ring")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Score("topo", "ring")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cached topology score %v != %v", b, a)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestScoreBatchParallel: batch scoring returns input order and matches
// the serial scores.
func TestScoreBatchParallel(t *testing.T) {
	s := meta.NewServer(meta.Options{})
	names := []string{"d1", "d2", "d3"}
	errs := []float64{0.02, 0.2, 0.5}
	for i, n := range names {
		if err := s.RegisterBackend(backend(t, n, graph.Line(4), errs[i])); err != nil {
			t.Fatal(err)
		}
	}
	s.PutJobMeta(meta.JobMeta{
		JobName: "bell", Strategy: api.StrategyFidelity,
		TargetFidelity: 1, CircuitQASM: bellQASM,
	})
	got := s.ScoreBatch("bell", append(names, "ghost"), 4)
	if len(got) != 4 {
		t.Fatalf("batch size %d", len(got))
	}
	for i, n := range names {
		if got[i].Backend != n || got[i].Error != "" {
			t.Fatalf("entry %d = %+v", i, got[i])
		}
		serial, err := s.Score("bell", n)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Score != serial {
			t.Fatalf("batch score %v != serial %v for %s", got[i].Score, serial, n)
		}
	}
	if got[3].Error == "" {
		t.Fatal("unknown backend silently scored")
	}
}

func TestMetaValidation(t *testing.T) {
	s := meta.NewServer(meta.Options{})
	cases := []meta.JobMeta{
		{}, // no name
		{JobName: "x", Strategy: api.StrategyFidelity, TargetFidelity: 0, CircuitQASM: bellQASM},
		{JobName: "x", Strategy: api.StrategyFidelity, TargetFidelity: 2, CircuitQASM: bellQASM},
		{JobName: "x", Strategy: api.StrategyFidelity, TargetFidelity: 0.5}, // no circuit
		{JobName: "x", Strategy: api.StrategyTopology},                      // no topology
		{JobName: "x", Strategy: "magic"},
		{JobName: "x", Strategy: api.StrategyFidelity, TargetFidelity: 0.5, CircuitQASM: "garbage"},
	}
	for i, m := range cases {
		if err := s.PutJobMeta(m); err == nil {
			t.Errorf("case %d: invalid metadata accepted: %+v", i, m)
		}
	}
}

func TestScoreUnknownJobOrBackend(t *testing.T) {
	s := meta.NewServer(meta.Options{})
	if _, err := s.Score("ghost", "ghost"); err == nil {
		t.Fatal("scored unknown job")
	}
	s.PutJobMeta(meta.JobMeta{
		JobName: "j", Strategy: api.StrategyFidelity,
		TargetFidelity: 1, CircuitQASM: bellQASM,
	})
	if _, err := s.Score("j", "ghost"); err == nil {
		t.Fatal("scored unknown backend")
	}
}

func TestTable1MetadataRouting(t *testing.T) {
	// Table 1: fidelity uploads carry {fidelity, job name, circuit};
	// topology uploads carry {job name, topology file} only.
	s := meta.NewServer(meta.Options{})
	fid := meta.JobMeta{
		JobName: "f", Strategy: api.StrategyFidelity,
		TargetFidelity: 0.8, CircuitQASM: bellQASM,
	}
	topo := meta.JobMeta{
		JobName: "t", Strategy: api.StrategyTopology,
		TopologyQASM: ringTopologyQASM(t, 4),
	}
	if err := s.PutJobMeta(fid); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobMeta(topo); err != nil {
		t.Fatal(err)
	}
	gotF, _ := s.JobMeta("f")
	if gotF.CircuitQASM == "" || gotF.TargetFidelity != 0.8 || gotF.TopologyQASM != "" {
		t.Fatalf("fidelity metadata wrong: %+v", gotF)
	}
	gotT, _ := s.JobMeta("t")
	if gotT.TopologyQASM == "" || gotT.CircuitQASM != "" || gotT.TargetFidelity != 0 {
		t.Fatalf("topology metadata wrong: %+v", gotT)
	}
}

// ghzQASM builds a distinct n-qubit circuit source so LRU tests can mint
// unique cache fingerprints cheaply.
func ghzQASM(n int) string {
	src := fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\nh q[0];\n", n)
	for i := 0; i < n-1; i++ {
		src += fmt.Sprintf("cx q[%d],q[%d];\n", i, i+1)
	}
	return src
}

// TestScoreCacheLRUCap: the cache holds at most CacheMaxEntries entries,
// evicting least-recently-used fingerprints; evictions surface in
// CacheStats and an evicted circuit recomputes (a fresh miss) while a
// recently-touched one stays a hit.
func TestScoreCacheLRUCap(t *testing.T) {
	s := meta.NewServer(meta.Options{CacheMaxEntries: 2})
	if err := s.RegisterBackend(backend(t, "dev", graph.Line(4), 0.1)); err != nil {
		t.Fatal(err)
	}
	put := func(job string, qubits int) {
		t.Helper()
		if err := s.PutJobMeta(meta.JobMeta{
			JobName: job, Strategy: api.StrategyFidelity,
			TargetFidelity: 1, CircuitQASM: ghzQASM(qubits),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Score(job, "dev"); err != nil {
			t.Fatal(err)
		}
	}
	put("j2", 2) // cache: [j2]
	put("j3", 3) // cache: [j3 j2]
	st := s.CacheStats()
	if st.Entries != 2 || st.Evictions != 0 || st.Misses != 2 {
		t.Fatalf("before cap: %+v", st)
	}
	// Touch j2 so j3 becomes the LRU victim when j4 arrives.
	if _, err := s.Score("j2", "dev"); err != nil {
		t.Fatal(err)
	}
	put("j4", 4) // evicts j3; cache: [j4 j2]
	st = s.CacheStats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after cap: %+v", st)
	}
	// j2 survived the eviction (hit), j3 did not (fresh miss).
	misses := st.Misses
	if _, err := s.Score("j2", "dev"); err != nil {
		t.Fatal(err)
	}
	if st = s.CacheStats(); st.Misses != misses {
		t.Fatalf("recently-used entry recomputed: %+v", st)
	}
	if _, err := s.Score("j3", "dev"); err != nil {
		t.Fatal(err)
	}
	st = s.CacheStats()
	if st.Misses != misses+1 {
		t.Fatalf("evicted entry served from cache: %+v", st)
	}
	if st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("after re-score of evicted: %+v", st)
	}
}
