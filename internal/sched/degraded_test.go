package sched

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/faults"
	"qrio/internal/resilience"
)

// stubClock is a mutex-protected virtual clock for staleness/cool-down
// control.
type stubClock struct {
	mu  sync.Mutex
	now time.Time
}

func newStubClock() *stubClock {
	return &stubClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *stubClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stubClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// flipScorer is a meta.Scorer whose health the test flips.
type flipScorer struct {
	mu     sync.Mutex
	down   bool
	scores map[string]float64 // "job/node" → score
	calls  int
}

func (s *flipScorer) Score(job, node string) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.down {
		return 0, errors.New("meta server unreachable")
	}
	if v, ok := s.scores[job+"/"+node]; ok {
		return v, nil
	}
	return 0.42, nil
}

func (s *flipScorer) setDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

func jobNamed(name string) api.QuantumJob {
	return api.QuantumJob{ObjectMeta: api.ObjectMeta{Name: name}}
}

func nodeNamed(name string, labels map[string]string) api.Node {
	return api.Node{ObjectMeta: api.ObjectMeta{Name: name, Labels: labels}}
}

// resilient builds the plugin under test with a 1-failure breaker so a
// single outage opens the circuit deterministically.
func resilient(scorer *flipScorer, fc *stubClock, onDegraded func(string)) *ResilientMetaScore {
	return &ResilientMetaScore{
		Scorer:     scorer,
		Breaker:    &resilience.Breaker{FailureThreshold: 1, OpenTimeout: 30 * time.Second, Clock: fc},
		Clock:      fc,
		OnDegraded: onDegraded,
	}
}

// TestFallbackOrdering pins the degraded chain: exact (job, node) stale
// entry beats the node-level entry, which beats the label heuristic,
// which beats an error.
func TestFallbackOrdering(t *testing.T) {
	fc := newStubClock()
	scorer := &flipScorer{scores: map[string]float64{
		"a/n1": 1.5,
		"b/n1": 2.5,
	}}
	r := resilient(scorer, fc, nil)

	labelled := nodeNamed("n2", map[string]string{
		api.LabelAvg2QErr:   "0.02",
		api.LabelAvgReadout: "0.05",
	})

	// Healthy pass: live scores flow through and are remembered.
	if got, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil || got != 1.5 {
		t.Fatalf("live score = %v, %v; want 1.5", got, err)
	}
	if got, err := r.Score(jobNamed("b"), nodeNamed("n1", nil)); err != nil || got != 2.5 {
		t.Fatalf("live score = %v, %v; want 2.5", got, err)
	}

	// Outage: one failure opens the 1-failure breaker.
	scorer.setDown(true)
	if _, err := r.Score(jobNamed("c"), labelled); err != nil {
		t.Fatalf("first degraded pass errored: %v", err)
	}

	// 1. Exact pair wins even though the node entry is fresher data for b.
	if got, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil || got != 1.5 {
		t.Fatalf("degraded exact-pair score = %v, %v; want 1.5", got, err)
	}
	// 2. Unknown job on a known node: node-level entry (most recent live
	// score on n1, which was b's 2.5).
	if got, err := r.Score(jobNamed("zzz"), nodeNamed("n1", nil)); err != nil || got != 2.5 {
		t.Fatalf("degraded node-level score = %v, %v; want 2.5", got, err)
	}
	// 3. Unknown node with calibration labels: heuristic 10·avg2q + readout.
	want := 10*0.02 + 0.05
	if got, err := r.Score(jobNamed("zzz"), labelled); err != nil || got != want {
		t.Fatalf("degraded heuristic score = %v, %v; want %v", got, err, want)
	}
	// 4. Nothing to fall back on: a typed error, not a fake score.
	if _, err := r.Score(jobNamed("zzz"), nodeNamed("bare", nil)); err == nil {
		t.Fatal("degraded score with no fallback succeeded")
	}

	// The open circuit short-circuits: the scorer saw the healthy passes,
	// the opening failure, and nothing since.
	scorer.mu.Lock()
	calls := scorer.calls
	scorer.mu.Unlock()
	if calls != 3 {
		t.Fatalf("scorer calls = %d, want 3 (open circuit must not probe)", calls)
	}
}

// TestMaxStaleBound: cache entries older than maxStale (5 min) stop
// serving and the chain falls through to the heuristic/error.
func TestMaxStaleBound(t *testing.T) {
	fc := newStubClock()
	scorer := &flipScorer{scores: map[string]float64{"a/n1": 1.5}}
	r := resilient(scorer, fc, nil)

	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
		t.Fatal(err)
	}
	scorer.setDown(true)
	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
		t.Fatalf("fresh stale entry refused: %v", err)
	}
	fc.Advance(maxStale - time.Second)
	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
		t.Fatalf("entry inside maxStale refused: %v", err)
	}
	fc.Advance(2 * time.Second)
	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err == nil {
		t.Fatal("entry older than maxStale still served")
	}
}

// TestRecoveryResumesLiveScoring: after the breaker cool-down, a probe
// reaches the healthy scorer again and live values flow.
func TestRecoveryResumesLiveScoring(t *testing.T) {
	fc := newStubClock()
	scorer := &flipScorer{scores: map[string]float64{"a/n1": 1.5}}
	r := resilient(scorer, fc, nil)

	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
		t.Fatal(err)
	}
	scorer.setDown(true)
	r.Score(jobNamed("a"), nodeNamed("n1", nil)) // opens the breaker
	scorer.setDown(false)

	// Before the cool-down the circuit still serves stale.
	scorer.mu.Lock()
	before := scorer.calls
	scorer.mu.Unlock()
	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
		t.Fatal(err)
	}
	scorer.mu.Lock()
	during := scorer.calls
	scorer.mu.Unlock()
	if during != before {
		t.Fatalf("open circuit probed the scorer (%d → %d calls)", before, during)
	}

	fc.Advance(30 * time.Second)
	scorer.mu.Lock()
	scorer.scores["a/n1"] = 9.9
	scorer.mu.Unlock()
	if got, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil || got != 9.9 {
		t.Fatalf("post-recovery score = %v, %v; want live 9.9", got, err)
	}
}

// TestOnDegradedCoalescing: one notification per open episode, not one
// per degraded call; a second outage notifies again.
func TestOnDegradedCoalescing(t *testing.T) {
	fc := newStubClock()
	scorer := &flipScorer{}
	var mu sync.Mutex
	var events []string
	r := resilient(scorer, fc, func(detail string) {
		mu.Lock()
		events = append(events, detail)
		mu.Unlock()
	})

	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
		t.Fatal(err)
	}
	scorer.setDown(true)
	for i := 0; i < 5; i++ {
		if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
			t.Fatalf("degraded pass %d: %v", i, err)
		}
	}
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("OnDegraded fired %d times in one outage, want 1", n)
	}

	// Recover, then a second outage: a new episode, a new notification.
	scorer.setDown(false)
	fc.Advance(30 * time.Second)
	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err != nil {
		t.Fatal(err)
	}
	scorer.setDown(true)
	r.Score(jobNamed("a"), nodeNamed("n1", nil))
	r.Score(jobNamed("a"), nodeNamed("n1", nil))
	mu.Lock()
	n = len(events)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("OnDegraded fired %d times across two outages, want 2", n)
	}
}

// TestNoScorerErrors: a mis-wired plugin fails loudly instead of scoring
// everything zero.
func TestNoScorerErrors(t *testing.T) {
	r := &ResilientMetaScore{}
	if _, err := r.Score(jobNamed("a"), nodeNamed("n1", nil)); err == nil {
		t.Fatal("nil scorer did not error")
	}
}

// TestCacheCap: the pair cache is bounded even when every entry is
// fresh — steady traffic inside maxStale, where nothing ever expires —
// and it is the oldest-inserted pairs that make room.
func TestCacheCap(t *testing.T) {
	fc := newStubClock()
	scorer := &flipScorer{}
	r := resilient(scorer, fc, nil)

	const extra = 100
	for i := 0; i < maxCacheEntries+extra; i++ {
		if _, err := r.Score(jobNamed(fmt.Sprintf("j%d", i)), nodeNamed("n1", nil)); err != nil {
			t.Fatal(err)
		}
		fc.Advance(time.Millisecond) // all well inside the 5m maxStale
	}
	size := r.pairs.Len()
	_, oldest := r.pairs.Get(pairKey{"j0", "n1"})
	_, evictedLast := r.pairs.Get(pairKey{fmt.Sprintf("j%d", extra-1), "n1"})
	_, survivor := r.pairs.Get(pairKey{fmt.Sprintf("j%d", extra), "n1"})
	_, newest := r.pairs.Get(pairKey{fmt.Sprintf("j%d", maxCacheEntries+extra-1), "n1"})
	if size != maxCacheEntries {
		t.Fatalf("cache holds %d fresh pairs, want it capped at %d", size, maxCacheEntries)
	}
	if oldest || evictedLast || !survivor || !newest {
		t.Fatalf("eviction is not oldest-first: j0=%v j%d=%v j%d=%v newest=%v",
			oldest, extra-1, evictedLast, extra, survivor, newest)
	}
	// Re-scoring a cached pair refreshes it in place, evicting nobody.
	if _, err := r.Score(jobNamed(fmt.Sprintf("j%d", extra)), nodeNamed("n1", nil)); err != nil {
		t.Fatal(err)
	}
	_, stillThere := r.pairs.Get(pairKey{fmt.Sprintf("j%d", extra+1), "n1"})
	size = r.pairs.Len()
	if !stillThere || size != maxCacheEntries {
		t.Fatalf("re-scoring a cached pair evicted a neighbour (size %d)", size)
	}
}

// TestDeadScorerOnTheBatchPath: a rank is one breaker admission. A dead
// scorer opens the circuit within one 100-node rank, whose every node the
// meta.score point saw and the fallback chain still ranked; the outage
// records one SchedulingDegraded event; ranks while the circuit is open
// touch no backend; and one successful half-open rank closes it.
func TestDeadScorerOnTheBatchPath(t *testing.T) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	nodes := fleetNodes(t, fleet)
	fc := newStubClock()
	s := newRankStack(t, fleet, fc, 0, false)
	job := s.put(t, fidelityMeta("bell", "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"))
	live, err := s.fw.Rank(job, nodes)
	if err != nil || len(live) != len(nodes) {
		t.Fatalf("healthy rank: %d of %d nodes, %v", len(live), len(nodes), err)
	}

	s.faults.Enable(faults.PointMetaScore, faults.Spec{})
	degraded, err := s.fw.Rank(job, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.breaker.State(); got != resilience.Open {
		t.Fatalf("breaker %v after a dead scorer's rank, want open", got)
	}
	if fired := s.faults.Fired(faults.PointMetaScore); fired != int64(len(nodes)) {
		t.Fatalf("meta.score fired %d times in one rank, want once per node (%d)", fired, len(nodes))
	}
	// Every node falls back to the score it had a rank ago.
	if !reflect.DeepEqual(degraded, live) {
		t.Fatalf("degraded ranking differs from the remembered live one")
	}
	other := s.put(t, fidelityMeta("unseen", "OPENQASM 2.0;\nqreg q[2];\nx q[0];\ncx q[0],q[1];"))
	if ranked, err := s.fw.Rank(other, nodes); err != nil || len(ranked) != len(nodes) {
		t.Fatalf("open-circuit rank: %d of %d nodes, %v", len(ranked), len(nodes), err)
	}
	if fired := s.faults.Fired(faults.PointMetaScore); fired != int64(len(nodes)) {
		t.Fatalf("an open circuit scored %d backends", fired-int64(len(nodes)))
	}
	if n := s.degraded.Load(); n != 1 {
		t.Fatalf("SchedulingDegraded announced %d times in one outage, want 1", n)
	}

	s.faults.Disable(faults.PointMetaScore)
	fc.Advance(time.Minute)
	if ranked, err := s.fw.Rank(job, nodes); err != nil || !reflect.DeepEqual(ranked, live) {
		t.Fatalf("half-open rank: %v", err)
	}
	if got := s.breaker.State(); got != resilience.Closed || s.breaker.Opens() != 1 {
		t.Fatalf("breaker %v after %d opens, want closed after 1", got, s.breaker.Opens())
	}
}
