package sched

import (
	"fmt"
	"sync"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/meta"
	"qrio/internal/resilience"
)

// Degraded-score cache bounds: entries older than the staleness window
// never serve, and the pair cache never holds more than the entry cap —
// past it each new pair evicts the oldest-inserted one, so neither steady
// traffic nor a long outage with heavy churn can grow it.
const (
	defaultMaxStale = 5 * time.Minute
	maxCacheEntries = 4096
)

// ResilientMetaScore wraps the Meta-Server scoring dependency in a
// circuit breaker so a dead scorer degrades scheduling instead of
// starving it. While the circuit is closed every score flows through the
// live scorer and is remembered; once consecutive failures open it,
// passes are served from the fallback chain without touching the
// dependency:
//
//  1. the stale cache entry for this exact (job, node) pair, if one was
//     scored within MaxStale;
//  2. the node's most recent score for any job within MaxStale (circuit
//     quality dominates the score far more than the job, so a
//     neighbouring job's score beats a blind guess);
//  3. a local heuristic from the node's calibration labels.
//
// After OpenTimeout the breaker admits half-open probes; the first
// successful probe closes it and live scoring resumes. OnDegraded fires
// once per open episode (not once per call), letting the scheduler emit
// a single SchedulingDegraded event per outage.
type ResilientMetaScore struct {
	// Scorer is the live dependency (required).
	Scorer meta.Scorer
	// Breaker guards the dependency; nil gets a zero-value breaker with
	// its defaults (5 consecutive failures, 5s cool-down, 1 probe).
	Breaker *resilience.Breaker
	// Clock bounds cache staleness (nil = wall clock).
	Clock clock.Clock
	// MaxStale caps how old a cached score may be and still serve a
	// degraded pass (default 5m).
	MaxStale time.Duration
	// OnDegraded, when set, is called once per breaker open episode the
	// first time a degraded score is served.
	OnDegraded func(detail string)

	mu       sync.Mutex
	breaker  *resilience.Breaker // resolved from Breaker on first use
	pairs    map[pairKey]staleScore
	pairRing []pairKey // pairs' keys in insertion order, a ring once full
	pairHead int       // the oldest key's slot in a full ring
	nodes    map[string]staleScore
	notified int64 // breaker episode OnDegraded last fired for
}

type staleScore struct {
	score float64
	at    time.Time
}

// Name implements ScorePlugin.
func (*ResilientMetaScore) Name() string { return "ResilientMetaScore" }

// Score implements ScorePlugin. Nodes are named after their backends, so
// the node name doubles as the backend key (same convention as
// MetaScore).
func (r *ResilientMetaScore) Score(j api.QuantumJob, n api.Node) (float64, error) {
	if r.Scorer == nil {
		return 0, fmt.Errorf("sched: ResilientMetaScore has no meta scorer")
	}
	br := r.circuit()
	if !br.Allow() {
		return r.degraded(j, n, nil)
	}
	score, err := r.Scorer.Score(j.Name, n.Name)
	br.Record(err)
	if err == nil {
		r.remember(j.Name, n.Name, score)
		return score, nil
	}
	return r.degraded(j, n, err)
}

// circuit resolves the breaker once so concurrent scoring shares one.
func (r *ResilientMetaScore) circuit() *resilience.Breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.breaker == nil {
		if r.Breaker != nil {
			r.breaker = r.Breaker
		} else {
			r.breaker = &resilience.Breaker{Clock: r.Clock}
		}
	}
	return r.breaker
}

func (r *ResilientMetaScore) maxStale() time.Duration {
	if r.MaxStale > 0 {
		return r.MaxStale
	}
	return defaultMaxStale
}

// pairKey names a (job, node) pair by the two names themselves: a live
// score makes no key string, and the table holds none.
type pairKey struct{ job, node string }

// remember stores a live score for degraded replay. It runs on every
// live score, under the mutex, so it is O(1): a new pair past the cap
// overwrites the oldest one's ring slot, no scan.
func (r *ResilientMetaScore) remember(job, node string, score float64) {
	entry := staleScore{score: score, at: clock.Now(r.Clock)}
	key := pairKey{job, node}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pairs == nil {
		r.pairs = make(map[pairKey]staleScore)
		r.nodes = make(map[string]staleScore)
	}
	if _, known := r.pairs[key]; !known {
		if len(r.pairRing) < maxCacheEntries {
			r.pairRing = append(r.pairRing, key)
		} else {
			delete(r.pairs, r.pairRing[r.pairHead])
			r.pairRing[r.pairHead] = key
			r.pairHead = (r.pairHead + 1) % maxCacheEntries
		}
	}
	r.pairs[key] = entry
	r.nodes[node] = entry
}

// degraded serves the fallback chain; cause is the live error when the
// breaker admitted the call but the dependency failed.
func (r *ResilientMetaScore) degraded(j api.QuantumJob, n api.Node, cause error) (float64, error) {
	r.announce()
	now := clock.Now(r.Clock)
	r.mu.Lock()
	pair, okPair := r.pairs[pairKey{j.Name, n.Name}]
	node, okNode := r.nodes[n.Name]
	r.mu.Unlock()
	if okPair && now.Sub(pair.at) <= r.maxStale() {
		return pair.score, nil
	}
	if okNode && now.Sub(node.at) <= r.maxStale() {
		return node.score, nil
	}
	if score, ok := heuristicScore(n); ok {
		return score, nil
	}
	if cause == nil {
		cause = fmt.Errorf("meta scorer circuit open")
	}
	return 0, fmt.Errorf("sched: no degraded score for %s on %s: %w", j.Name, n.Name, cause)
}

// announce fires OnDegraded once per breaker open episode.
func (r *ResilientMetaScore) announce() {
	if r.OnDegraded == nil {
		return
	}
	ep := r.circuit().Opens()
	r.mu.Lock()
	if ep == r.notified {
		r.mu.Unlock()
		return
	}
	r.notified = ep
	r.mu.Unlock()
	r.OnDegraded(fmt.Sprintf(
		"meta scorer unavailable (outage %d): scheduling on cached/heuristic scores", ep))
}

// heuristicScore approximates a meta score from the node's calibration
// labels when no live or cached score exists. The weighting mirrors what
// dominates fidelity loss on hardware — two-qubit gate error well ahead
// of readout error — and the absolute value is meaningless next to real
// meta scores; but a degraded pass compares candidates under the same
// formula, so the ordering stays calibration-aware (lower is better).
func heuristicScore(n api.Node) (float64, bool) {
	twoQ, ok2 := api.ParseFloatLabel(n.Labels, api.LabelAvg2QErr)
	readout, okR := api.ParseFloatLabel(n.Labels, api.LabelAvgReadout)
	if !ok2 && !okR {
		return 0, false
	}
	return 10*twoQ + readout, true
}

var _ ScorePlugin = (*ResilientMetaScore)(nil)
