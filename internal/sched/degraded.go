package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/meta"
	"qrio/internal/par"
	"qrio/internal/resilience"
)

// Degraded-score cache bounds: entries older than maxStale never serve,
// and the pair cache never holds more than the entry cap — past it each
// new pair evicts the oldest-inserted one, so neither steady traffic nor a
// long outage with heavy churn can grow it.
const (
	maxStale        = 5 * time.Minute
	maxCacheEntries = 4096
)

// ResilientMetaScore wraps the Meta-Server scoring dependency in a
// circuit breaker so a dead scorer degrades scheduling instead of
// starving it. Framework.Rank hands it a whole rank at once (ScoreEach),
// and the rank is one breaker admission. While the circuit is closed
// every score flows through the live scorer and is remembered; once
// consecutive failures open it, passes are served from the fallback chain
// without touching the dependency:
//
//  1. the stale cache entry for this exact (job, node) pair, if one was
//     scored within maxStale (5 min);
//  2. the node's most recent score for any job within maxStale (circuit
//     quality dominates the score far more than the job, so a
//     neighbouring job's score beats a blind guess);
//  3. a local heuristic from the node's calibration labels.
//
// After OpenTimeout the breaker admits one half-open probe — a rank —
// and if it succeeds the circuit closes and live scoring resumes.
// OnDegraded fires once per open episode (not once per call), letting the
// scheduler emit a single SchedulingDegraded event per outage.
type ResilientMetaScore struct {
	// Scorer is the live dependency (required).
	Scorer meta.Scorer
	// Breaker guards the dependency; nil gets a zero-value breaker with
	// its defaults (5 consecutive failures, 5s cool-down).
	Breaker *resilience.Breaker
	// Clock bounds cache staleness (nil = wall clock).
	Clock clock.Clock
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

// Score implements ScorePlugin: a one-node ScoreEach.
func (r *ResilientMetaScore) Score(j api.QuantumJob, n api.Node) (float64, error) {
	scores, errs := r.ScoreEach(j, []api.Node{n}, nil)
	return scores[0], errs[0]
}

// errCircuitOpen is the cause a node's fallback reports when the breaker
// did not admit its batch.
var errCircuitOpen = errors.New("meta scorer circuit open")

// ScoreEach implements BatchScorePlugin. A batch is one breaker
// admission: admitted, every node goes to the live scorer in one call
// (nodes are named after their backends, so a node's name is its backend
// key), the outcomes are recorded in node order — a dead scorer still
// opens the circuit within one rank — and the live scores are remembered
// under one lock. A node the scorer failed, and every node while the
// circuit is open, is served from the fallback chain.
func (r *ResilientMetaScore) ScoreEach(j api.QuantumJob, nodes []api.Node, lim par.Limit) ([]float64, []error) {
	if r.Scorer == nil {
		return failEach(len(nodes), fmt.Errorf("sched: ResilientMetaScore has no meta scorer"))
	}
	br := r.circuit()
	if !br.Allow() {
		scores, errs := failEach(len(nodes), errCircuitOpen)
		r.degraded(j, nodes, scores, errs)
		return scores, errs
	}
	names := nodeNames(nodes)
	scores, errs := meta.ScoreEach(r.Scorer, j.Name, names, lim)
	br.RecordEach(errs)
	r.remember(j.Name, names, scores, errs)
	r.degraded(j, nodes, scores, errs)
	return scores, errs
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

// pairKey names a (job, node) pair by the two names themselves: a live
// score makes no key string, and the table holds none.
type pairKey struct{ job, node string }

// remember stores a batch's live scores for degraded replay, under one
// lock. Each pair is O(1): a new pair past the cap overwrites the oldest
// one's ring slot, no scan.
func (r *ResilientMetaScore) remember(job string, names []string, scores []float64, errs []error) {
	entry := staleScore{at: clock.Now(r.Clock)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pairs == nil {
		r.pairs = make(map[pairKey]staleScore)
		r.nodes = make(map[string]staleScore)
	}
	for i, node := range names {
		if errs[i] != nil {
			continue
		}
		entry.score = scores[i]
		key := pairKey{job, node}
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
}

// degraded serves the fallback chain to every node whose errs entry is
// set, in place: the cause is the live error, or errCircuitOpen when the
// breaker refused the batch. A node with no fallback keeps an error.
func (r *ResilientMetaScore) degraded(j api.QuantumJob, nodes []api.Node, scores []float64, errs []error) {
	if !slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
		return
	}
	r.announce()
	now := clock.Now(r.Clock)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range nodes {
		if errs[i] == nil {
			continue
		}
		if pair, ok := r.pairs[pairKey{j.Name, n.Name}]; ok && now.Sub(pair.at) <= maxStale {
			scores[i], errs[i] = pair.score, nil
		} else if node, ok := r.nodes[n.Name]; ok && now.Sub(node.at) <= maxStale {
			scores[i], errs[i] = node.score, nil
		} else if score, ok := heuristicScore(n); ok {
			scores[i], errs[i] = score, nil
		} else {
			errs[i] = fmt.Errorf("sched: no degraded score for %s on %s: %w", j.Name, n.Name, errs[i])
		}
	}
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

// nodeNames lists the nodes' names, which are their backends' names.
func nodeNames(nodes []api.Node) []string {
	names := make([]string, len(nodes))
	for i := range nodes {
		names[i] = nodes[i].Name
	}
	return names
}

// failEach is a batch of n outcomes that all failed with err.
func failEach(n int, err error) ([]float64, []error) {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return make([]float64, n), errs
}

var _ BatchScorePlugin = (*ResilientMetaScore)(nil)
