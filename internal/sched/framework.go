// Package sched implements the QRIO Scheduler (§3.5): a Kubernetes-style
// scheduling framework with pluggable Filter and Score stages. Filtering
// compares node labels against the job's requested characteristics
// (Fig. 10's experiment); ranking asks the Meta Server for a per-device
// score and binds the job to the lowest-scoring feasible node.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"qrio/internal/cluster/api"
)

// FilterPlugin decides whether a node can host a job at all.
//
// Plugin contract (filters and scorers alike): the verdict is a function
// of job.Spec and the node — never of the job's name, UID or timestamps.
// Batched dispatch relies on it: jobs with byte-identical specs are
// ranked once per pass and share the result (see Dispatch). A plugin may
// pass job.Name to a service that resolves it back to the spec, as
// MetaScore does — identical specs have identical circuits.
type FilterPlugin interface {
	Name() string
	// Filter returns ok=false with a human-readable reason.
	Filter(job api.QuantumJob, node api.Node) (bool, string)
}

// ScorePlugin ranks a feasible node for a job; lower scores are better
// (QRIO's convention — the Meta Server returns costs/fidelity misses).
// The FilterPlugin contract applies.
type ScorePlugin interface {
	Name() string
	Score(job api.QuantumJob, node api.Node) (float64, error)
}

// StaticPlugin is the marker a filter or scorer carries when its verdict
// reads nothing but job.Spec and the node's registration-time identity
// (name, labels) — no Status, no load, no outside service. When every
// plugin of a chain carries it the chain is static: a spec's ranking can
// only change when a node joins or leaves, so the scheduler keeps
// rankings across passes until then. QubitCount and Characteristics are
// static; NodeReady, ResourceFit and the Meta-Server scorers are not, so
// a chain containing any of them re-ranks every pass.
type StaticPlugin interface {
	Static()
}

// NodeScore pairs a node with its score.
type NodeScore struct {
	Node  string
	Score float64
}

// Picker chooses the target node among feasible candidates. score lazily
// evaluates a node (so baselines that ignore scores don't pay for them).
type Picker interface {
	Name() string
	Pick(job api.QuantumJob, feasible []api.Node, score func(api.Node) (float64, error)) (NodeScore, error)
}

// Framework runs the filter → score → pick pipeline.
type Framework struct {
	Filters []FilterPlugin
	Scorer  ScorePlugin
	Picker  Picker
	// ScoreParallelism bounds concurrent Score calls across ALL Rank
	// invocations sharing this framework — the batched scheduler ranks
	// many jobs at once, and without a global bound the per-job pools
	// would multiply into jobs×workers simultaneous simulations. 0 means
	// GOMAXPROCS; 1 scores serially. Set it before the first Rank call.
	// Select always scores serially, preserving the paper's behaviour.
	ScoreParallelism int

	semOnce  sync.Once
	scoreSem chan struct{}
}

// scoreSlots returns the framework-wide scoring semaphore, sized on first
// use from ScoreParallelism.
func (f *Framework) scoreSlots() chan struct{} {
	f.semOnce.Do(func() {
		n := f.ScoreParallelism
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		f.scoreSem = make(chan struct{}, n)
	})
	return f.scoreSem
}

// static reports whether every plugin in the chain is a StaticPlugin (a
// nil Scorer ranks by node name, which is static too).
func (f *Framework) static() bool {
	for _, p := range f.Filters {
		if _, ok := p.(StaticPlugin); !ok {
			return false
		}
	}
	_, ok := f.Scorer.(StaticPlugin)
	return ok || f.Scorer == nil
}

// NewFramework assembles a framework with the default lowest-score picker.
func NewFramework(scorer ScorePlugin, filters ...FilterPlugin) *Framework {
	return &Framework{Filters: filters, Scorer: scorer, Picker: LowestScore{}}
}

// FilterNodes returns the feasible nodes and, for the rest, the reason the
// first failing plugin gave.
func (f *Framework) FilterNodes(job api.QuantumJob, nodes []api.Node) ([]api.Node, map[string]string) {
	feasible := make([]api.Node, 0, len(nodes))
	rejected := make(map[string]string)
	for _, n := range nodes {
		if why := f.Reject(job, n); why != "" {
			rejected[n.Name] = why
		} else {
			feasible = append(feasible, n)
		}
	}
	sort.Slice(feasible, func(i, j int) bool { return feasible[i].Name < feasible[j].Name })
	return feasible, rejected
}

// Reject returns the reason the first failing plugin gives for node n, or
// "" when n passes every filter.
func (f *Framework) Reject(job api.QuantumJob, n api.Node) string {
	for _, p := range f.Filters {
		if pass, reason := p.Filter(job, n); !pass {
			return fmt.Sprintf("%s: %s", p.Name(), reason)
		}
	}
	return ""
}

// Select runs the full pipeline and returns the chosen node.
func (f *Framework) Select(job api.QuantumJob, nodes []api.Node) (NodeScore, error) {
	feasible, rejected := f.FilterNodes(job, nodes)
	if len(feasible) == 0 {
		return NodeScore{}, &UnschedulableError{Job: job.Name, Rejected: rejected}
	}
	picker := f.Picker
	if picker == nil {
		picker = LowestScore{}
	}
	scoreFn := func(n api.Node) (float64, error) {
		if f.Scorer == nil {
			return 0, nil
		}
		return f.Scorer.Score(job, n)
	}
	return picker.Pick(job, feasible, scoreFn)
}

// Rank runs filtering and then scores every feasible node — concurrently,
// bounded by ScoreParallelism — returning candidates sorted best-first
// (score ascending, deterministic tie-break on node name). Nodes whose
// scoring fails are skipped, like LowestScore does. This is the embedded
// scheduler's RankFunc: Dispatch walks the ranking until a node with
// headroom accepts the job.
func (f *Framework) Rank(job api.QuantumJob, nodes []api.Node) ([]NodeScore, error) {
	feasible, rejected := f.FilterNodes(job, nodes)
	if len(feasible) == 0 {
		return nil, &UnschedulableError{Job: job.Name, Rejected: rejected}
	}
	scores := make([]float64, len(feasible))
	errs := make([]error, len(feasible))
	if f.Scorer == nil {
		// All-zero scores: the ranking degenerates to name order.
	} else {
		sem := f.scoreSlots()
		var wg sync.WaitGroup
		for i := range feasible {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				scores[i], errs[i] = f.Scorer.Score(job, feasible[i])
			}(i)
		}
		wg.Wait()
	}
	ranked := make([]NodeScore, 0, len(feasible))
	var firstErr error
	for i, n := range feasible {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("sched: scoring %s for %s: %w", n.Name, job.Name, errs[i])
			}
			continue
		}
		ranked = append(ranked, NodeScore{Node: n.Name, Score: scores[i]})
	}
	if len(ranked) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("sched: no nodes scored for %s", job.Name)
	}
	SortRanking(ranked)
	return ranked, nil
}

// SortRanking orders candidates best-first: score ascending (lower is
// better), ties broken by node name so every scheduler agrees.
func SortRanking(ranked []NodeScore) {
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score < ranked[j].Score
		}
		return ranked[i].Node < ranked[j].Node
	})
}

// UnschedulableError reports that no node passed filtering — the paper's
// "the user's job is not fit for scheduling in the cluster" outcome.
type UnschedulableError struct {
	Job      string
	Rejected map[string]string
}

func (e *UnschedulableError) Error() string {
	return fmt.Sprintf("sched: job %s unschedulable (%d nodes rejected)", e.Job, len(e.Rejected))
}

// HTTPStatus implements httpx.StatusCoder: unschedulable jobs map to 422
// with the "unschedulable" envelope code.
func (e *UnschedulableError) HTTPStatus() (int, string) { return 422, "unschedulable" }

// LowestScore scores every feasible node and picks the minimum
// (deterministic tie-break on name) — QRIO's default ranking behaviour.
type LowestScore struct{}

// Name implements Picker.
func (LowestScore) Name() string { return "LowestScore" }

// Pick implements Picker.
func (LowestScore) Pick(job api.QuantumJob, feasible []api.Node, score func(api.Node) (float64, error)) (NodeScore, error) {
	best := NodeScore{Score: math.Inf(1)}
	var firstErr error
	scored := 0
	for _, n := range feasible {
		s, err := score(n)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("sched: scoring %s for %s: %w", n.Name, job.Name, err)
			}
			continue
		}
		scored++
		if s < best.Score || (s == best.Score && n.Name < best.Node) {
			best = NodeScore{Node: n.Name, Score: s}
		}
	}
	if scored == 0 {
		if firstErr != nil {
			return NodeScore{}, firstErr
		}
		return NodeScore{}, fmt.Errorf("sched: no nodes scored for %s", job.Name)
	}
	return best, nil
}

// RandomPicker is the paper's baseline scheduler (§4.2): it picks a
// feasible node uniformly at random, then reports that node's score so
// experiments can compare against QRIO's choice.
type RandomPicker struct {
	Rng *rand.Rand
	// SkipScore leaves Score as NaN instead of evaluating the choice.
	SkipScore bool
}

// Name implements Picker.
func (p *RandomPicker) Name() string { return "Random" }

// Pick implements Picker.
func (p *RandomPicker) Pick(job api.QuantumJob, feasible []api.Node, score func(api.Node) (float64, error)) (NodeScore, error) {
	if len(feasible) == 0 {
		return NodeScore{}, fmt.Errorf("sched: random picker has no candidates")
	}
	n := feasible[p.Rng.Intn(len(feasible))]
	if p.SkipScore {
		return NodeScore{Node: n.Name, Score: math.NaN()}, nil
	}
	s, err := score(n)
	if err != nil {
		return NodeScore{Node: n.Name, Score: math.NaN()}, nil
	}
	return NodeScore{Node: n.Name, Score: s}, nil
}
