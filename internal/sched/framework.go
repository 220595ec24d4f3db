// Package sched implements the QRIO Scheduler (§3.5): a Kubernetes-style
// scheduling framework with pluggable Filter and Score stages. Filtering
// compares node labels against the job's requested characteristics
// (Fig. 10's experiment); ranking asks the Meta Server for a per-device
// score and binds the job to the lowest-scoring feasible node.
package sched

import (
	"fmt"
	"slices"
	"strings"

	"qrio/internal/cluster/api"
	"qrio/internal/par"
)

// FilterPlugin decides whether a node can host a job at all.
//
// Plugin contract (filters and scorers alike): the verdict is a function
// of job.Spec and the node — never of the job's name, UID or timestamps.
// Dispatch relies on it: jobs with byte-identical specs are
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

// BatchScorePlugin is a ScorePlugin that scores a rank's feasible nodes
// in one call; Rank finds it by interface assertion, and its verdicts
// must equal Score's node by node. scores[i] and errs[i] are nodes[i]'s
// outcome. The calls that need parallelism run under lim, the
// framework's bound on concurrent scoring.
type BatchScorePlugin interface {
	ScorePlugin
	ScoreEach(job api.QuantumJob, nodes []api.Node, lim par.Limit) ([]float64, []error)
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

// Framework runs the filter → score pipeline; Dispatch binds.
type Framework struct {
	Filters []FilterPlugin
	Scorer  ScorePlugin

	// scoring bounds the scoring calls of ALL Rank invocations sharing
	// this framework to GOMAXPROCS — a pass ranks many spec classes at
	// once, and without a shared bound the per-class fan-outs would
	// multiply into classes×nodes simultaneous simulations. NewFramework
	// sets it; a framework built as a literal bounds each Rank on its own.
	scoring par.Limit
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

// NewFramework assembles a framework.
func NewFramework(scorer ScorePlugin, filters ...FilterPlugin) *Framework {
	return &Framework{Filters: filters, Scorer: scorer, scoring: par.NewLimit(0)}
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
	slices.SortFunc(feasible, func(a, b api.Node) int { return strings.Compare(a.Name, b.Name) })
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

// Rank runs filtering and then scores every feasible node, returning
// candidates sorted best-first (score ascending, deterministic tie-break
// on node name). A BatchScorePlugin scores the whole rank in one call, so
// a rank whose scores are all cached starts no goroutine; only its work
// that needs it (Meta-Server misses) fans out. Any other scorer is called
// once per node, concurrently. Either way at most GOMAXPROCS scoring calls
// run at a time across the framework. Nodes whose scoring fails are
// skipped; only when every one fails is the first failure returned. This
// is the embedded scheduler's RankFunc: Dispatch walks the ranking until
// a node with headroom accepts the job.
func (f *Framework) Rank(job api.QuantumJob, nodes []api.Node) ([]NodeScore, error) {
	feasible, rejected := f.FilterNodes(job, nodes)
	if len(feasible) == 0 {
		return nil, &UnschedulableError{Job: job.Name, Rejected: rejected}
	}
	var scores []float64
	var errs []error
	switch sc := f.Scorer.(type) {
	case nil:
		// All-zero scores: the ranking degenerates to name order.
		scores, errs = make([]float64, len(feasible)), make([]error, len(feasible))
	case BatchScorePlugin:
		scores, errs = sc.ScoreEach(job, feasible, f.scoring)
	default:
		scores, errs = make([]float64, len(feasible)), make([]error, len(feasible))
		par.ForEach(len(feasible), f.scoring, func(i int) { scores[i], errs[i] = sc.Score(job, feasible[i]) })
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
	sortRanking(ranked)
	return ranked, nil
}

// sortRanking orders candidates best-first: score ascending (lower is
// better), ties broken by node name so every scheduler agrees.
func sortRanking(ranked []NodeScore) {
	slices.SortFunc(ranked, func(a, b NodeScore) int {
		if a.Score != b.Score {
			if a.Score < b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Node, b.Node)
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
