package kubelet

import (
	"qrio/internal/cluster/api"
	"qrio/internal/obs"
)

// Metrics is the node agents' instrumentation handle, one shared by every
// kubelet of a deployment. Nil (the default) costs one branch per finished
// job — kubelets built without a registry (tests, benches) pay nothing.
type Metrics struct {
	// The run histogram's children by outcome. It observes
	// StartedAt→FinishedAt, the stamps the kubelet already writes on the
	// job, at every job it brings to a terminal phase: the time the
	// simulated device — the node itself — held the job.
	succeeded, failed, cancelled *obs.Histogram
	// reconciles counts the kubelets' level-triggered passes, rounds the
	// heartbeat loop's: an idle agent reconciles once, at start, and the
	// loop wakes once per cadence for the whole fleet.
	reconciles, rounds *obs.Counter
}

// NewMetrics registers the kubelet family on a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	// A light circuit runs in a few milliseconds, a 16-qubit one in seconds:
	// the default latency buckets cover the range.
	run := r.Histogram("qrio_kubelet_run_duration_seconds",
		"Time from a kubelet's claim of a job to its terminal phase.", nil, "outcome")
	return &Metrics{
		succeeded: run.With("succeeded"),
		failed:    run.With("failed"),
		cancelled: run.With("cancelled"),
		reconciles: r.Counter("qrio_kubelet_reconciles_total",
			"Level-triggered passes the kubelets made: one at start, then one per wake of their node.").With(),
		rounds: r.Counter("qrio_kubelet_heartbeat_rounds_total",
			"Rounds of the heartbeat loop, each beating the node of every running kubelet.").With(),
	}
}

// reconciled counts a kubelet's pass.
func (m *Metrics) reconciled() {
	if m != nil {
		m.reconciles.Inc()
	}
}

// round counts a heartbeat loop round.
func (m *Metrics) round() {
	if m != nil {
		m.rounds.Inc()
	}
}

// observeRun records a job this kubelet just finished.
func (m *Metrics) observeRun(j api.QuantumJob) {
	if m == nil || j.Status.StartedAt == nil || j.Status.FinishedAt == nil {
		return
	}
	h := m.succeeded
	switch j.Status.Phase {
	case api.JobFailed:
		h = m.failed
	case api.JobCancelled:
		h = m.cancelled
	}
	h.Observe(j.Status.FinishedAt.Sub(*j.Status.StartedAt).Seconds())
}
