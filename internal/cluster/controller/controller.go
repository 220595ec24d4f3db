// Package controller implements the job lifecycle controller: the
// reconciliation loop that gives QRIO the self-healing Kubernetes
// properties the paper claims (§3.1 — "QRIO can self-restart nodes and
// jobs if they are down"). It requeues jobs stranded on dead nodes,
// retries failed jobs up to a budget, marks stale nodes NotReady, and
// garbage-collects old events.
package controller

import (
	"container/heap"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// Controller reconciles cluster state.
type Controller struct {
	State *state.Cluster
	// MaxRetries bounds automatic retries of failed jobs (default 2).
	MaxRetries int
	// NodeTimeout marks nodes NotReady when heartbeats stop (default 2s).
	NodeTimeout time.Duration
	// StuckTimeout requeues Scheduled/Running jobs whose node vanished or
	// went NotReady for this long (default 5s).
	StuckTimeout time.Duration
	// MaxEvents caps the event log (default 2048).
	MaxEvents int
	// Retention bounds how long terminal jobs stay resident in the hot
	// store before the sweep moves them (with their event trails) to the
	// archive tier. The zero policy keeps everything resident — the
	// pre-archive behaviour.
	Retention state.RetentionPolicy
	// Clock is the controller's time source — injectable for tests and
	// the virtual-time simulator. Nil means the wall clock.
	Clock clock.Clock
}

// New builds a controller with defaults.
func New(st *state.Cluster) *Controller {
	return &Controller{
		State:        st,
		MaxRetries:   2,
		NodeTimeout:  2 * time.Second,
		StuckTimeout: 5 * time.Second,
		MaxEvents:    2048,
		Clock:        clock.Real{},
	}
}

// Run reconciles every 100 ms until the context is cancelled.
func (c *Controller) Run(ctx context.Context) {
	const reconcileEvery = 100 * time.Millisecond
	tick := time.NewTicker(reconcileEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.ReconcileOnce()
		}
	}
}

// ReconcileOnce runs one pass of every reconciliation rule. The archive
// sweep runs after the retry rule so a Failed job with retry budget left
// is resurrected before it can age out (a sweep racing the retry anyway
// resolves safely: the conditional delete loses to any phase change).
func (c *Controller) ReconcileOnce() {
	now := c.clock()
	c.markStaleNodes(now)
	c.requeueStrandedJobs(now)
	c.retryFailedJobs()
	c.State.ArchiveTerminal(now, c.Retention)
	c.gcEvents()
}

func (c *Controller) clock() time.Time { return clock.Now(c.Clock) }

// markStaleNodes flips nodes whose heartbeat stopped to NotReady. Phase and
// liveness are read from the state layer's node table; the store — and
// with it the WAL and every node watch stream — sees only the transition.
func (c *Controller) markStaleNodes(now time.Time) {
	timeout := c.NodeTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	// silentSince reports the node's last sign of life and whether that is
	// more than the timeout ago.
	silentSince := func(name string) (time.Time, bool) {
		last, ok := c.State.LastHeartbeat(name)
		return last, ok && now.Sub(last) > timeout
	}
	nodes, _ := c.State.Fleet()
	for _, n := range nodes {
		name := n.Name
		if _, silent := silentSince(name); !silent || n.Status.Phase != api.NodeReady {
			continue
		}
		_, _, err := c.State.Nodes.Update(name, func(n api.Node) (api.Node, error) {
			// Re-checked under the node's lock: a heartbeat that landed
			// since the scan wins.
			last, silent := silentSince(name)
			if !silent || n.Status.Phase != api.NodeReady {
				return n, fmt.Errorf("controller: node %s no longer stale", name)
			}
			n.Status.Phase = api.NodeNotReady
			n.Status.LastHeartbeat = last // journal when it was last heard from
			return n, nil
		})
		if err == nil {
			c.State.RecordEvent("Node", name, "HeartbeatLost", "marking node NotReady")
		}
	}
}

// requeueStrandedJobs resets Scheduled/Running jobs whose node is gone or
// NotReady back to Pending so the scheduler can place them elsewhere.
func (c *Controller) requeueStrandedJobs(now time.Time) {
	assigned := c.State.Jobs.ListFunc(func(j api.QuantumJob) bool {
		return j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning
	})
	for _, j := range assigned {
		c.requeueIfStranded(j, now)
	}
}

// requeueIfStranded applies the stranded-job rule to one listed job. The
// snapshot may be stale — a kubelet finished the job, a user cancelled it —
// in which case the requeue event no longer applies and nothing happens.
func (c *Controller) requeueIfStranded(j api.QuantumJob, now time.Time) {
	stuck := c.StuckTimeout
	if stuck <= 0 {
		stuck = 5 * time.Second
	}
	nodeName := j.Status.Node
	ready := false
	c.State.Nodes.Peek(nodeName, func(n api.Node, _ int64) { ready = n.Status.Phase == api.NodeReady })
	if ready {
		return
	}
	// Grace period: the node may just be flapping.
	ref := j.CreatedAt
	if j.Status.StartedAt != nil {
		ref = *j.Status.StartedAt
	}
	if now.Sub(ref) < stuck {
		return
	}
	// A running job whose user asked for cancellation is finalised instead
	// of resurrected (the lifecycle table's requeue rule): the kubelet that
	// would abort its container is gone.
	c.State.TransitionJob(j.Name, api.JobEventRequeue, state.Transition{
		Node:    nodeName,
		Message: fmt.Sprintf("node %s unavailable", nodeName),
	})
}

// WillRetry reports whether the next reconcile sends this job back to
// Pending: it failed and retry budget remains.
func (c *Controller) WillRetry(j api.QuantumJob) bool {
	return j.Status.Phase == api.JobFailed && j.Status.Attempts <= max(c.MaxRetries, 0)
}

// retryFailedJobs sends failed jobs back to Pending while retry budget
// remains.
func (c *Controller) retryFailedJobs() {
	for _, j := range c.State.Jobs.ListFunc(c.WillRetry) {
		c.retry(j)
	}
}

// retry fires the retry event at one listed job; a stale snapshot (the
// job is no longer Failed) changes and records nothing.
func (c *Controller) retry(j api.QuantumJob) {
	c.State.TransitionJob(j.Name, api.JobEventRetry, state.Transition{
		Detail: fmt.Sprintf("attempt %d of %d", j.Status.Attempts+1, max(c.MaxRetries, 0)+1),
	})
}

// gcEvents trims the event log to MaxEvents, dropping the oldest by
// (Time, creation sequence). Once the log is full this runs every pass to
// drop the few events recorded since, so it walks the log in place and
// keeps only the k oldest in a bounded heap: the log is neither listed
// (a deep copy) nor sorted.
func (c *Controller) gcEvents() {
	cap := c.MaxEvents
	if cap <= 0 {
		cap = 2048
	}
	k := c.State.Events.Len() - cap
	if k <= 0 {
		return
	}
	oldest := make(eventHeap, 0, k)
	c.State.Events.Range(func(e api.Event, _ int64) bool {
		key := eventKey{e.Time, e.Name}
		if len(oldest) < k {
			heap.Push(&oldest, key)
		} else if key.before(oldest[0]) {
			oldest[0] = key
			heap.Fix(&oldest, 0)
		}
		return true
	})
	for _, e := range oldest {
		c.State.Events.Delete(e.name)
	}
}

// eventKey orders events for trimming: by time, then by the sequence number
// their name was minted with, so events recorded within one clock tick go
// in creation order.
type eventKey struct {
	time time.Time
	name string
}

func (a eventKey) before(b eventKey) bool {
	if a.time.Equal(b.time) {
		return eventSeq(a.name) < eventSeq(b.name)
	}
	return a.time.Before(b.time)
}

// eventSeq reads the counter out of an event's name. State.NextUID mints
// every one as "event-<n>", so the parse cannot fail.
func eventSeq(name string) int64 {
	n, _ := strconv.ParseInt(name[strings.LastIndexByte(name, '-')+1:], 10, 64)
	return n
}

// eventHeap is a max-heap: its root is the newest of the events kept.
type eventHeap []eventKey

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[j].before(h[i]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(eventKey)) }
func (h *eventHeap) Pop() any {
	x := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return x
}
