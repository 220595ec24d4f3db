// Package controller implements the job lifecycle controller: the
// reconciliation loop that gives QRIO the self-healing Kubernetes
// properties the paper claims (§3.1 — "QRIO can self-restart nodes and
// jobs if they are down"). It requeues jobs stranded on dead nodes,
// retries failed jobs up to a budget, marks stale nodes NotReady, archives
// terminal jobs past retention and garbage-collects old events. It sleeps
// until one of those can be due: each pass reads the state's hook-fed
// indexes (the node table, the placed and failed job orders), never a
// listing of every job.
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
	"qrio/internal/obs"
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
	// Metrics is the optional instrumentation handle (nil = no metrics).
	// Set once at wiring time, before Run.
	Metrics *Metrics
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

// Metrics is the controller's instrumentation handle. Nil (the default)
// costs one branch per pass and per action: controllers built without a
// registry (the simulator, tests) pay nothing.
type Metrics struct{ passes, actions *obs.CounterVec }

// NewMetrics registers the controller families on a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		passes: r.Counter("qrio_controller_passes_total",
			"Controller passes, by what started them: start, wake, deadline or backstop.", "cause"),
		actions: r.Counter("qrio_controller_actions_total",
			"Objects the controller changed, by rule: stale, requeue, retry, archive or event_gc.", "rule"),
	}
}

func (m *Metrics) pass(cause string) {
	if m != nil {
		m.passes.With(cause).Inc()
	}
}

func (m *Metrics) act(rule string, n int) {
	if m != nil && n > 0 {
		m.actions.With(rule).Add(uint64(n))
	}
}

// backstop is the longest Run sleeps: a level-triggered pass for what no
// edge or deadline announces — the event cap, count retention, a write
// that raced the last pass.
const backstop = time.Second

// Run reconciles once at start, then sleeps until the state wakes it (a
// job entered Failed; a node joined, left or changed phase — see
// state.ControllerWake), until the earliest deadline the last pass found
// (a heartbeat expiry, a stranded job's grace end, a retention age), or
// for one backstop at most, and reconciles again. It returns when the
// context is cancelled.
func (c *Controller) Run(ctx context.Context) {
	wake := c.State.ControllerWake()
	select {
	case <-wake: // left before the loop started: the first pass covers it
	default:
	}
	timer := time.NewTimer(backstop)
	defer timer.Stop()
	cause := "start"
	for {
		c.Metrics.pass(cause)
		sleep, timed := backstop, "backstop"
		if next := c.reconcile(c.clock()); !next.IsZero() {
			if d := next.Sub(c.clock()); d < backstop {
				// A deadline due now still waits a moment: the rules
				// compare strictly, so a pass at that instant does nothing.
				sleep, timed = max(d, time.Millisecond), "deadline"
			}
		}
		timer.Reset(sleep)
		select {
		case <-ctx.Done():
			return
		case <-wake:
			cause = "wake"
		case <-timer.C:
			cause = timed
		}
	}
}

// ReconcileOnce runs one pass of every reconciliation rule.
func (c *Controller) ReconcileOnce() { c.reconcile(c.clock()) }

// reconcile runs one pass of every rule and returns the earliest instant
// a timed rule can next act (zero when none is pending). The archive sweep
// runs after the retry rule so a Failed job with retry budget left is
// resurrected before it can age out (a sweep racing the retry anyway
// resolves safely: the conditional delete loses to any phase change).
func (c *Controller) reconcile(now time.Time) time.Time {
	next := earliest(c.markStaleNodes(now), c.requeueStrandedJobs(now))
	c.retryFailedJobs()
	c.Metrics.act("archive", c.State.ArchiveTerminal(now, c.Retention))
	if oldest, ok := c.State.OldestTerminal(); ok && c.Retention.MaxTerminalAge > 0 {
		next = earliest(next, oldest.Add(c.Retention.MaxTerminalAge))
	}
	c.gcEvents()
	return next
}

// earliest returns the earlier of two deadlines, zero meaning none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

func (c *Controller) clock() time.Time { return clock.Now(c.Clock) }

// markStaleNodes flips nodes whose heartbeat stopped to NotReady and
// returns the next heartbeat expiry among the Ready nodes left. Phase and
// liveness are read from the state layer's node table; the store — and
// with it the WAL and every node watch stream — sees only the transition.
func (c *Controller) markStaleNodes(now time.Time) time.Time {
	timeout := c.NodeTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	silent, next := c.State.SilentNodes(now, timeout)
	for _, name := range silent {
		_, _, err := c.State.Nodes.Update(name, func(n api.Node) (api.Node, error) {
			// Re-checked under the node's lock: a heartbeat that landed
			// since the scan wins.
			last, ok := c.State.LastHeartbeat(name)
			if !ok || now.Sub(last) <= timeout || n.Status.Phase != api.NodeReady {
				return n, fmt.Errorf("controller: node %s no longer stale", name)
			}
			n.Status.Phase = api.NodeNotReady
			n.Status.LastHeartbeat = last // journal when it was last heard from
			return n, nil
		})
		if err == nil {
			c.State.RecordEvent("Node", name, "HeartbeatLost", "marking node NotReady")
			c.Metrics.act("stale", 1)
		}
	}
	return next
}

// requeueStrandedJobs resets Scheduled/Running jobs whose node is gone or
// NotReady back to Pending so the scheduler can place them elsewhere, and
// returns the earliest grace end still ahead. Only the jobs placed on
// such nodes are read.
func (c *Controller) requeueStrandedJobs(now time.Time) (next time.Time) {
	for _, node := range c.State.StrandedNodes() {
		for _, j := range c.State.PlacedJobs(node) {
			next = earliest(next, c.requeueIfStranded(j, now))
		}
	}
	return next
}

// requeueIfStranded applies the stranded-job rule to one read job and
// returns its grace end while that is still ahead (zero otherwise). The
// copy may be stale — a kubelet finished the job, a user cancelled it —
// in which case the requeue event no longer applies and nothing happens.
func (c *Controller) requeueIfStranded(j api.QuantumJob, now time.Time) time.Time {
	stuck := c.StuckTimeout
	if stuck <= 0 {
		stuck = 5 * time.Second
	}
	nodeName := j.Status.Node
	ready := false
	c.State.Nodes.Peek(nodeName, func(n api.Node, _ int64) { ready = n.Status.Phase == api.NodeReady })
	if ready {
		return time.Time{}
	}
	// Grace period: the node may just be flapping.
	ref := j.CreatedAt
	if j.Status.StartedAt != nil {
		ref = *j.Status.StartedAt
	}
	if due := ref.Add(stuck); now.Before(due) {
		return due
	}
	// A running job whose user asked for cancellation is finalised instead
	// of resurrected (the lifecycle table's requeue rule): the kubelet that
	// would abort its container is gone.
	_, err := c.State.TransitionJob(j.Name, api.JobEventRequeue, state.Transition{
		Node:    nodeName,
		Message: fmt.Sprintf("node %s unavailable", nodeName),
	})
	if err == nil {
		c.Metrics.act("requeue", 1)
	}
	return time.Time{}
}

// WillRetry reports whether the next reconcile sends this job back to
// Pending: it failed and retry budget remains.
func (c *Controller) WillRetry(j api.QuantumJob) bool {
	return j.Status.Phase == api.JobFailed && j.Status.Attempts <= max(c.MaxRetries, 0)
}

// retryFailedJobs sends failed jobs back to Pending while retry budget
// remains.
func (c *Controller) retryFailedJobs() {
	for _, j := range c.State.FailedJobs(func(j *api.QuantumJob) bool { return c.WillRetry(*j) }) {
		c.retry(j)
	}
}

// retry fires the retry event at one read job; a stale copy (the job is
// no longer Failed) changes and records nothing.
func (c *Controller) retry(j api.QuantumJob) {
	_, err := c.State.TransitionJob(j.Name, api.JobEventRetry, state.Transition{
		Detail: fmt.Sprintf("attempt %d of %d", j.Status.Attempts+1, max(c.MaxRetries, 0)+1),
	})
	if err == nil {
		c.Metrics.act("retry", 1)
	}
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
	c.Metrics.act("event_gc", len(oldest))
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
