package state

import (
	"sync"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// scheduledIndex is the placed-by-node job order (node → Scheduled and
// Running jobs by (CreatedAt, name)), what those jobs hold of each node,
// and the wake channels it feeds: every job event wakes the scheduler, and
// every one that concerns a node wakes that node's kubelet, so each runs
// only when it has work, instead of polling or watching every job in the
// cluster.
type scheduledIndex struct {
	*jobOrder
	loadMu sync.Mutex
	load   map[string]nodeLoad // node name → sums over its placed jobs (addLoad)
	// schedWake is the scheduler's capacity-1 wake channel (SchedulerWake),
	// level-triggered like the kubelets' below.
	schedWake chan struct{}
	wakeMu    sync.Mutex
	// wake holds one capacity-1 channel per node whose kubelet asked for
	// one (NodeWake). The token is level-triggered — "something about your
	// node changed since you last looked" — so a poke that finds the
	// channel full is already covered by the token in it: nothing can be
	// dropped, however far behind the kubelet is.
	wake map[string]chan struct{}
}

// poke leaves a token in a capacity-1 wake channel unless one is there.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (x *scheduledIndex) onJobEvent(ev store.WatchEvent[api.QuantumJob]) {
	prev := x.jobOrder.onJobEvent(ev)
	// Account before waking anyone: a scheduler woken by a finish must
	// already see the slot free.
	now, _, ok := placedKey(&ev.Object)
	if !ok || ev.Type == store.Deleted {
		now = ""
	}
	if prev != now {
		x.loadMu.Lock()
		if prev != "" {
			addLoad(x.load, prev, &ev.Object, -1)
		}
		if now != "" {
			addLoad(x.load, now, &ev.Object, 1)
		}
		x.loadMu.Unlock()
	}
	poke(x.schedWake)
	if ev.Type == store.Deleted {
		return // archival of a finished job: nothing for a kubelet to do
	}
	// Bind, claim, cancel request, terminal phase, unbind: the node the
	// job sits on — and the one it just left — has something to look at.
	x.wakeMu.Lock()
	defer x.wakeMu.Unlock()
	x.pokeLocked(ev.Object.Status.Node)
	if prev != ev.Object.Status.Node {
		x.pokeLocked(prev)
	}
}

// nodeLoad is what the jobs placed on one node hold of it.
type nodeLoad struct {
	jobs     int
	cpu, mem int64
}

// addLoad moves a job's request onto (sign 1) or off (sign -1) a node's
// sums: an exact increment and decrement, since a job's spec never
// changes after submission. The sums are keyed by node name, not by
// node-table entry: a job placed on a node that was deleted, or deleted
// and registered again, still counts there until it leaves.
func addLoad(load map[string]nodeLoad, node string, j *api.QuantumJob, sign int) {
	n := load[node]
	n.jobs += sign
	n.cpu += int64(sign) * j.Spec.Resources.CPUMillis
	n.mem += int64(sign) * j.Spec.Resources.MemoryMB
	load[node] = n
	if n.jobs == 0 {
		delete(load, node)
	}
}

// overlay overwrites each node's reservations — a value a replayed record
// carries in included — with its sums and its placed-by-node group. A node
// that holds no job costs no allocation.
func (x *scheduledIndex) overlay(nodes []api.Node) {
	var busy []int
	x.loadMu.Lock()
	for i := range nodes {
		s, l := &nodes[i].Status, x.load[nodes[i].Name]
		s.RunningJobs, s.CPUMillisInUse, s.MemoryMBInUse = nil, l.cpu, l.mem
		if l.jobs > 0 {
			busy = append(busy, i)
		}
	}
	x.loadMu.Unlock()
	for _, i := range busy {
		nodes[i].Status.RunningJobs = x.group(nodes[i].Name, nil)
	}
}

// pokeLocked leaves a wake token for the node's kubelet, if one listens.
func (x *scheduledIndex) pokeLocked(node string) {
	if ch, ok := x.wake[node]; ok {
		poke(ch)
	}
}

// SchedulerWake returns the scheduler's wake channel. It receives a token
// after every job event; a token that finds the channel full is covered by
// the one already in it. It has one consumer, the scheduler's loop; the
// channel exists from New, so it may hold a token from before the loop.
func (c *Cluster) SchedulerWake() <-chan struct{} { return c.scheduled.schedWake }

// ControllerWake returns the controller's wake channel. It receives a
// token when a job enters Failed and when a node joins, leaves or changes
// phase — the edges the controller's retry and stranded-job rules act on;
// heartbeats leave none. Like SchedulerWake it has one consumer and may
// hold a token from before its loop started.
func (c *Cluster) ControllerWake() <-chan struct{} { return c.ctlWake }

// NodeWake returns the node's wake channel, creating it on first use. It
// receives a token after any job event whose Status.Node is — or, for a
// Scheduled job, just was — this node. The consumer (the node's kubelet)
// must reconcile once after calling NodeWake: events before the channel
// existed left no token.
func (c *Cluster) NodeWake(node string) <-chan struct{} {
	c.scheduled.wakeMu.Lock()
	defer c.scheduled.wakeMu.Unlock()
	ch, ok := c.scheduled.wake[node]
	if !ok {
		ch = make(chan struct{}, 1)
		c.scheduled.wake[node] = ch
	}
	return ch
}

// WakeNode leaves a wake token for the node's kubelet. The kubelet itself
// calls it when a container exits: the job's terminal event fires before
// the kubelet's slot is free, so that event's token alone could be spent
// on a launch that still sees the slot taken.
func (c *Cluster) WakeNode(node string) {
	c.scheduled.wakeMu.Lock()
	defer c.scheduled.wakeMu.Unlock()
	c.scheduled.pokeLocked(node)
}

// ScheduledJobs returns copies of the jobs currently Scheduled onto one
// node, oldest first (ties broken by name) — the launch order kubelets
// want. O(jobs on this node), not O(jobs in the cluster).
func (c *Cluster) ScheduledJobs(node string) []api.QuantumJob {
	return c.jobsNamed(c.scheduled.group(node, nil), func(j *api.QuantumJob) bool {
		return j.Status.Phase == api.JobScheduled && j.Status.Node == node
	})
}

// PlacedJobs returns copies of the jobs holding one node — Scheduled or
// Running on it — oldest first. O(jobs on this node).
func (c *Cluster) PlacedJobs(node string) []api.QuantumJob {
	return c.jobsNamed(c.scheduled.group(node, nil), func(j *api.QuantumJob) bool {
		return placed(j) && j.Status.Node == node
	})
}

// StrandedNodes names the nodes that hold placed jobs but are not Ready
// or no longer registered. O(nodes holding jobs); no job is read.
func (c *Cluster) StrandedNodes() []string {
	held := c.scheduled.groupNames()
	c.fleet.mu.Lock()
	defer c.fleet.mu.Unlock()
	out := held[:0]
	for _, n := range held {
		if e := c.fleet.entries[n]; e == nil || e.node.Status.Phase != api.NodeReady {
			out = append(out, n)
		}
	}
	return out
}

// FailedJobs returns copies of the Failed jobs keep accepts, oldest
// failure first; rejected jobs are not copied. O(failed jobs resident).
func (c *Cluster) FailedJobs(keep func(*api.QuantumJob) bool) []api.QuantumJob {
	return c.jobsNamed(c.failed.group("", nil), func(j *api.QuantumJob) bool {
		return j.Status.Phase == api.JobFailed && keep(j)
	})
}
