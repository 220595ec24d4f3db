package state

import (
	"sort"
	"sync"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// scheduledIndex maintains, per node, the set of jobs currently bound to
// it in the Scheduled phase, and wakes the node's kubelet whenever a job
// event concerns that node — so a kubelet runs only when it has work,
// instead of polling or watching every job in the cluster. Fed by a store
// hook (and therefore rebuilt automatically by WAL replay).
type scheduledIndex struct {
	mu     sync.Mutex
	byNode map[string]map[string]api.QuantumJob // node → job name → job
	node   map[string]string                    // job name → node (reverse)
	// wake holds one capacity-1 channel per node whose kubelet asked for
	// one (NodeWake). The token is level-triggered — "something about your
	// node changed since you last looked" — so a poke that finds the
	// channel full is already covered by the token in it: nothing can be
	// dropped, however far behind the kubelet is.
	wake map[string]chan struct{}
}

func (x *scheduledIndex) onJobEvent(ev store.WatchEvent[api.QuantumJob]) {
	j := ev.Object
	x.mu.Lock()
	defer x.mu.Unlock()
	prev, indexed := x.node[j.Name]
	if indexed {
		delete(x.byNode[prev], j.Name)
		if len(x.byNode[prev]) == 0 {
			delete(x.byNode, prev)
		}
		delete(x.node, j.Name)
	}
	if ev.Type == store.Deleted {
		return // archival of a finished job: nothing for a kubelet to do
	}
	// Bind, claim, cancel request, terminal phase, unbind: the node the
	// job sits on — and the one it just left — has something to look at.
	x.pokeLocked(j.Status.Node)
	if prev != j.Status.Node {
		x.pokeLocked(prev)
	}
	if j.Status.Phase != api.JobScheduled || j.Status.Node == "" {
		return
	}
	m := x.byNode[j.Status.Node]
	if m == nil {
		m = make(map[string]api.QuantumJob)
		x.byNode[j.Status.Node] = m
	}
	m[j.Name] = j // the hook's private copy; retained, never mutated
	x.node[j.Name] = j.Status.Node
}

// pokeLocked leaves a wake token for the node's kubelet, if one listens.
func (x *scheduledIndex) pokeLocked(node string) {
	if ch, ok := x.wake[node]; ok {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// NodeWake returns the node's wake channel, creating it on first use. It
// receives a token after any job event whose Status.Node is — or, for a
// Scheduled job, just was — this node. The consumer (the node's kubelet)
// must reconcile once after calling NodeWake: events before the channel
// existed left no token.
func (c *Cluster) NodeWake(node string) <-chan struct{} {
	c.scheduled.mu.Lock()
	defer c.scheduled.mu.Unlock()
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
	c.scheduled.mu.Lock()
	defer c.scheduled.mu.Unlock()
	c.scheduled.pokeLocked(node)
}

// ScheduledJobs returns deep copies of the jobs currently Scheduled onto
// one node, oldest first (ties broken by name) — the launch order kubelets
// want. O(jobs on this node), not O(jobs in the cluster).
func (c *Cluster) ScheduledJobs(node string) []api.QuantumJob {
	c.scheduled.mu.Lock()
	m := c.scheduled.byNode[node]
	out := make([]api.QuantumJob, 0, len(m))
	for _, j := range m {
		out = append(out, j.DeepCopy())
	}
	c.scheduled.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].CreatedAt.Equal(out[b].CreatedAt) {
			return out[a].CreatedAt.Before(out[b].CreatedAt)
		}
		return out[a].Name < out[b].Name
	})
	return out
}
