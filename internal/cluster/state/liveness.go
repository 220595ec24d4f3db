package state

import (
	"fmt"
	"sync"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// nodeLiveness is the volatile last-heartbeat table — the role Lease
// objects play under Kubernetes. Heartbeats land here and nowhere else: no
// store write, no WAL record, no watch event. Only the Ready↔NotReady
// transitions a heartbeat (or its absence) causes go through Nodes.Update.
//
// The table is fed by a Nodes store hook, so it holds exactly the
// registered nodes: an Added event (registration, snapshot restore, WAL
// replay) seeds the entry "alive as of now" — a restarted daemon gives
// every node one NodeTimeout of grace instead of trusting a pre-crash
// timestamp — and a Deleted event drops it, so a re-registered node never
// inherits its predecessor's entry.
type nodeLiveness struct {
	mu   sync.Mutex
	last map[string]time.Time
}

// onNodeEvent runs under the node's shard lock (lock order store→table).
// A stored Status.LastHeartbeat newer than the entry wins, which is how
// RefreshNode — and any writer that stamps the field through the store —
// refreshes liveness without a second code path.
func (c *Cluster) onNodeEvent(ev store.WatchEvent[api.Node]) {
	l := &c.liveness
	name := ev.Object.Name
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Type == store.Deleted {
		delete(l.last, name)
		return
	}
	last, ok := l.last[name]
	if !ok {
		last = c.now()
	}
	if stamped := ev.Object.Status.LastHeartbeat; stamped.After(last) {
		last = stamped
	}
	l.last[name] = last
}

// Heartbeat records that the node's agent was alive at now. A heartbeat
// for an unregistered node is dropped (a kubelet outliving its node must
// not resurrect an entry). The only heartbeat that reaches the store is
// the one that finds its node NotReady: it journals the transition back
// to Ready.
func (c *Cluster) Heartbeat(node string, now time.Time) {
	notReady := false
	// The table write sits inside Peek — under the shard read lock — so it
	// cannot interleave with a delete of the same node (whose hook drops
	// the entry under the write lock).
	c.Nodes.Peek(node, func(n api.Node, _ int64) {
		notReady = n.Status.Phase == api.NodeNotReady
		c.liveness.mu.Lock()
		if now.After(c.liveness.last[node]) {
			c.liveness.last[node] = now
		}
		c.liveness.mu.Unlock()
	})
	if !notReady {
		return
	}
	c.Nodes.Update(node, func(n api.Node) (api.Node, error) {
		if n.Status.Phase != api.NodeNotReady {
			return n, fmt.Errorf("state: node %s already %s", node, n.Status.Phase)
		}
		n.Status.Phase = api.NodeReady
		n.Status.LastHeartbeat = now
		return n, nil
	})
}

// LastHeartbeat reports when the node was last known alive: its latest
// heartbeat, or the moment it was registered or replayed if none arrived
// since. ok is false for an unregistered node.
func (c *Cluster) LastHeartbeat(node string) (last time.Time, ok bool) {
	c.liveness.mu.Lock()
	defer c.liveness.mu.Unlock()
	last, ok = c.liveness.last[node]
	return last, ok
}

// LiveNode overlays the live heartbeat onto a node copy bound for an API
// response — the one place stored objects and the liveness table meet, so
// GET /v1/nodes keeps answering truthfully.
func (c *Cluster) LiveNode(n api.Node) api.Node {
	if last, ok := c.LastHeartbeat(n.Name); ok {
		n.Status.LastHeartbeat = last
	}
	return n
}
