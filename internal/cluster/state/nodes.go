package state

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
)

// nodeTable is the one per-node index, fed by a single Nodes hook, so it
// holds exactly the registered nodes. Each entry keeps the installed
// api.Node (shared and read-only, as the hook contract allows) and its
// version — the fleet the scheduler ranks against; the last heartbeat,
// which lands here and nowhere else (no store write, no WAL record, no
// watch event: only the Ready↔NotReady transitions it causes go through
// Nodes.Update); and the device Backend decodes lazily.
//
// An Added event (registration, snapshot restore, WAL replay) seeds the
// heartbeat "alive as of now", so a restarted daemon gives every node one
// NodeTimeout of grace instead of trusting a pre-crash stamp; a Deleted
// event drops the entry, so a re-registered node inherits nothing.
type nodeTable struct {
	mu      sync.Mutex
	entries map[string]*nodeEntry
	// epoch is the fleet's identity: it advances when a node appears,
	// disappears or changes device, not on status churn. The scheduler
	// keeps static-chain rankings while it holds.
	epoch uint64
	// sorted is the name-ordered entry list Fleet fills; a membership
	// change clears it.
	sorted []*nodeEntry
}

type nodeEntry struct {
	node    api.Node
	version int64
	last    time.Time
	backend *device.Backend // nil until Backend decodes it
	raw     []byte          // the BackendJSON backend was decoded from
}

// onNodeEvent runs under the node's shard lock (lock order store→table).
// A stored Status.LastHeartbeat newer than the entry's wins, which is how
// RefreshNode — and any writer that stamps the field through the store —
// refreshes liveness without a second code path. A change of BackendJSON
// drops the decoded device and moves the epoch. The bytes are immutable
// and shared between versions of a node, so the check on an unchanged
// device — a Ready↔NotReady transition — is a pointer compare. A join, a
// delete or a change of phase wakes the controller (ControllerWake).
func (c *Cluster) onNodeEvent(ev store.WatchEvent[api.Node]) {
	t := &c.fleet
	n := ev.Object
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[n.Name]
	switch {
	case ev.Type == store.Deleted:
		if ok {
			delete(t.entries, n.Name)
			t.epoch++
			t.sorted = nil
			poke(c.ctlWake)
		}
		return
	case !ok:
		e = &nodeEntry{last: c.now()}
		t.entries[n.Name] = e
		t.epoch++
		t.sorted = nil
	case !bytes.Equal(e.node.Spec.BackendJSON, n.Spec.BackendJSON):
		e.backend, e.raw = nil, nil
		t.epoch++
	}
	if e.node.Status.Phase != n.Status.Phase {
		poke(c.ctlWake) // a join lands here too: its entry starts empty
	}
	e.node, e.version = n, ev.Version
	if n.Status.LastHeartbeat.After(e.last) {
		e.last = n.Status.LastHeartbeat
	}
}

// Fleet returns the registered nodes in name order, each stamped with its
// resource version and carrying its reservations (RunningJobs and the
// CPU/memory in use, derived from its placed jobs), and the identity epoch
// they reflect. Each node is a shallow copy of the installed object:
// callers must not mutate what it shares (labels, slices), and the
// filter/score pipeline never does.
func (c *Cluster) Fleet() ([]api.Node, uint64) {
	t := &c.fleet
	t.mu.Lock()
	if t.sorted == nil {
		t.sorted = make([]*nodeEntry, 0, len(t.entries))
		for _, e := range t.entries {
			t.sorted = append(t.sorted, e)
		}
		sort.Slice(t.sorted, func(a, b int) bool { return t.sorted[a].node.Name < t.sorted[b].node.Name })
	}
	out := make([]api.Node, len(t.sorted))
	for i, e := range t.sorted {
		out[i] = e.node
		out[i].ResourceVersion = e.version
	}
	epoch := t.epoch
	t.mu.Unlock()
	c.scheduled.overlay(out)
	return out, epoch
}

// Heartbeat records that the node's agent was alive at now. A heartbeat
// for an unregistered node is dropped (a kubelet outliving its node must
// not resurrect an entry). The only heartbeat that reaches the store is
// the one that finds its node NotReady: it journals the transition back
// to Ready.
func (c *Cluster) Heartbeat(node string, now time.Time) {
	t := &c.fleet
	t.mu.Lock()
	e, ok := t.entries[node]
	if ok && now.After(e.last) {
		e.last = now
	}
	notReady := ok && e.node.Status.Phase == api.NodeNotReady
	t.mu.Unlock()
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
	c.fleet.mu.Lock()
	defer c.fleet.mu.Unlock()
	if e, ok := c.fleet.entries[node]; ok {
		return e.last, true
	}
	return time.Time{}, false
}

// SilentNodes names the Ready nodes not heard from for more than timeout
// as of now, and reports the earliest instant another Ready node would go
// silent if nothing is heard from it (zero when no Ready node is left).
// One walk of the table under its lock; no node is copied.
func (c *Cluster) SilentNodes(now time.Time, timeout time.Duration) (silent []string, next time.Time) {
	c.fleet.mu.Lock()
	defer c.fleet.mu.Unlock()
	for name, e := range c.fleet.entries {
		if e.node.Status.Phase != api.NodeReady {
			continue
		}
		if now.Sub(e.last) > timeout {
			silent = append(silent, name)
		} else if expiry := e.last.Add(timeout); next.IsZero() || expiry.Before(next) {
			next = expiry
		}
	}
	sort.Strings(silent) // mark, and journal, in name order
	return silent, next
}

// LiveNode overlays the live heartbeat and the node's reservations
// (derived from its placed jobs) onto a node copy bound for an API
// response — the one place stored objects and the state layer's volatile
// views meet, so GET /v1/nodes keeps answering truthfully.
func (c *Cluster) LiveNode(n api.Node) api.Node {
	if last, ok := c.LastHeartbeat(n.Name); ok {
		n.Status.LastHeartbeat = last
	}
	one := []api.Node{n}
	c.scheduled.overlay(one)
	return one[0]
}

// Backend decodes (and caches) the device behind a node. The cached device
// belongs to the node object, not to the name: a refresh, or a vendor
// deleting a device and adding another under the same name, drops it.
func (c *Cluster) Backend(nodeName string) (*device.Backend, error) {
	t := &c.fleet
	t.mu.Lock()
	e, ok := t.entries[nodeName]
	if !ok {
		t.mu.Unlock()
		return nil, store.ErrNotFound{Name: nodeName}
	}
	raw, cached := e.node.Spec.BackendJSON, e.backend
	t.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	var b device.Backend
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("state: node %s backend corrupt: %w", nodeName, err)
	}
	// Keep it only if the node still carries the bytes just decoded: the
	// hook swaps them under the same mutex, so a change of device cannot
	// slip between this check and the insert.
	t.mu.Lock()
	if e, ok := t.entries[nodeName]; ok && bytes.Equal(e.node.Spec.BackendJSON, raw) {
		e.backend, e.raw = &b, raw
	}
	t.mu.Unlock()
	return &b, nil
}

// checkNodes holds the node table to the store: Fleet lists every stored
// node, in name order, at its stored version, and no decoded device comes
// from bytes its node no longer carries.
func (c *Cluster) checkNodes() error {
	t := &c.fleet
	stored := make(map[string]int64)
	var err error
	c.Nodes.Range(func(n api.Node, v int64) bool {
		stored[n.Name] = v
		t.mu.Lock()
		defer t.mu.Unlock()
		if e := t.entries[n.Name]; e != nil && e.backend != nil && !bytes.Equal(e.raw, n.Spec.BackendJSON) {
			err = fmt.Errorf("node %s keeps a device decoded from stale bytes", n.Name)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	nodes, _ := c.Fleet()
	t.mu.Lock()
	held := len(t.entries)
	t.mu.Unlock()
	if len(nodes) != len(stored) || held != len(stored) {
		return fmt.Errorf("lists %d nodes and holds %d, the store %d", len(nodes), held, len(stored))
	}
	for i, n := range nodes {
		if v := stored[n.Name]; v != n.ResourceVersion || i > 0 && nodes[i-1].Name >= n.Name {
			return fmt.Errorf("position %d holds %s at version %d, the store has it at %d", i, n.Name, n.ResourceVersion, v)
		}
	}
	return nil
}
