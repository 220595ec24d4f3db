package state

import (
	"encoding/json"
	"fmt"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
)

// RefreshNode re-registers a backend over a node replayed from durable
// state: spec and labels follow the current configuration (flags are
// authoritative for hardware description), the node returns to Ready with
// a fresh heartbeat (the stamp refreshes the liveness table through the
// node hook), while its identity (UID, CreatedAt) is preserved; the jobs
// still placed on it keep their reservations, which are derived from
// them. MaxContainers is reset so the caller's slot policy reapplies
// cleanly.
func (c *Cluster) RefreshNode(b *device.Backend) (api.Node, error) {
	if err := b.Validate(); err != nil {
		return api.Node{}, fmt.Errorf("state: refusing invalid backend: %w", err)
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return api.Node{}, err
	}
	n, _, err := c.Nodes.Update(b.Name, func(n api.Node) (api.Node, error) {
		n.Labels = NodeLabels(b)
		n.Spec.BackendJSON = raw
		n.Spec.CPUMillis = b.CPUMillis
		n.Spec.MemoryMB = b.MemoryMB
		n.Spec.MaxContainers = 0
		n.Status.Phase = api.NodeReady
		n.Status.LastHeartbeat = c.now()
		return n, nil
	})
	if err != nil {
		return api.Node{}, err
	}
	return n, nil
}

// EnsureUIDFloor raises the UID counter to at least n. The durability
// layer calls it after replay with the highest numeric suffix seen among
// restored UIDs, so a restarted process never re-mints a UID the previous
// process already handed out.
func (c *Cluster) EnsureUIDFloor(n int64) {
	for {
		cur := c.uid.Load()
		if cur >= n || c.uid.CompareAndSwap(cur, n) {
			return
		}
	}
}

// RequeueAll fires the requeue event at every job found in phase and
// returns how many it moved. Two callers, both with no kubelet alive to
// race: boot recovery requeues Running jobs (a replayed Running job's
// container died with the old process; one whose user had asked for
// cancellation lands in Cancelled instead) after the WAL sinks attach, so
// a crash during recovery recovers the same way the second time; and a
// graceful drain requeues Scheduled jobs no kubelet claimed, so the next
// start re-binds them instead of leaving them parked forever.
func (c *Cluster) RequeueAll(phase api.JobPhase, reason string) int {
	var names []string
	c.Jobs.Range(func(j api.QuantumJob, _ int64) bool {
		if j.Status.Phase == phase {
			names = append(names, j.Name)
		}
		return true
	})
	n := 0
	for _, name := range names {
		if _, err := c.TransitionJob(name, api.JobEventRequeue, Transition{Message: reason}); err == nil {
			n++
		}
	}
	return n
}
