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
// node hook), while its identity (UID, CreatedAt) and any surviving
// slot reservations are preserved. MaxContainers is reset so the caller's
// slot policy reapplies cleanly.
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

// RequeueUnclaimedScheduled returns every Scheduled job to the queue —
// the graceful-drain counterpart of RequeueOrphanedRunning. On drain the
// kubelets have exited: a job bound to a node but never claimed by its
// kubelet would otherwise sit Scheduled forever. Returning it to Pending
// (and releasing its slot) makes the bind re-run on the next start, so a
// drained restart loses no accepted work. Returns how many jobs moved.
func (c *Cluster) RequeueUnclaimedScheduled(reason string) int {
	var names []string
	c.Jobs.Range(func(j api.QuantumJob, _ int64) bool {
		if j.Status.Phase == api.JobScheduled {
			names = append(names, j.Name)
		}
		return true
	})
	n := 0
	for _, name := range names {
		node := ""
		_, _, err := c.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
			node = ""
			if j.Status.Phase != api.JobScheduled {
				return j, TerminalJobError{Job: name, Phase: j.Status.Phase}
			}
			node = j.Status.Node
			j.Status.Phase = api.JobPending
			j.Status.Node = ""
			j.Status.Message = reason
			return j, nil
		})
		if err != nil {
			continue
		}
		if node != "" {
			if rerr := c.ReleaseNode(node, name); rerr != nil {
				c.LatchReleaseFailure(node, name, rerr)
			}
		}
		c.RecordEvent("Job", name, "Requeued", reason)
		n++
	}
	return n
}

// RequeueOrphanedRunning returns every Running job to the queue (or
// completes its cancellation) — the boot-time recovery step. A replayed
// Running job has no live container behind it: the process that owned the
// container died with the crash. Returns how many jobs were transitioned.
// Called after WAL sinks attach, so the transitions themselves are logged
// and a crash during recovery recovers correctly the second time.
func (c *Cluster) RequeueOrphanedRunning(reason string) int {
	var names []string
	c.Jobs.Range(func(j api.QuantumJob, _ int64) bool {
		if j.Status.Phase == api.JobRunning {
			names = append(names, j.Name)
		}
		return true
	})
	n := 0
	for _, name := range names {
		node := ""
		cancelled := false
		_, _, err := c.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
			node, cancelled = "", false
			if j.Status.Phase != api.JobRunning {
				return j, TerminalJobError{Job: name, Phase: j.Status.Phase}
			}
			node = j.Status.Node
			if j.Status.CancelRequested {
				// The container the user wanted aborted died with the old
				// process — the cancellation is complete, not lost.
				cancelled = true
				now := c.now()
				j.Status.Phase = api.JobCancelled
				j.Status.Node = ""
				j.Status.FinishedAt = &now
				j.Status.Message = reason + "; cancellation completed by restart"
				return j, nil
			}
			j.Status.Phase = api.JobPending
			j.Status.Node = ""
			j.Status.StartedAt = nil
			j.Status.Message = reason
			return j, nil
		})
		if err != nil {
			continue
		}
		if node != "" {
			if rerr := c.ReleaseNode(node, name); rerr != nil {
				c.LatchReleaseFailure(node, name, rerr)
			}
		}
		if cancelled {
			c.RecordEvent("Job", name, "Cancelled", reason+"; cancellation completed by restart")
		} else {
			c.RecordEvent("Job", name, "Requeued", reason)
		}
		n++
	}
	return n
}
