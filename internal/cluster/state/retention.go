package state

import (
	"fmt"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/archive"
)

// RetentionPolicy bounds how long terminal (Succeeded/Failed/Cancelled)
// jobs stay resident in the hot store before the controller's sweep moves
// them — with their event trails — into the archive tier. The zero policy
// keeps everything resident forever, today's behaviour.
type RetentionPolicy struct {
	// MaxTerminalAge archives terminal jobs older than this (measured
	// from FinishedAt, falling back to CreatedAt). 0 = no age bound.
	MaxTerminalAge time.Duration
	// MaxTerminalCount caps how many terminal jobs stay resident; the
	// oldest beyond the cap are archived. 0 = no count bound.
	MaxTerminalCount int
}

// Enabled reports whether the policy archives anything at all.
func (p RetentionPolicy) Enabled() bool {
	return p.MaxTerminalAge > 0 || p.MaxTerminalCount > 0
}

// ResultFor resolves a job's execution result (logs included) across
// both tiers: the hot Results store first, then the retired copy inside
// the job's archive entry. Every log/result read path goes through this,
// so archiving a job never makes its logs unreachable.
func (c *Cluster) ResultFor(name string) (api.Result, bool) {
	if res, _, err := c.Results.Get(name); err == nil {
		return res, true
	}
	if entry, ok := c.Archived.Get(name); ok && entry.Result != nil {
		return *entry.Result, true
	}
	return api.Result{}, false
}

// TerminalCount reports how many terminal jobs remain resident in the hot
// store — the figure retention keeps flat.
func (c *Cluster) TerminalCount() int { return c.terminal.len() }

// OldestTerminal reports the retention clock (FinishedAt, else CreatedAt)
// of the oldest resident terminal job; ok is false when there is none.
func (c *Cluster) OldestTerminal() (at time.Time, ok bool) {
	c.terminal.group("", func(_ int, t time.Time) bool {
		at, ok = t, true
		return false // the head is all we read
	})
	return at, ok
}

// ArchiveTerminal runs one retention sweep: terminal jobs the policy no
// longer keeps resident move, with their indexed event trails, into the
// archive tier. Per job the order is (1) copy into the archive, (2)
// conditionally delete from the hot store iff the job is still the exact
// terminal object that was copied (same resource version) — so a racing
// cancel, controller retry or requeue always wins and the archive copy is
// rolled back; there is never a moment when a job is in neither tier. The
// hot-store delete fires the usual mutation hooks, so the pending, usage
// and terminal indexes can never reference an archived key. It returns
// the number of jobs archived.
func (c *Cluster) ArchiveTerminal(now time.Time, policy RetentionPolicy) int {
	if !policy.Enabled() {
		return 0
	}
	// Everything past the age bound plus the oldest overflow past the count
	// bound, oldest first: past the overflow, the first entry young enough
	// to keep means every later one is younger still.
	overflow := c.terminal.len() - policy.MaxTerminalCount
	expired := c.terminal.group("", func(i int, at time.Time) bool {
		return (policy.MaxTerminalCount > 0 && i < overflow) || (policy.MaxTerminalAge > 0 && now.Sub(at) > policy.MaxTerminalAge)
	})
	archived := 0
	for _, name := range expired {
		job, version, err := c.Jobs.Get(name)
		if err != nil || !job.Status.Phase.Terminal() {
			continue // already gone or resurrected since the snapshot
		}
		entry := archive.Entry{Job: job, Events: c.EventsAbout(name), ArchivedAt: now}
		if res, _, rerr := c.Results.Get(name); rerr == nil {
			entry.Result = &res
		}
		if err := c.Archived.Put(entry); err != nil {
			continue // concurrent sweep already took it
		}
		err = c.Jobs.DeleteFunc(name, func(j api.QuantumJob, v int64) error {
			if v != version {
				return fmt.Errorf("state: job %s changed during archival", name)
			}
			return nil
		})
		if err != nil {
			// Lost the race (cancel/retry/another sweep): the hot object is
			// authoritative again, drop the archive copy.
			c.Archived.Remove(name)
			continue
		}
		archived++
		if entry.Result != nil {
			// Retire the execution record (logs included) from the hot tier
			// only once the archive holds its copy. A result that lands
			// between the capture above and here (the cancelled-finish path
			// writes it after the terminal phase) simply stays resident —
			// ResultFor reads the hot tier first, so nothing is ever lost.
			c.Results.Delete(name)
		}
		for _, e := range entry.Events {
			c.Events.Delete(e.Name)
		}
	}
	return archived
}
