package state

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// orderKey files one job in a jobOrder: the group it belongs to, the time
// it sorts by, and whether the order holds it at all.
type orderKey func(j *api.QuantumJob) (group string, at time.Time, ok bool)

// The four job orders the cluster keeps. A new ordered view of the jobs
// is one more key function, not one more index type.
func pendingKey(j *api.QuantumJob) (string, time.Time, bool) {
	return TenantOf(j), j.CreatedAt, j.Status.Phase == api.JobPending
}

// placedKey files the jobs holding a node (Scheduled or Running) under
// it: the kubelet launches from it, the controller requeues from it.
func placedKey(j *api.QuantumJob) (string, time.Time, bool) {
	return j.Status.Node, j.CreatedAt, placed(j) && j.Status.Node != ""
}

func placed(j *api.QuantumJob) bool {
	return j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning
}

// terminalKey orders by the retention clock: when the job finished,
// falling back to creation time for terminal objects that never recorded
// a FinishedAt (e.g. jobs seeded directly into the store).
func terminalKey(j *api.QuantumJob) (string, time.Time, bool) {
	at := j.CreatedAt
	if j.Status.FinishedAt != nil {
		at = *j.Status.FinishedAt
	}
	return "", at, j.Status.Phase.Terminal()
}

// failedKey holds the Failed jobs in terminal order: the controller's
// retry rule reads them instead of listing every job.
func failedKey(j *api.QuantumJob) (string, time.Time, bool) {
	_, at, _ := terminalKey(j)
	return "", at, j.Status.Phase == api.JobFailed
}

// orderEntry is one job at its place in a group.
type orderEntry struct {
	name string
	at   time.Time
}

func orderLess(a, b orderEntry) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.name < b.name
}

// orderSlot returns the sorted position of e in one group.
func orderSlot(q []orderEntry, e orderEntry) int {
	return sort.Search(len(q), func(i int) bool { return !orderLess(q[i], e) })
}

// orderRef locates an indexed job for O(log n) removal.
type orderRef struct {
	group string
	at    time.Time
}

// jobOrder is a hook-fed set of job names kept per group in (at, name)
// order. Every job mutation flows through onJobEvent (a store hook, and so
// also WAL replay), covering every writer: the order cannot go stale.
type jobOrder struct {
	key    orderKey
	mu     sync.Mutex
	groups map[string][]orderEntry // group → entries sorted by (at, name)
	member map[string]orderRef     // job name → where it is filed
}

func newJobOrder(key orderKey) *jobOrder {
	return &jobOrder{key: key, groups: make(map[string][]orderEntry), member: make(map[string]orderRef)}
}

// onJobEvent files, moves or drops the job and returns the group it was
// filed under before ("" when it was not held).
func (o *jobOrder) onJobEvent(ev store.WatchEvent[api.QuantumJob]) (prev string) {
	e, g, ok := orderEntry{name: ev.Object.Name}, "", false
	if ev.Type != store.Deleted {
		g, e.at, ok = o.key(&ev.Object)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ref, had := o.member[e.name]
	if had && ok && ref.group == g && ref.at.Equal(e.at) {
		return ref.group
	}
	if had {
		o.removeLocked(e.name, ref)
	}
	if ok {
		q := o.groups[g]
		i := orderSlot(q, e)
		q = append(q, orderEntry{})
		copy(q[i+1:], q[i:])
		q[i] = e
		o.groups[g] = q
		o.member[e.name] = orderRef{group: g, at: e.at}
	}
	return ref.group
}

// removeLocked drops a member; ref is where the member map filed it, so
// the slot search lands on its entry.
func (o *jobOrder) removeLocked(name string, ref orderRef) {
	delete(o.member, name)
	q := o.groups[ref.group]
	i := orderSlot(q, orderEntry{name: name, at: ref.at})
	switch {
	case len(q) == 1:
		delete(o.groups, ref.group)
		return
	case i == 0:
		// Binds and archival both take the oldest entry: slide the head
		// forward instead of copying the tail down, O(1) per removal.
		q[0] = orderEntry{}
		q = q[1:]
	default:
		q = append(q[:i], q[i+1:]...)
	}
	o.groups[ref.group] = q
}

// len reports how many jobs the order holds.
func (o *jobOrder) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.member)
}

// group snapshots one group's names oldest first, stopping at the first
// entry take refuses (nil takes the whole group).
func (o *jobOrder) group(g string, take func(i int, at time.Time) bool) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for i, e := range o.groups[g] {
		if take != nil && !take(i, e.at) {
			break
		}
		out = append(out, e.name)
	}
	return out
}

// groupNames snapshots the groups the order holds jobs under.
func (o *jobOrder) groupNames() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.groups))
	for g := range o.groups {
		out = append(out, g)
	}
	return out
}

// names snapshots at most perGroup names of each group (perGroup <= 0
// means all), merged across groups in (at, name) order. Each group is
// ordered, so a cap trims only its tail: under deep overload a caller
// still sees the oldest work of every group, at O(groups × perGroup)
// cost instead of O(everything held).
func (o *jobOrder) names(perGroup int) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var merged []orderEntry
	for _, q := range o.groups {
		if perGroup > 0 && len(q) > perGroup {
			q = q[:perGroup]
		}
		if len(o.groups) == 1 {
			merged = q // one group already is the merged order: no copy, no sort
		} else {
			merged = append(merged, q...)
		}
	}
	if len(o.groups) > 1 {
		sort.Slice(merged, func(a, b int) bool { return orderLess(merged[a], merged[b]) })
	}
	out := make([]string, len(merged))
	for i, e := range merged {
		out[i] = e.name
	}
	return out
}

// diff reports the first way o differs from want: a group, a member or a
// position out of place.
func (o *jobOrder) diff(want *jobOrder) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.member) != len(want.member) || len(o.groups) != len(want.groups) {
		return fmt.Errorf("holds %d jobs in %d groups, rebuild has %d in %d",
			len(o.member), len(o.groups), len(want.member), len(want.groups))
	}
	for g, wq := range want.groups {
		q := o.groups[g]
		if len(q) != len(wq) {
			return fmt.Errorf("group %q holds %d jobs, rebuild has %d", g, len(q), len(wq))
		}
		for i, e := range wq {
			if q[i].name != e.name || !q[i].at.Equal(e.at) {
				return fmt.Errorf("group %q position %d holds %s, rebuild has %s", g, i, q[i].name, e.name)
			}
			if ref, ok := o.member[e.name]; !ok || ref.group != g || !ref.at.Equal(e.at) {
				return fmt.Errorf("job %s is filed under %q, rebuild has %q", e.name, ref.group, g)
			}
		}
	}
	return nil
}

// CheckIndexes rebuilds every job order (pending, placed-by-node,
// terminal, failed) from the stored jobs through its own key function and
// reports the first difference in names, groups or order, then holds the
// per-node load sums to a rebuild from the same jobs and the node table to
// the stored nodes (checkNodes). Only valid on a quiescent cluster: a
// write racing the rebuild reads as a difference.
func (c *Cluster) CheckIndexes() error {
	jobs := c.Jobs.List()
	for name, o := range map[string]*jobOrder{"pending": c.pending, "placed": c.scheduled.jobOrder, "terminal": c.terminal, "failed": c.failed} {
		fresh := newJobOrder(o.key)
		for _, j := range jobs {
			fresh.onJobEvent(store.WatchEvent[api.QuantumJob]{Type: store.Added, Object: j})
		}
		if err := o.diff(fresh); err != nil {
			return fmt.Errorf("state: %s index: %w", name, err)
		}
	}
	load := make(map[string]nodeLoad)
	for _, j := range jobs {
		if node, _, ok := placedKey(&j); ok {
			addLoad(load, node, &j, 1)
		}
	}
	c.scheduled.loadMu.Lock()
	held := maps.Clone(c.scheduled.load)
	c.scheduled.loadMu.Unlock()
	if !maps.Equal(held, load) {
		return fmt.Errorf("state: node load %v, rebuild has %v", held, load)
	}
	if err := c.checkNodes(); err != nil {
		return fmt.Errorf("state: node table: %w", err)
	}
	return nil
}
