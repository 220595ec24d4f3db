package sched

import (
	"sort"
	"sync"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

const (
	// defaultFleetResync is the level-triggered fallback cadence: even if
	// every watch event were dropped, the cache re-Lists the store at least
	// this often, so a stale view self-heals within one resync interval.
	defaultFleetResync = time.Second
	// fleetWatchBuffer sizes the node watch channel. Node churn between two
	// scheduler passes (binds, releases, readiness transitions) is orders
	// of magnitude below this on the paper's 100-device fleet; overflow
	// just falls back to the resync path.
	fleetWatchBuffer = 1024
)

// fleetCache is the scheduler's snapshot of the node fleet, maintained
// from store watch events instead of a full Nodes.List() deep copy on
// every pass. It is pull-based: snapshot() drains whatever events have
// accumulated and applies them, so the cache needs no goroutine of its own
// and works for both the live Run loop and tests driving SchedulePass
// directly. Dropped watch events (the store's slow-consumer contract) are
// healed by a periodic re-List — level-triggered reconciliation; in
// between, BindJob's own capacity check remains the authoritative guard,
// so a transiently stale view can only waste a candidate attempt, never
// overcommit a node.
type fleetCache struct {
	mu       sync.Mutex
	src      *store.Store[api.Node]
	nodes    map[string]api.Node
	versions map[string]int64
	events   <-chan store.WatchEvent[api.Node]
	cancel   func()
	lastList time.Time
	// epoch advances whenever fleet MEMBERSHIP changes (a node appears or
	// disappears) — not on status churn. The rank-reuse dispatcher keys
	// its cross-pass ranking cache on it: static filters/scorers produce
	// the same ranking until the node set itself changes.
	epoch uint64
	// sortedNames is the name-ordered member list, rebuilt lazily when
	// sortedEpoch falls behind epoch — so steady-state snapshots fill the
	// output by map lookup instead of re-sorting the whole fleet on every
	// scheduler pass.
	sortedNames []string
	sortedEpoch uint64
}

// snapshot returns the current fleet view, name-ordered, plus the
// membership epoch it reflects. The returned nodes are shared read-only
// copies: callers must not mutate them (the filter/score pipeline never
// does). now is the caller's clock reading — virtual time under the
// simulator — used only for the periodic re-List cadence.
func (f *fleetCache) snapshot(src *store.Store[api.Node], resync time.Duration, now time.Time) ([]api.Node, uint64) {
	if resync <= 0 {
		resync = defaultFleetResync
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.events == nil || f.src != src {
		if f.cancel != nil {
			f.cancel()
		}
		// A different source store has its own version space: drop the old
		// view entirely so relist's keep-if-current check and apply's
		// version guard can't compare versions across stores.
		f.src = src
		f.nodes = nil
		f.versions = nil
		f.events, f.cancel = src.Watch(fleetWatchBuffer)
		f.relist(now)
	} else {
		f.drain()
		if now.Sub(f.lastList) >= resync {
			f.relist(now)
		}
	}
	if f.sortedNames == nil || f.sortedEpoch != f.epoch {
		f.sortedNames = make([]string, 0, len(f.nodes))
		for name := range f.nodes {
			f.sortedNames = append(f.sortedNames, name)
		}
		sort.Strings(f.sortedNames)
		f.sortedEpoch = f.epoch
	}
	out := make([]api.Node, len(f.sortedNames))
	for i, name := range f.sortedNames {
		out[i] = f.nodes[name]
	}
	return out, f.epoch
}

// drain applies every buffered watch event. Per-key versions are monotone
// on the store's merged stream, and the version guard additionally ignores
// events older than what a re-List already installed.
func (f *fleetCache) drain() {
	for {
		select {
		case ev, ok := <-f.events:
			if !ok {
				f.events = nil
				return
			}
			f.apply(ev)
		default:
			return
		}
	}
}

func (f *fleetCache) apply(ev store.WatchEvent[api.Node]) {
	name := ev.Object.Name
	if v, ok := f.versions[name]; ok && ev.Version <= v {
		return
	}
	if ev.Type == store.Deleted {
		if _, ok := f.versions[name]; ok {
			f.epoch++
		}
		delete(f.nodes, name)
		delete(f.versions, name)
		return
	}
	if _, ok := f.versions[name]; !ok {
		f.epoch++
	}
	f.nodes[name] = ev.Object
	f.versions[name] = ev.Version
}

// relist rebuilds the view from the store — the level-triggered fallback.
// Entries whose cached version is already at least the stored version keep
// their cached copy, so a steady-state relist copies nothing.
func (f *fleetCache) relist(now time.Time) {
	nodes := make(map[string]api.Node, len(f.nodes))
	versions := make(map[string]int64, len(f.versions))
	f.src.Range(func(n api.Node, v int64) bool {
		if _, known := f.versions[n.Name]; !known {
			f.epoch++
		}
		if cur, ok := f.versions[n.Name]; ok && cur >= v {
			nodes[n.Name] = f.nodes[n.Name]
			versions[n.Name] = cur
			return true
		}
		nodes[n.Name] = n.DeepCopy()
		versions[n.Name] = v
		return true
	})
	if len(versions) != len(f.versions) {
		// At least one previously-known node vanished from the store.
		f.epoch++
	}
	f.nodes, f.versions = nodes, versions
	f.lastList = now
}

// stop cancels the watch and clears the view; the next snapshot starts
// fresh. Called when the scheduler's Run loop exits so an abandoned
// scheduler leaves no watcher registered on the store.
func (f *fleetCache) stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cancel != nil {
		f.cancel()
	}
	f.src = nil
	f.nodes = nil
	f.versions = nil
	f.events = nil
	f.cancel = nil
	f.sortedNames = nil
	f.lastList = time.Time{}
}
