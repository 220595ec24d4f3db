package kubelet

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/state"
)

// DefaultHeartbeat is the heartbeat loop's cadence when Heartbeats.Every
// is unset.
const DefaultHeartbeat = 250 * time.Millisecond

// Heartbeats is the one heartbeat loop of a deployment: a single timer
// that, every round, records the node of every kubelet whose Run is live
// as alive in the state layer's volatile liveness table. A kubelet joins
// when its Run starts and leaves when Run returns, so a stopped agent's
// node goes silent and the controller marks it NotReady after its
// NodeTimeout, as it would a crashed one. Build it with NewHeartbeats.
type Heartbeats struct {
	State *state.Cluster
	// Every is the cadence (DefaultHeartbeat when zero). Set it before Run.
	Every time.Duration
	// Metrics counts the loop's rounds (nil = uncounted). Set it before Run.
	Metrics *Metrics

	mu    sync.Mutex
	live  map[string]struct{} // nodes whose kubelet's Run is live (one per node)
	names []string            // the round's node list, reused by Run alone

	reviving atomic.Bool // a batch of revivals is in flight
	revivals sync.WaitGroup
}

// NewHeartbeats returns a loop beating nodes of st, stamped by st's clock.
func NewHeartbeats(st *state.Cluster) *Heartbeats {
	return &Heartbeats{State: st, live: make(map[string]struct{})}
}

// set adds a node when its kubelet's Run starts and removes it when Run
// returns; a nil loop beats nothing.
func (h *Heartbeats) set(node string, live bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if live {
		h.live[node] = struct{}{}
	} else {
		delete(h.live, node)
	}
}

// Run beats every live kubelet's node once per Every until the context is
// cancelled, then waits for the revivals it started.
func (h *Heartbeats) Run(ctx context.Context) {
	every := h.Every
	if every <= 0 {
		every = DefaultHeartbeat
	}
	defer h.revivals.Wait()
	timer := time.NewTimer(every)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		h.beat()
		timer.Reset(every)
	}
}

// beat is one round. Every live node is stamped in one pass of the state's
// liveness table, which writes nothing to the store. The NotReady ones
// among them are revived off the loop, one batch in flight at a time: a
// revival journals its node and waits for the disk, and for any fault on
// it, and the beats of the rounds after must not wait with it.
func (h *Heartbeats) beat() {
	h.mu.Lock()
	h.names = h.names[:0]
	for node := range h.live {
		h.names = append(h.names, node)
	}
	h.mu.Unlock()
	now := clock.Now(h.State.Clock)
	if revive := h.State.Beat(h.names, now); len(revive) > 0 && h.reviving.CompareAndSwap(false, true) {
		h.revivals.Add(1)
		go func() {
			defer h.revivals.Done()
			defer h.reviving.Store(false)
			for _, node := range revive {
				h.State.Heartbeat(node, now)
			}
		}()
	}
	h.Metrics.round()
}
