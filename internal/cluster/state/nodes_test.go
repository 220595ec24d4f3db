package state

import (
	"sync"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/graph"
)

// stepClock is a hand-advanced time source.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (s *stepClock) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *stepClock) advance(d time.Duration) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = s.now.Add(d)
	return s.now
}

func livenessCluster(t *testing.T, nodes ...string) (*Cluster, *stepClock) {
	t.Helper()
	clk := &stepClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	c := New()
	c.Clock = clk
	for _, n := range nodes {
		if _, err := c.AddNode(testBackend(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	return c, clk
}

// livenessEntries counts the node table's entries, first holding the
// table to a rebuild from the store.
func livenessEntries(t *testing.T, c *Cluster) int {
	t.Helper()
	if err := c.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	c.fleet.mu.Lock()
	defer c.fleet.mu.Unlock()
	return len(c.fleet.entries)
}

// TestHeartbeatStaysOutOfTheStore: a heartbeat moves the liveness table
// and nothing else — no resource version, no watch event.
func TestHeartbeatStaysOutOfTheStore(t *testing.T) {
	c, clk := livenessCluster(t, "dev-a")
	registered := clk.Now()
	if last, ok := c.LastHeartbeat("dev-a"); !ok || !last.Equal(registered) {
		t.Fatalf("fresh node liveness = %v %v, want seeded at registration", last, ok)
	}
	events, _, cancel, _ := c.Nodes.Watch(nil, 8)
	defer cancel()
	version := c.Nodes.Version()

	beat := clk.advance(time.Second)
	c.Heartbeat("dev-a", beat)
	if last, _ := c.LastHeartbeat("dev-a"); !last.Equal(beat) {
		t.Fatalf("liveness = %v, want %v", last, beat)
	}
	if v := c.Nodes.Version(); v != version {
		t.Fatalf("heartbeat wrote the node store: version %d → %d", version, v)
	}
	select {
	case ev := <-events:
		t.Fatalf("heartbeat emitted a node watch event: %+v", ev.Type)
	default:
	}
	// The stored object keeps the registration stamp; the API overlay
	// answers with the live one.
	n, _, _ := c.Nodes.Get("dev-a")
	if !n.Status.LastHeartbeat.Equal(registered) {
		t.Fatalf("stored LastHeartbeat moved to %v", n.Status.LastHeartbeat)
	}
	if live := c.LiveNode(n); !live.Status.LastHeartbeat.Equal(beat) {
		t.Fatalf("LiveNode = %v, want %v", live.Status.LastHeartbeat, beat)
	}
}

// TestHeartbeatRevivesThroughTheStore: the one heartbeat that does reach
// the store is the one that finds its node NotReady.
func TestHeartbeatRevivesThroughTheStore(t *testing.T) {
	c, clk := livenessCluster(t, "dev-a")
	c.Nodes.Update("dev-a", func(n api.Node) (api.Node, error) {
		n.Status.Phase = api.NodeNotReady
		return n, nil
	})
	version := c.Nodes.Version()
	beat := clk.advance(time.Minute)
	c.Heartbeat("dev-a", beat)
	n, _, _ := c.Nodes.Get("dev-a")
	if n.Status.Phase != api.NodeReady || !n.Status.LastHeartbeat.Equal(beat) {
		t.Fatalf("revival not journaled: %+v", n.Status)
	}
	c.Heartbeat("dev-a", clk.advance(time.Second))
	if v := c.Nodes.Version(); v != version+1 {
		t.Fatalf("revival + one more beat took %d node writes, want 1", v-version)
	}
}

// TestLivenessTableHoldsExactlyTheRegisteredNodes covers both halves of
// the re-registration bug: a deleted node's entry goes with it (a kubelet
// that outlives its node cannot resurrect it), and a node registered again
// under the same name — or refreshed by a calibration upload — starts
// fresh instead of inheriting a timestamp that would flip it NotReady on
// the controller's next tick.
func TestLivenessTableHoldsExactlyTheRegisteredNodes(t *testing.T) {
	c, clk := livenessCluster(t, "dev-a", "dev-b")
	if got := livenessEntries(t, c); got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
	c.Heartbeat("ghost", clk.Now())
	if got := livenessEntries(t, c); got != 2 {
		t.Fatalf("heartbeat for an unregistered node created an entry (%d)", got)
	}

	old := clk.advance(time.Second)
	c.Heartbeat("dev-a", old)
	if err := c.Nodes.Delete("dev-a"); err != nil {
		t.Fatal(err)
	}
	c.Heartbeat("dev-a", clk.advance(time.Second)) // its kubelet is still running
	if _, ok := c.LastHeartbeat("dev-a"); ok || livenessEntries(t, c) != 1 {
		t.Fatalf("deleted node still has a liveness entry (%d entries)", livenessEntries(t, c))
	}

	back := clk.advance(time.Hour)
	if _, err := c.AddNode(testBackend(t, "dev-a")); err != nil {
		t.Fatal(err)
	}
	if last, _ := c.LastHeartbeat("dev-a"); !last.Equal(back) {
		t.Fatalf("re-registered node liveness = %v, want fresh %v (stale was %v)", last, back, old)
	}

	refreshed := clk.advance(time.Hour)
	if _, err := c.RefreshNode(testBackend(t, "dev-b")); err != nil {
		t.Fatal(err)
	}
	if last, _ := c.LastHeartbeat("dev-b"); !last.Equal(refreshed) {
		t.Fatalf("refreshed node liveness = %v, want %v", last, refreshed)
	}
	if got := livenessEntries(t, c); got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
}

// TestHeartbeatsRaceRegistration hammers one node name with heartbeats,
// device decodes and fleet reads while it is deleted, re-registered and
// refreshed onto another device; the table must end holding exactly the
// registered set, with no device decoded from stale bytes (run under
// -race).
func TestHeartbeatsRaceRegistration(t *testing.T) {
	c, _ := livenessCluster(t, "steady")
	b := testBackend(t, "flapper")
	wider, err := device.UniformBackend("flapper", graph.Line(7), 0.1, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Heartbeat("flapper", time.Now())
					c.LastHeartbeat("flapper")
					c.Backend("flapper")
					c.Fleet()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := c.AddNode(b); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RefreshNode(wider); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
		if err := c.Nodes.Delete("flapper"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, ok := c.LastHeartbeat("flapper"); ok || livenessEntries(t, c) != 1 {
		t.Fatalf("table out of step with the registered set: %d entries", livenessEntries(t, c))
	}
}
