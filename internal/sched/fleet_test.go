package sched

import (
	"fmt"
	"sort"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// fleetNames lists the scheduler's fleet view as "name@version", name-ordered.
func fleetNames(st *state.Cluster) []string {
	nodes, _ := st.Fleet()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = fmt.Sprintf("%s@%d", n.Name, n.ResourceVersion)
	}
	return out
}

// TestFleetCacheTracksStoreViaEvents: the fleet a pass ranks against
// (state.Cluster.Fleet, fed by the node store's hook) observes node
// additions and a bind's slot reservation with no re-List.
func TestFleetCacheTracksStoreViaEvents(t *testing.T) {
	st := state.New()
	node(t, st, "a", 5, 0.1)
	fw := NewFramework(MetaScore{Scorer: mapScorer{"a": 1, "b": 2}}, DefaultFilters()...)
	s := New(st, fw)

	if got, _ := st.Fleet(); len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("initial fleet = %v", got)
	}
	node(t, st, "b", 5, 0.1)
	if got, _ := st.Fleet(); len(got) != 2 || got[1].Name != "b" {
		t.Fatalf("fleet after AddNode = %+v", got)
	}
	// A bind's node-status event must flow in the same way: schedule onto
	// the fleet and verify the next view sees the occupied slot.
	if _, err := st.SubmitJob(job("j1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if bound := s.SchedulePass(); bound != 1 {
		t.Fatalf("bound %d", bound)
	}
	var busy int
	nodes, _ := st.Fleet()
	for _, n := range nodes {
		busy += len(n.Status.RunningJobs)
	}
	if busy != 1 {
		t.Fatalf("fleet shows %d running jobs after bind, want 1", busy)
	}
}

// TestFleetSeesEveryNodeEvent: 2,000 node writes with no pass in between —
// more than any watch buffer the view could once lag behind — and the
// next view holds every registered node at its stored version, in name
// order, with no wait for a re-List.
func TestFleetSeesEveryNodeEvent(t *testing.T) {
	st := state.New()
	for _, name := range []string{"a", "b", "c"} {
		node(t, st, name, 5, 0.1)
	}
	fleetNames(st) // a view taken before the churn
	for i := 1; i <= 2000; i++ {
		name := []string{"a", "b", "c"}[i%3]
		if _, _, err := st.Nodes.Update(name, func(n api.Node) (api.Node, error) {
			n.Spec.MaxContainers = i
			return n, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	node(t, st, "d", 5, 0.1)
	if err := st.Nodes.Delete("b"); err != nil {
		t.Fatal(err)
	}
	var want []string
	st.Nodes.Range(func(n api.Node, v int64) bool {
		want = append(want, fmt.Sprintf("%s@%d", n.Name, v))
		return true
	})
	sort.Strings(want)
	if got := fleetNames(st); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fleet = %v, store holds %v", got, want)
	}
}

// TestSchedulePassAllocsIndependentOfHistory: the end-to-end hot path —
// pending lookup plus fleet snapshot — must not allocate proportionally to
// terminal jobs resident in the store (the pre-index code deep-copied all
// of them every pass).
func TestSchedulePassAllocsIndependentOfHistory(t *testing.T) {
	st := state.New()
	node(t, st, "n", 5, 0.1)
	const history = 5000
	for i := 0; i < history; i++ {
		j := job(fmt.Sprintf("done-%d", i), 0, 0)
		j.Status.Phase = api.JobSucceeded
		if _, err := st.Jobs.Create(j); err != nil {
			t.Fatal(err)
		}
	}
	s := New(st, NewFramework(nil, DefaultFilters()...))
	allocs := testing.AllocsPerRun(20, func() {
		if bound := s.SchedulePass(); bound != 0 {
			t.Fatalf("bound %d with empty queue", bound)
		}
	})
	if allocs > 100 {
		t.Fatalf("idle SchedulePass did %.0f allocs with %d terminal jobs resident — scaling with history", allocs, history)
	}
}
