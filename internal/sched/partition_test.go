package sched

import (
	"fmt"
	"sync"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/obs"
)

func TestPartitionCoversQueueExactlyOnce(t *testing.T) {
	const replicas = 4
	parts := make([]*Partition, replicas)
	for i := range parts {
		p, err := NewPartition(replicas, i)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	// Every job has exactly one home replica, and shards are populated
	// (fnv spreads 200 names over 4 shards comfortably).
	perShard := make([]int, replicas)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("job-%d", i)
		owners := 0
		for r, p := range parts {
			if p.Owns(name) {
				owners++
				perShard[r]++
			}
		}
		if owners != 1 {
			t.Fatalf("%s has %d owners", name, owners)
		}
	}
	for r, n := range perShard {
		if n == 0 {
			t.Fatalf("shard %d owns no jobs of 200", r)
		}
	}
}

func TestPartitionTakeover(t *testing.T) {
	p, err := NewPartition(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Owned(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("initial ownership = %v", got)
	}
	// Find a job homed on shard 1: before takeover it is not ours,
	// after Assume(1) it is, after Drop(1) it is not again.
	name := ""
	for i := 0; name == ""; i++ {
		if n := fmt.Sprintf("job-%d", i); p.Shard(n) == 1 {
			name = n
		}
	}
	if p.Owns(name) {
		t.Fatalf("%s owned before takeover", name)
	}
	p.Assume(1)
	if !p.Owns(name) {
		t.Fatalf("%s not owned after Assume", name)
	}
	if got := p.Owned(); len(got) != 2 {
		t.Fatalf("ownership after Assume = %v", got)
	}
	p.Drop(1)
	if p.Owns(name) {
		t.Fatalf("%s still owned after Drop", name)
	}
	// Nil partition owns everything (single-replica default).
	var nilPart *Partition
	if !nilPart.Owns(name) {
		t.Fatal("nil partition must own everything")
	}
}

func TestPartitionRejectsBadConfig(t *testing.T) {
	if _, err := NewPartition(0, 0); err == nil {
		t.Fatal("0 replicas accepted")
	}
	if _, err := NewPartition(MaxPartitionReplicas+1, 0); err == nil {
		t.Fatal("over-wide partition accepted")
	}
	if _, err := NewPartition(4, 4); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestReplicasBindExactlyOnce races partitioned optimistic replicas over
// one shared pending queue until it drains: every job must be bound
// exactly once, and the per-replica conflict counters must account for
// every lost race (they may be zero — partitioning avoids contention —
// but never negative progress).
func TestReplicasBindExactlyOnce(t *testing.T) {
	const replicas = 4
	const jobs = 120
	st := state.New()
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("dev-%d", i)
		node(t, st, name, 5, 0.1)
		// Enough container slots that the whole queue fits on the fleet.
		if _, _, err := st.Nodes.Update(name, func(n api.Node) (api.Node, error) {
			n.Spec.MaxContainers = jobs / replicas
			return n, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < jobs; i++ {
		if err := st.SubmitJob(job(fmt.Sprintf("job-%d", i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}

	scheds := make([]*Scheduler, replicas)
	for i := range scheds {
		p, err := NewPartition(replicas, i)
		if err != nil {
			t.Fatal(err)
		}
		s := New(st, NewFramework(nil, DefaultFilters()...))
		s.Concurrency = 8
		s.Partition = p
		s.Metrics = NewMetrics(obs.NewRegistry())
		scheds[i] = s
	}
	defer func() {
		for _, s := range scheds {
			s.Stop()
		}
	}()

	var wg sync.WaitGroup
	for _, s := range scheds {
		wg.Add(1)
		go func(s *Scheduler) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.SchedulePass()
				if st.PendingCount() == 0 {
					return
				}
			}
		}(s)
	}
	wg.Wait()

	if n := st.PendingCount(); n != 0 {
		t.Fatalf("%d jobs still pending", n)
	}
	// Exactly-once: every job Scheduled, and node RunningJobs lists sum
	// to the job count with no duplicates.
	seen := map[string]bool{}
	for i := 0; i < replicas; i++ {
		n, _, err := st.Nodes.Get(fmt.Sprintf("dev-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range n.Status.RunningJobs {
			if seen[j] {
				t.Fatalf("job %s bound to more than one node", j)
			}
			seen[j] = true
		}
	}
	if len(seen) != jobs {
		t.Fatalf("%d jobs bound, want %d", len(seen), jobs)
	}
	for i := 0; i < jobs; i++ {
		j, _, err := st.Jobs.Get(fmt.Sprintf("job-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if j.Status.Phase != api.JobScheduled {
			t.Fatalf("%s phase = %s", j.Name, j.Status.Phase)
		}
	}
}
