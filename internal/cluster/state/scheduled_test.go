package state

import (
	"fmt"
	"testing"
	"time"

	"qrio/internal/cluster/api"
)

// TestScheduledIndexTracksLifecycle walks one job through the phases and
// checks the by-node index agrees with the store at every step.
func TestScheduledIndexTracksLifecycle(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "dev-a"))
	c.AddNode(testBackend(t, "dev-b"))
	if err := c.SubmitJob(fidelityJob("j1")); err != nil {
		t.Fatal(err)
	}
	if got := c.ScheduledJobs("dev-a"); len(got) != 0 {
		t.Fatalf("pending job indexed as scheduled: %v", got)
	}

	if err := c.BindJob("j1", "dev-a", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := c.ScheduledJobs("dev-a"); len(got) != 1 || got[0].Name != "j1" {
		t.Fatalf("after bind: %v", got)
	}
	if got := c.ScheduledJobs("dev-b"); len(got) != 0 {
		t.Fatalf("job indexed on wrong node: %v", got)
	}

	// Kubelet claims the job: Scheduled → Running drops it from the index.
	if _, _, err := c.Jobs.Update("j1", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobRunning
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.ScheduledJobs("dev-a"); len(got) != 0 {
		t.Fatalf("running job still indexed: %v", got)
	}

	// Requeue (Running → Pending, node cleared) keeps it out; a re-bind to
	// the other node moves it.
	if _, _, err := c.Jobs.Update("j1", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobPending
		j.Status.Node = ""
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("j1", "dev-b", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := c.ScheduledJobs("dev-b"); len(got) != 1 {
		t.Fatalf("after re-bind: %v", got)
	}
	if got := c.ScheduledJobs("dev-a"); len(got) != 0 {
		t.Fatalf("stale mapping on old node: %v", got)
	}

	// Cancel deletes the Scheduled entry.
	if _, err := c.CancelJob("j1"); err != nil {
		t.Fatal(err)
	}
	if got := c.ScheduledJobs("dev-b"); len(got) != 0 {
		t.Fatalf("cancelled job still indexed: %v", got)
	}
}

func TestScheduledJobsOrdering(t *testing.T) {
	c := New()
	// Bypass SubmitJob/BindJob to pin CreatedAt and node directly.
	base := time.Now()
	for i, name := range []string{"c-late", "a-early", "b-early"} {
		j := fidelityJob(name)
		j.UID = c.NextUID("job")
		j.CreatedAt = base
		if name == "c-late" {
			j.CreatedAt = base.Add(time.Second)
		}
		j.Status.Phase = api.JobScheduled
		j.Status.Node = "dev-a"
		if _, err := c.Jobs.Create(j); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	got := c.ScheduledJobs("dev-a")
	want := []string{"a-early", "b-early", "c-late"}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Fatalf("order = [%s %s %s], want %v", got[0].Name, got[1].Name, got[2].Name, want)
		}
	}
}

// TestScheduledJobsAllocs guards the whole point of the index: the
// kubelet's launch poll must cost O(jobs on this node), not O(jobs in the
// cluster). A big backlog of terminal and pending jobs must not show up
// in the allocation count.
func TestScheduledJobsAllocs(t *testing.T) {
	c := New()
	for i := 0; i < 2000; i++ {
		j := fidelityJob(fmt.Sprintf("bulk-%04d", i))
		j.UID = c.NextUID("job")
		switch i % 3 {
		case 0:
			j.Status.Phase = api.JobSucceeded
		case 1:
			j.Status.Phase = api.JobPending
		case 2:
			j.Status.Phase = api.JobScheduled
			j.Status.Node = fmt.Sprintf("other-node-%d", i%7)
		}
		if _, err := c.Jobs.Create(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		j := fidelityJob(fmt.Sprintf("mine-%d", i))
		j.UID = c.NextUID("job")
		j.Status.Phase = api.JobScheduled
		j.Status.Node = "dev-a"
		if _, err := c.Jobs.Create(j); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got := c.ScheduledJobs("dev-a"); len(got) != 2 {
			t.Fatalf("got %d jobs", len(got))
		}
	})
	// Two deep copies plus the slice and sort scaffolding — nowhere near
	// the 2000-job walk this replaced. The bound is deliberately loose;
	// only O(cluster) regressions should trip it.
	if allocs > 50 {
		t.Fatalf("ScheduledJobs allocations = %.0f, want O(node jobs)", allocs)
	}
}

// TestNodeWakeFiresOnlyForItsOwnNode: a node's wake channel gets a token
// for job events that name that node — bind, cancel request on a Running
// job, unbind — and for nothing else; tokens coalesce rather than queue.
func TestNodeWakeFiresOnlyForItsOwnNode(t *testing.T) {
	c := New()
	c.AddNode(testBackend(t, "dev-a"))
	c.AddNode(testBackend(t, "dev-b"))
	wakeA, wakeB := c.NodeWake("dev-a"), c.NodeWake("dev-b")
	woken := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	expect := func(step string, a, b bool) {
		t.Helper()
		if gotA, gotB := woken(wakeA), woken(wakeB); gotA != a || gotB != b {
			t.Fatalf("%s: woke dev-a=%v dev-b=%v, want %v %v", step, gotA, gotB, a, b)
		}
	}

	for _, name := range []string{"j1", "j2"} {
		if err := c.SubmitJob(fidelityJob(name)); err != nil {
			t.Fatal(err)
		}
	}
	expect("submit", false, false)

	if err := c.BindJob("j1", "dev-a", 0.5); err != nil {
		t.Fatal(err)
	}
	expect("bind to dev-a", true, false)

	// Claim, then a cancel request: the owning kubelet must hear about it.
	c.Jobs.Update("j1", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobRunning
		return j, nil
	})
	woken(wakeA)
	if _, err := c.CancelJob("j1"); err != nil {
		t.Fatal(err)
	}
	expect("cancel request on a Running job", true, false)

	// Cancelling a Scheduled job clears its node: the node it just left
	// is the one to wake.
	if err := c.BindJob("j2", "dev-b", 0.5); err != nil {
		t.Fatal(err)
	}
	expect("bind to dev-b", false, true)
	if _, err := c.CancelJob("j2"); err != nil {
		t.Fatal(err)
	}
	expect("unbind from dev-b", false, true)

	// Level-triggered: any number of pokes leave one token.
	c.WakeNode("dev-a")
	c.WakeNode("dev-a")
	if !woken(wakeA) || woken(wakeA) {
		t.Fatal("wake tokens queued instead of coalescing")
	}
	if c.NodeWake("dev-a") != wakeA {
		t.Fatal("NodeWake minted a second channel for the same node")
	}
}
