package state

import (
	"errors"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// collect drains notifications until pred is satisfied or the timeout
// elapses, returning everything seen.
func collect(t *testing.T, ch <-chan Notification, pred func([]Notification) bool) []Notification {
	t.Helper()
	var seen []Notification
	deadline := time.After(5 * time.Second)
	for {
		if pred(seen) {
			return seen
		}
		select {
		case n, ok := <-ch:
			if !ok {
				t.Fatalf("hub closed early; saw %d notifications", len(seen))
			}
			seen = append(seen, n)
		case <-deadline:
			t.Fatalf("timed out; saw %+v", seen)
		}
	}
}

func TestSubscribeMergesJobAndNodeStreams(t *testing.T) {
	c := New()
	if _, err := c.AddNode(testBackend(t, "hub-node")); err != nil {
		t.Fatal(err)
	}
	sub, _, cancel, _ := c.Subscribe(32, ResumeToken{})
	defer cancel()

	if _, err := c.SubmitJob(fidelityJob("hub-job")); err != nil {
		t.Fatal(err)
	}
	c.Nodes.Update("hub-node", func(n api.Node) (api.Node, error) {
		n.Status.LastHeartbeat = time.Now()
		return n, nil
	})

	seen := collect(t, sub, func(ns []Notification) bool {
		job, node := false, false
		for _, n := range ns {
			job = job || (n.Kind == KindJob && n.Job != nil && n.Job.Name == "hub-job" && n.Type == store.Added)
			node = node || (n.Kind == KindNode && n.Node != nil && n.Node.Name == "hub-node" && n.Type == store.Modified)
		}
		return job && node
	})
	for _, n := range seen {
		if (n.Kind == KindJob) != (n.Job != nil) || (n.Kind == KindNode) != (n.Node != nil) {
			t.Fatalf("notification kind/payload mismatch: %+v", n)
		}
	}

	// Cancel closes the stream (idempotently).
	cancel()
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("stream never closed after cancel")
		}
	}
}

func TestCancelJobLifecycle(t *testing.T) {
	c := New()
	if _, err := c.AddNode(testBackend(t, "n1")); err != nil {
		t.Fatal(err)
	}

	// Pending → Cancelled directly.
	if _, err := c.SubmitJob(fidelityJob("pending-job")); err != nil {
		t.Fatal(err)
	}
	j, err := c.CancelJob("pending-job")
	if err != nil || j.Status.Phase != api.JobCancelled {
		t.Fatalf("cancel pending: %+v, %v", j.Status, err)
	}
	if j.Status.FinishedAt == nil {
		t.Fatal("cancelled job has no FinishedAt")
	}

	// Scheduled → Cancelled, slot released.
	if _, err := c.SubmitJob(fidelityJob("sched-job")); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("sched-job", "n1", 0.5); err != nil {
		t.Fatal(err)
	}
	if j, err = c.CancelJob("sched-job"); err != nil || j.Status.Phase != api.JobCancelled {
		t.Fatalf("cancel scheduled: %+v, %v", j.Status, err)
	}
	if n := liveNode(t, c, "n1"); len(n.Status.RunningJobs) != 0 {
		t.Fatalf("slot not released: %v", n.Status.RunningJobs)
	}

	// Running → CancelRequested flag, phase unchanged until the kubelet
	// aborts.
	if _, err := c.SubmitJob(fidelityJob("run-job")); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("run-job", "n1", 0.5); err != nil {
		t.Fatal(err)
	}
	c.Jobs.Update("run-job", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobRunning
		return j, nil
	})
	if j, err = c.CancelJob("run-job"); err != nil {
		t.Fatal(err)
	}
	if j.Status.Phase != api.JobRunning || !j.Status.CancelRequested {
		t.Fatalf("cancel running: %+v", j.Status)
	}

	// Terminal → TerminalJobError (the 409 conflict case).
	if _, err = c.CancelJob("pending-job"); err == nil {
		t.Fatal("cancelling a cancelled job succeeded")
	}
	var terminal TerminalJobError
	if !errors.As(err, &terminal) || terminal.Phase != api.JobCancelled {
		t.Fatalf("wrong error type: %v", err)
	}

	// Unknown job → store.ErrNotFound (the 404 case).
	_, err = c.CancelJob("ghost")
	var notFound store.ErrNotFound
	if !errors.As(err, &notFound) {
		t.Fatalf("wrong error for unknown job: %v", err)
	}
}
