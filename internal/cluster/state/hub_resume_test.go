package state

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// drainNotifications reads n notifications or fails at the deadline.
func drainNotifications(t *testing.T, ch <-chan Notification, n int) []Notification {
	t.Helper()
	var out []Notification
	deadline := time.After(2 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d of %d notifications", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d of %d notifications", len(out), n)
		}
	}
	return out
}

// TestResumeTokenRoundTrip pins the wire form and the parser's rejection
// of malformed input.
func TestResumeTokenRoundTrip(t *testing.T) {
	tok := ResumeToken{Jobs: []int64{1, 0, 7}, Nodes: []int64{4}}
	parsed, err := ParseResumeToken(tok.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != tok.String() {
		t.Fatalf("round trip %q → %q", tok.String(), parsed.String())
	}
	for _, bad := range []string{
		"", "garbage", "j1.2", "n1-j2", "j1.x-n2", "j-1-n2", "jn", "j1.2-n", "j-n1",
		"j1.2-n3.4.5extra!", "j999999999999999999999999-n1",
	} {
		if _, err := ParseResumeToken(bad); err == nil {
			t.Errorf("ParseResumeToken(%q) accepted", bad)
		}
	}
}

// TestSubscribeFromReplaysExactly: transitions between the token snapshot
// and the resume arrive exactly once, in per-job order.
func TestSubscribeFromReplaysExactly(t *testing.T) {
	c := New()
	// First stream: observe the submit, then die.
	sub1, _, cancel1, _ := c.Subscribe(16, ResumeToken{})
	if _, err := c.SubmitJob(fidelityJob("lifecycle")); err != nil {
		t.Fatal(err)
	}
	first := drainNotifications(t, sub1, 1)
	lastToken, err := ParseResumeToken(first[0].Resume)
	if err != nil {
		t.Fatalf("notification token %q: %v", first[0].Resume, err)
	}
	cancel1()

	// Offline transitions the dead stream never saw.
	for _, phase := range []api.JobPhase{api.JobScheduled, api.JobRunning, api.JobSucceeded} {
		phase := phase
		if _, _, err := c.Jobs.Update("lifecycle", func(j api.QuantumJob) (api.QuantumJob, error) {
			j.Status.Phase = phase
			return j, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	sub2, _, cancel2, err := c.Subscribe(16, lastToken)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	replayed := drainNotifications(t, sub2, 3)
	wantPhases := []api.JobPhase{api.JobScheduled, api.JobRunning, api.JobSucceeded}
	for i, n := range replayed {
		if n.Kind != KindJob || n.Job == nil || n.Job.Status.Phase != wantPhases[i] {
			t.Fatalf("replayed[%d] = %+v, want phase %s", i, n, wantPhases[i])
		}
		if n.Resume == "" {
			t.Fatalf("replayed[%d] carries no resume token", i)
		}
	}
	// Live events continue after the replay with advancing tokens.
	c.RecordEvent("Job", "lifecycle", "noise", "not a job store event") // must NOT appear
	if _, _, err := c.Jobs.Update("lifecycle", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Message = "post-resume"
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	live := drainNotifications(t, sub2, 1)
	if live[0].Job == nil || live[0].Job.Status.Message != "post-resume" {
		t.Fatalf("live tail = %+v", live[0])
	}
}

// TestSubscribeFromCompacted: a token below the journal horizon is
// rejected with store.ErrCompacted.
func TestSubscribeFromCompacted(t *testing.T) {
	c := New()
	c.Jobs.SetJournalCap(4)
	if _, err := c.SubmitJob(fidelityJob("churner")); err != nil {
		t.Fatal(err)
	}
	_, tok, cancel, _ := c.Subscribe(16, ResumeToken{})
	cancel()
	for i := 0; i < 50; i++ {
		if _, _, err := c.Jobs.Update("churner", func(j api.QuantumJob) (api.QuantumJob, error) {
			j.Status.Message = fmt.Sprintf("tick %d", i)
			return j, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := c.Subscribe(16, tok); !errors.Is(err, store.ErrCompacted) {
		t.Fatalf("stale resume err = %v, want ErrCompacted", err)
	}
}

// TestStreamNeverHidesADrop: a fresh stream's consumer stalls through a
// burst of submissions, then reads paced cancels one at a time. Every
// token the stream delivers must cover only job transitions it delivered
// — a resume from it skips the rest — and a stream that did not deliver
// every transition must have closed, so its consumer knows to resume.
func TestStreamNeverHidesADrop(t *testing.T) {
	c := New()
	sub, start, cancel, err := c.Subscribe(1, ResumeToken{})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const n = 40
	name := func(i int) string { return fmt.Sprintf("burst-%02d", i) }
	for i := 0; i < n; i++ { // the consumer stalls
		if _, err := c.SubmitJob(fidelityJob(name(i))); err != nil {
			t.Fatal(err)
		}
	}
	var delivered []Notification
	closed := false
	for i := 0; i < n && !closed; i++ { // then keeps up, one write at a time
		if _, err := c.CancelJob(name(i)); err != nil {
			t.Fatal(err)
		}
	read: // until this cancel arrives, the stream closes or it goes quiet
		for {
			select {
			case nt, ok := <-sub:
				if closed = !ok; closed {
					break read
				}
				delivered = append(delivered, nt)
				if nt.Job != nil && nt.Job.Name == name(i) && nt.Job.Status.Phase == api.JobCancelled {
					break read
				}
			case <-time.After(100 * time.Millisecond):
				break read
			}
		}
	}

	// Every job transition after the start token, with its shard.
	all, _, stop, err := c.Jobs.Watch(start.Jobs, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	var history []store.WatchEvent[api.QuantumJob]
	for ev := range all {
		history = append(history, ev)
	}
	seen := map[int64]bool{}
	jobs := 0
	for _, nt := range delivered {
		if nt.Kind != KindJob {
			continue
		}
		jobs++
		seen[nt.Version] = true
		tok, err := ParseResumeToken(nt.Resume)
		if err != nil {
			t.Fatal(err)
		}
		hidden := 0
		for _, ev := range history {
			if ev.Version <= tok.Jobs[ev.Shard] && !seen[ev.Version] {
				hidden++
			}
		}
		if hidden > 0 {
			t.Fatalf("job event %d delivered (of %d written) carries token %s, which covers %d undelivered events: a resume from it never replays them (stream closed: %v)",
				jobs, len(history), nt.Resume, hidden, closed)
		}
	}
	if !closed && jobs != len(history) {
		t.Fatalf("stream delivered %d of %d job events and never closed", jobs, len(history))
	}
}
