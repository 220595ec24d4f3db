package state

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// finishedJob builds a terminal job with an explicit FinishedAt.
func finishedJob(name string, phase api.JobPhase, finished time.Time) api.QuantumJob {
	j := fidelityJob(name)
	j.CreatedAt = finished.Add(-time.Second)
	j.Status = api.JobStatus{Phase: phase, FinishedAt: &finished}
	return j
}

// TestArchiveTerminalByAge: jobs past MaxTerminalAge move to the archive
// with their event trails; younger terminal jobs and live jobs stay.
func TestArchiveTerminalByAge(t *testing.T) {
	c := New()
	now := time.Now()
	for i := 0; i < 4; i++ {
		j := finishedJob(fmt.Sprintf("old-%d", i), api.JobSucceeded, now.Add(-time.Hour))
		if _, err := c.Jobs.Create(j); err != nil {
			t.Fatal(err)
		}
		c.RecordEvent("Job", j.Name, "Succeeded", "done long ago")
	}
	young := finishedJob("young", api.JobFailed, now.Add(-time.Second))
	if _, err := c.Jobs.Create(young); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(fidelityJob("live")); err != nil {
		t.Fatal(err)
	}

	n := c.ArchiveTerminal(now, RetentionPolicy{MaxTerminalAge: time.Minute})
	if n != 4 {
		t.Fatalf("archived %d, want 4", n)
	}
	if c.Archived.Len() != 4 {
		t.Fatalf("archive holds %d", c.Archived.Len())
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("old-%d", i)
		if _, _, err := c.Jobs.Get(name); err == nil {
			t.Fatalf("%s still resident", name)
		}
		entry, ok := c.Archived.Get(name)
		if !ok {
			t.Fatalf("%s not archived", name)
		}
		if len(entry.Events) == 0 || entry.Events[0].Reason != "Succeeded" {
			t.Fatalf("%s archived without its event trail: %+v", name, entry.Events)
		}
		// The hot event store no longer holds the archived trail.
		if left := c.EventsAbout(name); len(left) != 0 {
			t.Fatalf("%s left %d events in the hot store", name, len(left))
		}
	}
	if _, _, err := c.Jobs.Get("young"); err != nil {
		t.Fatal("young terminal job was archived early")
	}
	if _, _, err := c.Jobs.Get("live"); err != nil {
		t.Fatal("live job disturbed")
	}
	if c.TerminalCount() != 1 {
		t.Fatalf("terminal index reports %d, want 1", c.TerminalCount())
	}
}

// TestArchiveTerminalRetiresResults: the sweep carries a job's execution
// record (logs included) into its archive entry and evicts it from the
// hot Results store, while ResultFor keeps the logs readable from either
// tier.
func TestArchiveTerminalRetiresResults(t *testing.T) {
	c := New()
	now := time.Now()
	j := finishedJob("done", api.JobSucceeded, now.Add(-time.Hour))
	if _, err := c.Jobs.Create(j); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Results.Create(api.Result{
		ObjectMeta: api.ObjectMeta{Name: "done"},
		JobName:    "done",
		LogLines:   []string{"[qrio] executed", "[qrio] fidelity 0.97"},
		Fidelity:   0.97,
	}); err != nil {
		t.Fatal(err)
	}
	// A result-less terminal job archives cleanly too.
	if _, err := c.Jobs.Create(finishedJob("no-result", api.JobFailed, now.Add(-time.Hour))); err != nil {
		t.Fatal(err)
	}

	if got, ok := c.ResultFor("done"); !ok || got.Fidelity != 0.97 {
		t.Fatalf("hot-tier ResultFor = %+v, %v", got, ok)
	}
	if n := c.ArchiveTerminal(now, RetentionPolicy{MaxTerminalAge: time.Minute}); n != 2 {
		t.Fatalf("archived %d, want 2", n)
	}
	// The hot store no longer holds the archived job's logs…
	if _, _, err := c.Results.Get("done"); err == nil {
		t.Fatal("archived job's result still resident in the hot store")
	}
	// …but the archive entry does, and ResultFor falls through to it.
	entry, ok := c.Archived.Get("done")
	if !ok || entry.Result == nil {
		t.Fatalf("archive entry missing retired result: %+v", entry)
	}
	if len(entry.Result.LogLines) != 2 || entry.Result.Fidelity != 0.97 {
		t.Fatalf("retired result corrupted: %+v", entry.Result)
	}
	got, ok := c.ResultFor("done")
	if !ok || got.Fidelity != 0.97 || len(got.LogLines) != 2 {
		t.Fatalf("archived-tier ResultFor = %+v, %v", got, ok)
	}
	if noRes, ok := c.Archived.Get("no-result"); !ok || noRes.Result != nil {
		t.Fatalf("result-less entry grew a result: %+v", noRes.Result)
	}
	if _, ok := c.ResultFor("no-result"); ok {
		t.Fatal("ResultFor invented a result for a job that never had one")
	}
}

// TestArchiveTerminalByCount keeps the newest MaxTerminalCount terminal
// jobs resident and archives the oldest overflow.
func TestArchiveTerminalByCount(t *testing.T) {
	c := New()
	now := time.Now()
	for i := 0; i < 10; i++ {
		j := finishedJob(fmt.Sprintf("t-%02d", i), api.JobSucceeded, now.Add(time.Duration(i)*time.Second))
		if _, err := c.Jobs.Create(j); err != nil {
			t.Fatal(err)
		}
	}
	n := c.ArchiveTerminal(now.Add(time.Hour), RetentionPolicy{MaxTerminalCount: 3})
	if n != 7 {
		t.Fatalf("archived %d, want 7", n)
	}
	for i := 0; i < 7; i++ {
		if !c.Archived.Has(fmt.Sprintf("t-%02d", i)) {
			t.Fatalf("t-%02d (old) not archived", i)
		}
	}
	for i := 7; i < 10; i++ {
		if _, _, err := c.Jobs.Get(fmt.Sprintf("t-%02d", i)); err != nil {
			t.Fatalf("t-%02d (newest) evicted", i)
		}
	}
	// Idempotent: a second sweep at the cap archives nothing.
	if n := c.ArchiveTerminal(now.Add(time.Hour), RetentionPolicy{MaxTerminalCount: 3}); n != 0 {
		t.Fatalf("second sweep archived %d", n)
	}
}

// TestArchiveDisabledPolicy pins the default: the zero policy never
// archives — today's keep-everything behaviour.
func TestArchiveDisabledPolicy(t *testing.T) {
	c := New()
	j := finishedJob("done", api.JobSucceeded, time.Now().Add(-24*time.Hour))
	if _, err := c.Jobs.Create(j); err != nil {
		t.Fatal(err)
	}
	if n := c.ArchiveTerminal(time.Now(), RetentionPolicy{}); n != 0 {
		t.Fatalf("zero policy archived %d jobs", n)
	}
	if _, _, err := c.Jobs.Get("done"); err != nil {
		t.Fatal("job left the hot store under the zero policy")
	}
}

// TestCancelArchivedJobConflict is the regression pin for the
// cancel-vs-sweep race: cancelling a job the sweep has archived must
// return the same typed terminal conflict a resident finished job gets —
// and must NOT resurrect the job in either tier.
func TestCancelArchivedJobConflict(t *testing.T) {
	c := New()
	now := time.Now()
	j := finishedJob("done", api.JobSucceeded, now.Add(-time.Hour))
	if _, err := c.Jobs.Create(j); err != nil {
		t.Fatal(err)
	}
	if n := c.ArchiveTerminal(now, RetentionPolicy{MaxTerminalAge: time.Minute}); n != 1 {
		t.Fatalf("archived %d, want 1", n)
	}
	_, err := c.CancelJob("done")
	var terminal TerminalJobError
	if !errors.As(err, &terminal) {
		t.Fatalf("cancel archived job err = %v, want TerminalJobError", err)
	}
	if terminal.Phase != api.JobSucceeded {
		t.Fatalf("conflict reports phase %s", terminal.Phase)
	}
	if status, code := terminal.HTTPStatus(); status != 409 || code != "conflict" {
		t.Fatalf("conflict maps to (%d, %s)", status, code)
	}
	if _, _, err := c.Jobs.Get("done"); err == nil {
		t.Fatal("cancel resurrected the archived job in the hot store")
	}
	entry, ok := c.Archived.Get("done")
	if !ok || entry.Job.Status.Phase != api.JobSucceeded {
		t.Fatalf("archive entry disturbed: %+v %v", entry, ok)
	}
	// A genuinely unknown name still reads as not-found.
	var nf store.ErrNotFound
	if _, err := c.CancelJob("ghost"); !errors.As(err, &nf) {
		t.Fatalf("cancel unknown job err = %v, want ErrNotFound", err)
	}
}

// TestArchiveSweepLosesToConcurrentChange: if the job changes between the
// sweep's read and its conditional delete, the delete aborts and the
// archive copy rolls back — the hot object stays authoritative.
func TestArchiveSweepLosesToConcurrentChange(t *testing.T) {
	c := New()
	now := time.Now()
	j := finishedJob("flappy", api.JobFailed, now.Add(-time.Hour))
	if _, err := c.Jobs.Create(j); err != nil {
		t.Fatal(err)
	}
	// Simulate the controller's retry landing mid-sweep: bump the object
	// version after the sweep would have read it. We interleave by hand —
	// read what the sweep reads, mutate, then sweep.
	if _, _, err := c.Jobs.Update("flappy", func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobPending // retry resurrects it
		j.Status.FinishedAt = nil
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := c.ArchiveTerminal(now, RetentionPolicy{MaxTerminalAge: time.Minute}); n != 0 {
		t.Fatalf("sweep archived a resurrected job (%d)", n)
	}
	if c.Archived.Has("flappy") {
		t.Fatal("archive kept a copy of a live job")
	}
	if got, _, err := c.Jobs.Get("flappy"); err != nil || got.Status.Phase != api.JobPending {
		t.Fatalf("hot object disturbed: %+v %v", got.Status, err)
	}
}

// TestSubmitRejectsArchivedName: names stay unique across tiers.
func TestSubmitRejectsArchivedName(t *testing.T) {
	c := New()
	now := time.Now()
	if _, err := c.Jobs.Create(finishedJob("taken", api.JobSucceeded, now.Add(-time.Hour))); err != nil {
		t.Fatal(err)
	}
	c.ArchiveTerminal(now, RetentionPolicy{MaxTerminalAge: time.Minute})
	_, err := c.SubmitJob(fidelityJob("taken"))
	var exists store.ErrExists
	if !errors.As(err, &exists) {
		t.Fatalf("submit over archived name err = %v, want ErrExists", err)
	}
}

// TestArchiveKeepsUsageAndPendingClean: archiving terminal jobs leaves
// the pending index and tenant usage untouched (terminal jobs were
// already out of both), and no archived key is ever referenced.
func TestArchiveKeepsUsageAndPendingClean(t *testing.T) {
	c := New()
	now := time.Now()
	for i := 0; i < 5; i++ {
		j := finishedJob(fmt.Sprintf("done-%d", i), api.JobSucceeded, now.Add(-time.Hour))
		j.Spec.Tenant = "alice"
		if _, err := c.Jobs.Create(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.SubmitJob(fidelityJob("queued")); err != nil {
		t.Fatal(err)
	}
	c.ArchiveTerminal(now, RetentionPolicy{MaxTerminalAge: time.Minute})
	if got := c.TenantUsage("alice"); got.Pending != 0 || got.Active != 0 || got.QubitSeconds != 0 {
		t.Fatalf("alice usage after archival = %+v, want zero", got)
	}
	pending := c.PendingJobs()
	if len(pending) != 1 || pending[0].Name != "queued" {
		t.Fatalf("pending after archival = %v", pending)
	}
	for _, p := range pending {
		if c.Archived.Has(p.Name) {
			t.Fatalf("pending index references archived key %s", p.Name)
		}
	}
}

// TestHotStoreFlatUnderRetention is the acceptance guard at state level:
// after tens of thousands of terminal jobs flow through under an active
// retention policy, the hot store and the pending-path cost stay flat.
func TestHotStoreFlatUnderRetention(t *testing.T) {
	c := New()
	policy := RetentionPolicy{MaxTerminalCount: 100}
	now := time.Now()
	const total = 50000
	for i := 0; i < total; i++ {
		j := finishedJob(fmt.Sprintf("churn-%05d", i), api.JobSucceeded, now.Add(time.Duration(i)*time.Millisecond))
		if _, err := c.Jobs.Create(j); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			c.ArchiveTerminal(now.Add(time.Hour), policy)
		}
	}
	c.ArchiveTerminal(now.Add(time.Hour), policy)
	if resident := c.Jobs.Len(); resident > policy.MaxTerminalCount {
		t.Fatalf("hot store holds %d jobs, want ≤ %d", resident, policy.MaxTerminalCount)
	}
	if c.Archived.Len() != total-policy.MaxTerminalCount {
		t.Fatalf("archive holds %d, want %d", c.Archived.Len(), total-policy.MaxTerminalCount)
	}
	// The scheduler's hot path must not scale with archived history.
	for i := 0; i < 4; i++ {
		if _, err := c.SubmitJob(fidelityJob(fmt.Sprintf("live-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := len(c.PendingJobs()); got != 4 {
			t.Fatalf("PendingJobs = %d", got)
		}
	})
	if allocs > 160 {
		t.Fatalf("PendingJobs did %.0f allocs with 50k archived jobs — scaling with history", allocs)
	}
}
