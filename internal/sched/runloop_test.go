package sched

import (
	"context"
	"reflect"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// runScheduler starts s.Run and stops it, waiting for the loop to exit,
// when the test ends.
func runScheduler(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("scheduler loop did not stop")
		}
	})
}

// waitPasses blocks until s has run at least n passes. Run drains its wake
// channel before its first pass, so after one pass any job event wakes it.
func waitPasses(t *testing.T, s *Scheduler, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.passes.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler ran %d passes, want %d", s.passes.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitScheduled blocks until the named job is bound and returns its node.
func waitScheduled(t *testing.T, st *state.Cluster, name string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _, _ := st.Jobs.Get(name)
		if j.Status.Phase == api.JobScheduled {
			return j.Status.Node
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never bound (phase %q)", name, j.Status.Phase)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertPending checks that the named job is still waiting.
func assertPending(t *testing.T, st *state.Cluster, name string) {
	t.Helper()
	if j, _, _ := st.Jobs.Get(name); j.Status.Phase != api.JobPending {
		t.Fatalf("job %s is %q, want still Pending", name, j.Status.Phase)
	}
}

// TestRunLoopBindsOnWatchEvent: with nothing pending the loop sleeps, and
// a submission's job event wakes it.
func TestRunLoopBindsOnWatchEvent(t *testing.T) {
	st := state.New()
	node(t, st, "live", 5, 0.1)
	s := New(st, NewFramework(MetaScore{Scorer: mapScorer{"live": 1}}, DefaultFilters()...))
	runScheduler(t, s)
	waitPasses(t, s, 1)

	if _, err := st.SubmitJob(job("evt", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if n := waitScheduled(t, st, "evt"); n != "live" {
		t.Fatalf("bound to %q, want live", n)
	}
}

// TestRunPlacesJobsPendingAtBoot: jobs already Pending when Run starts
// (boot, WAL replay) bind without any further job event.
func TestRunPlacesJobsPendingAtBoot(t *testing.T) {
	st := state.New()
	node(t, st, "a", 5, 0.1)
	node(t, st, "b", 5, 0.1)
	for _, name := range []string{"boot-1", "boot-2"} {
		if _, err := st.SubmitJob(job(name, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(st, NewFramework(nil, DefaultFilters()...))
	runScheduler(t, s)
	waitScheduled(t, st, "boot-1")
	waitScheduled(t, st, "boot-2")
}

// TestBlockedJobBindsWhenCapacityAppears: a job that fits no node binds
// once a node that fits is registered, though no job event follows.
func TestBlockedJobBindsWhenCapacityAppears(t *testing.T) {
	st := state.New()
	node(t, st, "small", 3, 0.1)
	if _, err := st.SubmitJob(job("wide", 5, 0)); err != nil {
		t.Fatal(err)
	}
	s := New(st, NewFramework(nil, DefaultFilters()...))
	runScheduler(t, s)
	waitPasses(t, s, 3)
	assertPending(t, st, "wide")

	node(t, st, "big", 5, 0.1)
	if n := waitScheduled(t, st, "wide"); n != "big" {
		t.Fatalf("bound to %q, want big", n)
	}
}

// TestQuotaRaiseUnblocks: a job held back by its tenant's MaxActive binds
// once SetTenantConfig raises the limit, though no job event follows.
func TestQuotaRaiseUnblocks(t *testing.T) {
	st := state.New()
	node(t, st, "a", 5, 0.1)
	node(t, st, "b", 5, 0.1)
	setMaxActive := func(n int) {
		t.Helper()
		cfg := api.TenantConfig{ObjectMeta: api.ObjectMeta{Name: "capped"}, Quota: api.TenantQuota{MaxActive: n}}
		if _, err := st.SetTenantConfig(cfg); err != nil {
			t.Fatal(err)
		}
	}
	setMaxActive(1)
	for _, name := range []string{"q-1", "q-2"} {
		j := job(name, 0, 0)
		j.Spec.Tenant = "capped"
		if _, err := st.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	s := New(st, NewFramework(nil, DefaultFilters()...))
	runScheduler(t, s)
	waitScheduled(t, st, "q-1")
	waitPasses(t, s, s.passes.Load()+3)
	assertPending(t, st, "q-2")

	setMaxActive(2)
	waitScheduled(t, st, "q-2")
}

// TestIdleSchedulerRunsNoPass: with nothing pending the loop runs no pass
// at all — neither after its boot pass nor once a job has come and bound.
func TestIdleSchedulerRunsNoPass(t *testing.T) {
	st := state.New()
	node(t, st, "live", 5, 0.1)
	s := New(st, NewFramework(nil, DefaultFilters()...))
	runScheduler(t, s)
	waitPasses(t, s, 1)
	idle := func() {
		t.Helper()
		before := s.passes.Load()
		time.Sleep(300 * time.Millisecond)
		if n := s.passes.Load() - before; n != 0 {
			t.Fatalf("%d passes over 300 ms with nothing pending, want 0", n)
		}
	}
	idle()

	if _, err := st.SubmitJob(job("once", 0, 0)); err != nil {
		t.Fatal(err)
	}
	waitScheduled(t, st, "once")
	time.Sleep(20 * time.Millisecond) // the bind's own event wakes one more pass
	idle()
}

func TestNilScorerScoresZero(t *testing.T) {
	st := state.New()
	node(t, st, "b", 5, 0.1)
	node(t, st, "a", 5, 0.1)
	fw := NewFramework(nil, DefaultFilters()...)
	ranked, err := fw.Rank(job("j", 0, 0), st.Nodes.List())
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeScore{{Node: "a"}, {Node: "b"}}
	if !reflect.DeepEqual(ranked, want) {
		t.Fatalf("nil scorer ranked %v, want zero scores in name order %v", ranked, want)
	}
}

func TestMetaScoreWithoutScorerErrors(t *testing.T) {
	st := state.New()
	node(t, st, "a", 5, 0.1)
	fw := NewFramework(MetaScore{}, DefaultFilters()...)
	if _, err := fw.Rank(job("j", 0, 0), st.Nodes.List()); err == nil {
		t.Fatal("MetaScore without a scorer must fail")
	}
}
