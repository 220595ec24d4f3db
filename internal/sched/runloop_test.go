package sched

import (
	"context"
	"reflect"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
)

// TestRunLoopBindsOnWatchEvent verifies the scheduler's live loop reacts to
// job submissions without waiting for the ticker.
func TestRunLoopBindsOnWatchEvent(t *testing.T) {
	st := state.New()
	node(t, st, "live", 5, 0.1)
	fw := NewFramework(MetaScore{Scorer: mapScorer{"live": 1}}, DefaultFilters()...)
	s := New(st, fw)
	s.Interval = time.Hour // force the watch path, not the ticker

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	// Give the loop a moment to install its watcher.
	time.Sleep(20 * time.Millisecond)

	if err := st.SubmitJob(job("evt", 0, 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _, _ := st.Jobs.Get("evt")
		if j.Status.Phase == api.JobScheduled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch-driven scheduling never happened")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("scheduler loop did not stop")
	}
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
