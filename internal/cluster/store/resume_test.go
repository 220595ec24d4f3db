package store

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

type robj struct {
	Name string
	Val  int
}

func newObjStore() *Store[robj] {
	return New(func(o robj) robj { return o }, func(o robj) string { return o.Name })
}

// collect drains up to n events from ch, waiting up to the deadline.
func collect(t *testing.T, ch <-chan WatchEvent[robj], n int) []WatchEvent[robj] {
	t.Helper()
	var out []WatchEvent[robj]
	deadline := time.After(2 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d of %d events", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d of %d events", len(out), n)
		}
	}
	return out
}

// TestWatchFromReplaysJournal checks the core resume contract: a watch
// opened at an old version replays exactly the missed events, in version
// order, then continues live.
func TestWatchFromReplaysJournal(t *testing.T) {
	s := newObjStore()
	if _, err := s.Create(robj{Name: "a", Val: 1}); err != nil {
		t.Fatal(err)
	}
	mark := s.Marks()
	// Three events after the mark: these must replay.
	s.Create(robj{Name: "b", Val: 1})
	s.Update("a", func(o robj) (robj, error) { o.Val = 2; return o, nil })
	s.Delete("b")

	ch, cancel, err := s.WatchFrom(mark, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	got := collect(t, ch, 3)
	wantTypes := []EventType{Added, Modified, Deleted}
	for i, ev := range got {
		if ev.Type != wantTypes[i] {
			t.Fatalf("event %d type %s, want %s", i, ev.Type, wantTypes[i])
		}
		if ev.Version <= mark[ev.Shard] {
			t.Fatalf("event %d version %d not after shard %d mark %d", i, ev.Version, ev.Shard, mark[ev.Shard])
		}
		if i > 0 && got[i-1].Version >= ev.Version {
			t.Fatalf("replay out of version order: %d then %d", got[i-1].Version, ev.Version)
		}
	}
	// Live tail still flows after the replayed prefix.
	s.Create(robj{Name: "c", Val: 9})
	live := collect(t, ch, 1)
	if live[0].Type != Added || live[0].Object.Name != "c" {
		t.Fatalf("live event = %+v, want ADDED c", live[0])
	}
}

// TestWatchFromNoDuplicates floods mutations while a resume is opening and
// asserts every version arrives exactly once — the journal/live overlap
// window must dedupe.
func TestWatchFromNoDuplicates(t *testing.T) {
	s := newObjStore()
	s.Create(robj{Name: "k"})
	mark := s.Marks()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Update("k", func(o robj) (robj, error) { o.Val++; return o, nil })
		}
	}()
	ch, cancel, err := s.WatchFrom(mark, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	<-done
	got := collect(t, ch, 200)
	seen := make(map[int64]bool, len(got))
	for _, ev := range got {
		if seen[ev.Version] {
			t.Fatalf("version %d delivered twice", ev.Version)
		}
		seen[ev.Version] = true
	}
}

// TestWatchFromCompacted shrinks the journal, overflows one shard, and
// checks that resuming below the eviction horizon fails with ErrCompacted
// while resuming at the head still works.
func TestWatchFromCompacted(t *testing.T) {
	s := newObjStore()
	s.SetJournalCap(8)
	s.Create(robj{Name: "k"})
	mark := s.Marks()
	for i := 0; i < 50; i++ {
		s.Update("k", func(o robj) (robj, error) { o.Val++; return o, nil })
	}
	if _, _, err := s.WatchFrom(mark, 16); !errors.Is(err, ErrCompacted) {
		t.Fatalf("resume below horizon: err = %v, want ErrCompacted", err)
	}
	// A mark vector of the wrong length cannot be resumed either.
	if _, _, err := s.WatchFrom([]int64{0}, 16); !errors.Is(err, ErrCompacted) {
		t.Fatalf("resume with wrong-length marks: err = %v, want ErrCompacted", err)
	}
	// Resuming from the current head is always possible.
	ch, cancel, err := s.WatchFrom(s.Marks(), 16)
	if err != nil {
		t.Fatalf("resume at head: %v", err)
	}
	defer cancel()
	s.Update("k", func(o robj) (robj, error) { o.Val = -1; return o, nil })
	got := collect(t, ch, 1)
	if got[0].Object.Val != -1 {
		t.Fatalf("live event after head resume = %+v", got[0])
	}
}

// TestNoJournal: a store told to keep no journal (the ones nobody resumes
// from) answers a resume from behind any mutation with ErrCompacted rather
// than an empty replay, and still resumes at the head.
func TestNoJournal(t *testing.T) {
	s := newObjStore()
	s.SetJournalCap(0)
	mark := s.Marks()
	s.Create(robj{Name: "k"})
	if _, _, err := s.WatchFrom(mark, 16); !errors.Is(err, ErrCompacted) {
		t.Fatalf("resume behind a mutation: err = %v, want ErrCompacted", err)
	}
	ch, cancel, err := s.WatchFrom(s.Marks(), 16)
	if err != nil {
		t.Fatalf("resume at head: %v", err)
	}
	defer cancel()
	s.Update("k", func(o robj) (robj, error) { o.Val = 7; return o, nil })
	if got := collect(t, ch, 1); got[0].Object.Val != 7 {
		t.Fatalf("live event after head resume = %+v", got[0])
	}
}

// TestWatchFromOverflowCloses pins the resumable watcher's no-silent-loss
// contract: a consumer that falls more than the buffer behind has its
// stream closed (so it resumes from its token) instead of losing events.
func TestWatchFromOverflowCloses(t *testing.T) {
	s := newObjStore()
	s.Create(robj{Name: "k"})
	ch, cancel, err := s.WatchFrom(s.Marks(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Nobody drains ch; the forwarding goroutine eventually blocks on it
	// with its live buffer full, and the next emit closes the live channel.
	for i := 0; i < 64; i++ {
		s.Update("k", func(o robj) (robj, error) { o.Val++; return o, nil })
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed, as promised
			}
		case <-deadline:
			t.Fatal("overflowed resumable watch never closed")
		}
	}
}

// TestDeleteFunc covers the conditional delete: the check sees the live
// object and version, a rejection aborts, and acceptance emits DELETED.
func TestDeleteFunc(t *testing.T) {
	s := newObjStore()
	_, err := s.Create(robj{Name: "a", Val: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, v, _ := s.Get("a")
	wantErr := fmt.Errorf("nope")
	if err := s.DeleteFunc("a", func(o robj, version int64) error {
		if o.Val != 7 || version != v {
			t.Fatalf("check saw (%+v, %d), want (Val 7, %d)", o, version, v)
		}
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("rejected delete err = %v", err)
	}
	if _, _, err := s.Get("a"); err != nil {
		t.Fatalf("object vanished after rejected delete: %v", err)
	}
	ch, cancelW := s.Watch(4)
	defer cancelW()
	if err := s.DeleteFunc("a", func(robj, int64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("a"); err == nil {
		t.Fatal("object survived accepted delete")
	}
	select {
	case ev := <-ch:
		if ev.Type != Deleted || ev.Object.Name != "a" {
			t.Fatalf("event = %+v, want DELETED a", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no DELETED event")
	}
	var nf ErrNotFound
	if err := s.DeleteFunc("a", func(robj, int64) error { return nil }); !errors.As(err, &nf) {
		t.Fatalf("missing-object DeleteFunc err = %v, want ErrNotFound", err)
	}
}
