package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"
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

// marksNow returns the store's current per-shard marks: the position a
// watch from now starts at.
func marksNow[T any](s *Store[T]) []int64 {
	_, marks, cancel, _ := s.Watch(nil, 1)
	cancel()
	return marks
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
	mark := marksNow(s)
	// Three events after the mark: these must replay.
	s.Create(robj{Name: "b", Val: 1})
	s.Update("a", func(o robj) (robj, error) { o.Val = 2; return o, nil })
	s.Delete("b")

	ch, _, cancel, err := s.Watch(mark, 16)
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
// asserts every version arrives exactly once — the journal replay and the
// live tail must meet without overlap.
func TestWatchFromNoDuplicates(t *testing.T) {
	s := newObjStore()
	s.Create(robj{Name: "k"})
	mark := marksNow(s)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Update("k", func(o robj) (robj, error) { o.Val++; return o, nil })
		}
	}()
	ch, _, cancel, err := s.Watch(mark, 512)
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

// TestWatchRegistrationGapFree opens streams — from now and from the
// start marks of earlier streams — while writers churn keys on every
// shard. Each stream must see, per shard, every version after its start
// marks exactly once and in order: the journal replay and the live tail
// meet under the shard locks. A stream that fell behind may instead be
// closed early, so a slow reader's stream need only be a gap-free prefix;
// a stream whose buffer holds every write must be complete.
func TestWatchRegistrationGapFree(t *testing.T) {
	s := newObjStore()
	var histMu sync.Mutex
	hist := make([][]int64, s.Shards()) // each shard's emitted versions, in order
	s.OnEvent(func(ev WatchEvent[robj]) {
		histMu.Lock()
		hist[ev.Shard] = append(hist[ev.Shard], ev.Version)
		histMu.Unlock()
	})
	const writers, keys, updates = 4, 64, 8
	const total = writers * keys * (updates + 1)

	type stream struct {
		start    []int64
		complete bool      // its buffer holds every write: it cannot be closed early
		got      [][]int64 // per shard, in arrival order
		done     chan struct{}
	}
	var (
		streams []*stream
		cancels []func()
	)
	open := func(from []int64, complete bool) {
		buffer := 8
		if complete {
			buffer = total
		}
		ch, start, cancel, err := s.Watch(from, buffer)
		if err != nil {
			t.Fatalf("watch from %v: %v", from, err)
		}
		st := &stream{start: start, complete: complete, got: make([][]int64, s.Shards()), done: make(chan struct{})}
		streams, cancels = append(streams, st), append(cancels, cancel)
		go func() {
			defer close(st.done)
			for n := 1; ; n++ {
				ev, ok := <-ch
				if !ok {
					return
				}
				st.got[ev.Shard] = append(st.got[ev.Shard], ev.Version)
				if !complete && n%8 == 0 {
					time.Sleep(50 * time.Microsecond) // fall behind, often far enough to be closed
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				name := fmt.Sprintf("w%d-k%d", w, k)
				s.Create(robj{Name: name})
				for u := 0; u < updates; u++ {
					s.Update(name, func(o robj) (robj, error) { o.Val++; return o, nil })
				}
				time.Sleep(50 * time.Microsecond) // let streams open mid-write
			}
		}(w)
	}
	writing := make(chan struct{})
	go func() { wg.Wait(); close(writing) }()
	for i, opening := 0, true; opening && i < 64; i++ {
		var from []int64 // from now, or from an earlier stream's start
		if i%2 == 1 {
			from = streams[i/2].start
		}
		open(from, i%4 < 2)
		select {
		case <-writing:
			opening = false
		case <-time.After(100 * time.Microsecond):
		}
	}
	<-writing
	for _, cancel := range cancels {
		cancel()
	}
	for i, st := range streams {
		<-st.done
		for sh := range hist {
			var want []int64
			for _, v := range hist[sh] {
				if v > st.start[sh] {
					want = append(want, v)
				}
			}
			got := st.got[sh]
			if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) || (st.complete && len(got) != len(want)) {
				k := 0
				for k < len(got) && k < len(want) && got[k] == want[k] {
					k++
				}
				t.Fatalf("stream %d (complete=%v) shard %d from mark %d: %d versions, want %d; first difference at %d: got %v, want %v",
					i, st.complete, sh, st.start[sh], len(got), len(want), k, got[k:min(k+3, len(got))], want[k:min(k+3, len(want))])
			}
		}
	}
	if len(streams) < 8 {
		t.Fatalf("only %d streams opened during the writes", len(streams))
	}
}

// TestWatchFromCompacted shrinks the journal, overflows one shard, and
// checks that resuming below the eviction horizon fails with ErrCompacted
// while resuming at the head still works.
func TestWatchFromCompacted(t *testing.T) {
	s := newObjStore()
	s.SetJournalCap(8)
	s.Create(robj{Name: "k"})
	mark := marksNow(s)
	for i := 0; i < 50; i++ {
		s.Update("k", func(o robj) (robj, error) { o.Val++; return o, nil })
	}
	if _, _, _, err := s.Watch(mark, 16); !errors.Is(err, ErrCompacted) {
		t.Fatalf("resume below horizon: err = %v, want ErrCompacted", err)
	}
	// A mark vector of the wrong length cannot be resumed either.
	if _, _, _, err := s.Watch([]int64{0}, 16); !errors.Is(err, ErrCompacted) {
		t.Fatalf("resume with wrong-length marks: err = %v, want ErrCompacted", err)
	}
	// Resuming from the current head is always possible.
	ch, _, cancel, err := s.Watch(marksNow(s), 16)
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
	mark := marksNow(s)
	s.Create(robj{Name: "k"})
	if _, _, _, err := s.Watch(mark, 16); !errors.Is(err, ErrCompacted) {
		t.Fatalf("resume behind a mutation: err = %v, want ErrCompacted", err)
	}
	ch, _, cancel, err := s.Watch(marksNow(s), 16)
	if err != nil {
		t.Fatalf("resume at head: %v", err)
	}
	defer cancel()
	s.Update("k", func(o robj) (robj, error) { o.Val = 7; return o, nil })
	if got := collect(t, ch, 1); got[0].Object.Val != 7 {
		t.Fatalf("live event after head resume = %+v", got[0])
	}
}

// TestWatchFromOverflowCloses pins the no-silent-loss contract for a
// stream opened from marks: a consumer that falls more than the buffer behind has its
// stream closed (so it resumes from its token) instead of losing events.
func TestWatchFromOverflowCloses(t *testing.T) {
	s := newObjStore()
	s.Create(robj{Name: "k"})
	ch, _, cancel, err := s.Watch(marksNow(s), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Nobody drains ch; the emit that finds its buffer full closes it.
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
	ch, _, cancelW, _ := s.Watch(nil, 4)
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
