package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

type obj struct {
	Name  string
	Value int
	Tags  []string
}

func deepCopy(o obj) obj {
	o.Tags = append([]string(nil), o.Tags...)
	return o
}

func newStore() *Store[obj] {
	return New(deepCopy, func(o obj) string { return o.Name })
}

func TestCRUD(t *testing.T) {
	s := newStore()
	if _, err := s.Create(obj{Name: "a", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(obj{Name: "a"}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	got, v, err := s.Get("a")
	if err != nil || got.Value != 1 || v == 0 {
		t.Fatalf("Get = %v, %d, %v", got, v, err)
	}
	if _, _, err := s.Get("zzz"); err == nil {
		t.Fatal("missing get succeeded")
	}
	if _, _, err := s.Update("a", func(o obj) (obj, error) {
		o.Value = 42
		return o, nil
	}); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get("a")
	if got.Value != 42 {
		t.Fatalf("update lost: %v", got)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err == nil {
		t.Fatal("double delete succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDeepCopyIsolation(t *testing.T) {
	s := newStore()
	in := obj{Name: "a", Tags: []string{"x"}}
	s.Create(in)
	in.Tags[0] = "mutated"
	got, _, _ := s.Get("a")
	if got.Tags[0] != "x" {
		t.Fatal("store kept caller's slice")
	}
	got.Tags[0] = "mutated-out"
	again, _, _ := s.Get("a")
	if again.Tags[0] != "x" {
		t.Fatal("store handed out its internal slice")
	}
}

// TestEventsShareTheInstalledObject: a mutation's event carries the object
// the store installed, not another copy — and stays intact afterwards, in the
// journal too, because an update installs a fresh object instead of touching
// the old one, even when its callback and its caller write through the
// slices they were handed.
func TestEventsShareTheInstalledObject(t *testing.T) {
	s := newStore()
	var hooked []WatchEvent[obj]
	s.OnEvent(func(ev WatchEvent[obj]) { hooked = append(hooked, ev) })
	s.Create(obj{Name: "a", Tags: []string{"v1"}})
	s.Peek("a", func(o obj, _ int64) {
		if &o.Tags[0] != &hooked[0].Object.Tags[0] {
			t.Error("create copied the installed object again for its event")
		}
	})
	next, _, err := s.Update("a", func(o obj) (obj, error) {
		o.Tags[0] = "v2"
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	next.Tags[0] = "caller's"
	s.Peek("a", func(o obj, _ int64) {
		if &o.Tags[0] != &hooked[1].Object.Tags[0] {
			t.Error("update copied the installed object again for its event")
		}
	})
	replay, cancel, err := s.WatchFrom(make([]int64, s.Shards()), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for i, want := range []string{"v1", "v2"} {
		if got := (<-replay).Object.Tags[0]; got != want || hooked[i].Object.Tags[0] != want {
			t.Fatalf("event %d carries %q (hook saw %q), want %q", i, got, hooked[i].Object.Tags[0], want)
		}
	}
	s.Delete("a")
	if got := hooked[2].Object.Tags[0]; got != "v2" {
		t.Fatalf("delete event carries %q, want the last installed object", got)
	}
}

func TestUpdateAbortsOnError(t *testing.T) {
	s := newStore()
	s.Create(obj{Name: "a", Value: 1})
	_, _, err := s.Update("a", func(o obj) (obj, error) {
		o.Value = 99
		return o, fmt.Errorf("nope")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	got, _, _ := s.Get("a")
	if got.Value != 1 {
		t.Fatal("aborted update persisted")
	}
}

func TestUpdateCannotRename(t *testing.T) {
	s := newStore()
	s.Create(obj{Name: "a"})
	if _, _, err := s.Update("a", func(o obj) (obj, error) {
		o.Name = "b"
		return o, nil
	}); err == nil {
		t.Fatal("rename via update accepted")
	}
}

func TestVersionsIncrease(t *testing.T) {
	s := newStore()
	v1, _ := s.Create(obj{Name: "a"})
	_, v2, _ := s.Update("a", func(o obj) (obj, error) { return o, nil })
	if v2 <= v1 {
		t.Fatalf("versions not monotonic: %d then %d", v1, v2)
	}
	if s.Version() != v2 {
		t.Fatalf("store version %d != last %d", s.Version(), v2)
	}
}

func TestWatchDeliversEvents(t *testing.T) {
	s := newStore()
	ch, cancel := s.Watch(16)
	defer cancel()
	s.Create(obj{Name: "a", Value: 1})
	s.Update("a", func(o obj) (obj, error) { o.Value = 2; return o, nil })
	s.Delete("a")
	want := []EventType{Added, Modified, Deleted}
	for i, w := range want {
		ev := <-ch
		if ev.Type != w {
			t.Fatalf("event %d = %s, want %s", i, ev.Type, w)
		}
		if ev.Object.Name != "a" {
			t.Fatalf("event %d object = %v", i, ev.Object)
		}
	}
}

func TestWatchCancelCloses(t *testing.T) {
	s := newStore()
	ch, cancel := s.Watch(1)
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after cancel")
	}
	cancel()                 // idempotent
	s.Create(obj{Name: "a"}) // must not panic with cancelled watcher
}

func TestSlowWatcherDropsNotBlocks(t *testing.T) {
	s := newStore()
	_, cancel := s.Watch(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			s.Create(obj{Name: fmt.Sprintf("n%d", i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-make(chan struct{}): // unreachable; compile-time placeholder
	}
	if s.Len() != 100 {
		t.Fatalf("writes blocked by slow watcher: %d stored", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newStore()
	s.Create(obj{Name: "counter", Value: 0})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				s.Update("counter", func(o obj) (obj, error) {
					o.Value++
					return o, nil
				})
			}
		}()
	}
	wg.Wait()
	got, _, _ := s.Get("counter")
	if got.Value != 1000 {
		t.Fatalf("lost updates: %d != 1000", got.Value)
	}
}

// --- sharded-store coverage ---------------------------------------------

// countingStore wraps the deep-copy callback with a counter so tests can
// assert how many copies an operation makes.
func countingStore(copies *atomic.Int64) *Store[obj] {
	return New(func(o obj) obj {
		copies.Add(1)
		return deepCopy(o)
	}, func(o obj) string { return o.Name })
}

// TestShardedConcurrentCreateUpdateWatch hammers the store from many
// goroutines across many keys while a watcher consumes the merged stream;
// run under -race this is the shard-lock correctness test. Per-key
// versions observed on the watch channel must be strictly increasing.
func TestShardedConcurrentCreateUpdateWatch(t *testing.T) {
	s := newStore()
	const writers = 8
	const keys = 64
	const updates = 25
	ch, cancel := s.Watch(writers * keys * (updates + 1))
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				name := fmt.Sprintf("w%d-k%d", w, k)
				if _, err := s.Create(obj{Name: name}); err != nil {
					t.Error(err)
					return
				}
				for u := 0; u < updates; u++ {
					if _, _, err := s.Update(name, func(o obj) (obj, error) {
						o.Value++
						return o, nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != writers*keys {
		t.Fatalf("Len = %d, want %d", got, writers*keys)
	}
	for w := 0; w < writers; w++ {
		for k := 0; k < keys; k++ {
			o, _, err := s.Get(fmt.Sprintf("w%d-k%d", w, k))
			if err != nil || o.Value != updates {
				t.Fatalf("w%d-k%d = %+v, %v (lost updates)", w, k, o, err)
			}
		}
	}
	// The merged watch stream must be per-key monotone in version.
	lastSeen := map[string]int64{}
	for {
		select {
		case ev := <-ch:
			if prev, ok := lastSeen[ev.Object.Name]; ok && ev.Version <= prev {
				t.Fatalf("key %s versions not monotone: %d then %d", ev.Object.Name, prev, ev.Version)
			}
			lastSeen[ev.Object.Name] = ev.Version
		default:
			if len(lastSeen) != writers*keys {
				t.Fatalf("watch saw %d keys, want %d", len(lastSeen), writers*keys)
			}
			return
		}
	}
}

// TestWatcherDropThenRelistRecovers: a watcher that falls behind loses
// events (never blocks writers) but recovers the full state via re-List —
// the level-triggered contract consumers like the scheduler cache rely on.
func TestWatcherDropThenRelistRecovers(t *testing.T) {
	s := newStore()
	ch, cancel := s.Watch(4)
	defer cancel()
	const total = 100
	for i := 0; i < total; i++ {
		if _, err := s.Create(obj{Name: fmt.Sprintf("n%d", i), Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	for {
		select {
		case <-ch:
			delivered++
			continue
		default:
		}
		break
	}
	if delivered >= total {
		t.Fatalf("expected drops with buffer 4, got all %d events", delivered)
	}
	if got := len(s.List()); got != total {
		t.Fatalf("re-List after drops returned %d objects, want %d", got, total)
	}
	// The drained watcher keeps receiving future events.
	s.Create(obj{Name: "late"})
	select {
	case ev := <-ch:
		if ev.Object.Name != "late" {
			t.Fatalf("post-drop event = %+v", ev.Object)
		}
	default:
		t.Fatal("watcher dead after drops")
	}
}

// TestListFuncCopiesOnlyKept: the predicate filters before the deep copy,
// so rejected objects cost nothing — the property the pending-job and
// kubelet scans depend on.
func TestListFuncCopiesOnlyKept(t *testing.T) {
	var copies atomic.Int64
	s := countingStore(&copies)
	const total = 100
	for i := 0; i < total; i++ {
		s.Create(obj{Name: fmt.Sprintf("n%d", i), Value: i})
	}
	copies.Store(0)
	kept := s.ListFunc(func(o obj) bool { return o.Value%2 == 0 })
	if len(kept) != total/2 {
		t.Fatalf("ListFunc kept %d, want %d", len(kept), total/2)
	}
	if got := copies.Load(); got != total/2 {
		t.Fatalf("ListFunc made %d copies, want %d (rejected objects must not be copied)", got, total/2)
	}
}

// TestRangeCopiesNothing: Range visits every object without a single deep
// copy and honours early stop.
func TestRangeCopiesNothing(t *testing.T) {
	var copies atomic.Int64
	s := countingStore(&copies)
	const total = 50
	for i := 0; i < total; i++ {
		s.Create(obj{Name: fmt.Sprintf("n%d", i)})
	}
	copies.Store(0)
	seen := 0
	s.Range(func(o obj, version int64) bool {
		if version <= 0 {
			t.Fatalf("object %s has version %d", o.Name, version)
		}
		seen++
		return true
	})
	if seen != total {
		t.Fatalf("Range visited %d, want %d", seen, total)
	}
	if copies.Load() != 0 {
		t.Fatalf("Range made %d copies, want 0", copies.Load())
	}
	seen = 0
	s.Range(func(obj, int64) bool { seen++; return false })
	if seen != 1 {
		t.Fatalf("early-stop Range visited %d, want 1", seen)
	}
}

// TestPeekCopiesNothing: Peek hands fn the stored object and its version
// without a deep copy, and reports a missing key without calling fn.
func TestPeekCopiesNothing(t *testing.T) {
	var copies atomic.Int64
	s := countingStore(&copies)
	v, _ := s.Create(obj{Name: "a", Value: 7})
	copies.Store(0)
	called := false
	if !s.Peek("a", func(o obj, version int64) { called = o.Value == 7 && version == v }) || !called {
		t.Fatal("Peek did not show the stored object at its version")
	}
	if s.Peek("zzz", func(obj, int64) { t.Fatal("fn called for a missing key") }) {
		t.Fatal("Peek reported a missing key as present")
	}
	if copies.Load() != 0 {
		t.Fatalf("Peek made %d copies, want 0", copies.Load())
	}
}

// TestOnEventHookSeesEveryMutation: hooks observe create/update/delete in
// per-key order with monotone versions — the contract the state-layer
// indexes are built on.
func TestOnEventHookSeesEveryMutation(t *testing.T) {
	var mu sync.Mutex
	var got []WatchEvent[obj]
	s := newStore()
	s.OnEvent(func(ev WatchEvent[obj]) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	s.Create(obj{Name: "a", Value: 1})
	s.Update("a", func(o obj) (obj, error) { o.Value = 2; return o, nil })
	s.Delete("a")
	want := []EventType{Added, Modified, Deleted}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d events, want %d", len(got), len(want))
	}
	var last int64
	for i, ev := range got {
		if ev.Type != want[i] {
			t.Fatalf("event %d = %s, want %s", i, ev.Type, want[i])
		}
		if ev.Version <= last {
			t.Fatalf("event %d version %d not monotone after %d", i, ev.Version, last)
		}
		last = ev.Version
	}
}

// TestEmptyListIsNotNil: HTTP handlers marshal List results straight to
// JSON; an empty store must encode as [] rather than null.
func TestEmptyListIsNotNil(t *testing.T) {
	s := newStore()
	if s.List() == nil {
		t.Fatal("List() on empty store returned nil")
	}
	if s.ListFunc(func(obj) bool { return true }) == nil {
		t.Fatal("ListFunc on empty store returned nil")
	}
}

func TestUpdateFuncCompareAndSwap(t *testing.T) {
	s := newStore()
	v0, err := s.Create(obj{Name: "a", Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	conflict := fmt.Errorf("version moved")
	cas := func(expect int64) func(obj, int64) error {
		return func(_ obj, v int64) error {
			if v != expect {
				return conflict
			}
			return nil
		}
	}
	// CAS at the current version succeeds and bumps the version.
	next, v1, err := s.UpdateFunc("a", cas(v0), func(o obj) (obj, error) {
		o.Value = 2
		return o, nil
	})
	if err != nil || next.Value != 2 || v1 <= v0 {
		t.Fatalf("UpdateFunc = %v, %d, %v", next, v1, err)
	}
	// A racer holding the stale version loses with exactly the check error,
	// and the object is untouched.
	if _, _, err := s.UpdateFunc("a", cas(v0), func(o obj) (obj, error) {
		o.Value = 99
		return o, nil
	}); err != conflict {
		t.Fatalf("stale CAS error = %v, want the check error", err)
	}
	got, v, _ := s.Get("a")
	if got.Value != 2 || v != v1 {
		t.Fatalf("object after failed CAS = %v at %d, want Value 2 at %d", got, v, v1)
	}
}

func TestUpdateFuncMissingAndMutateError(t *testing.T) {
	s := newStore()
	ok := func(obj, int64) error { return nil }
	if _, _, err := s.UpdateFunc("ghost", ok, func(o obj) (obj, error) { return o, nil }); err == nil {
		t.Fatal("UpdateFunc on a missing object succeeded")
	}
	if _, err := s.Create(obj{Name: "a", Value: 1}); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("mutate refused")
	if _, _, err := s.UpdateFunc("a", ok, func(obj) (obj, error) { return obj{}, boom }); err != boom {
		t.Fatalf("mutate error = %v, want passthrough", err)
	}
	if got, _, _ := s.Get("a"); got.Value != 1 {
		t.Fatalf("aborted UpdateFunc changed the object: %v", got)
	}
}

func TestUpdateFuncExactlyOneWinner(t *testing.T) {
	s := newStore()
	v0, err := s.Create(obj{Name: "job", Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	conflict := fmt.Errorf("conflict")
	var wins, conflicts atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, _, err := s.UpdateFunc("job",
				func(_ obj, v int64) error {
					if v != v0 {
						return conflict
					}
					return nil
				},
				func(o obj) (obj, error) {
					o.Value = r + 1
					return o, nil
				})
			if err == nil {
				wins.Add(1)
			} else if err == conflict {
				conflicts.Add(1)
			}
		}(r)
	}
	wg.Wait()
	if wins.Load() != 1 || conflicts.Load() != 7 {
		t.Fatalf("wins = %d conflicts = %d, want exactly 1 and 7", wins.Load(), conflicts.Load())
	}
}
