package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBoundUnderConcurrentInserts: four goroutines storing distinct keys
// through Load and Put never see the memo past its capacity, and it ends
// full. Run it under -race too.
func TestBoundUnderConcurrentInserts(t *testing.T) {
	const capacity = 64
	b := New[int, int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < 10*capacity; i += 4 {
				if i%2 == 0 {
					b.Put(i, i)
				} else if _, err := b.Load(i, func() (int, error) { return i, nil }); err != nil {
					t.Error(err)
					return
				}
				if n := b.Len(); n > capacity {
					t.Errorf("memo holds %d keys, capacity %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := b.Len(); n != capacity {
		t.Fatalf("memo holds %d keys, want it full at %d", n, capacity)
	}
}

// TestOldestFirst: past the capacity each new key evicts the oldest-inserted
// one, whether a key was read since or not.
func TestOldestFirst(t *testing.T) {
	b := New[int, string](3)
	for k := 0; k < 3; k++ {
		b.Put(k, "v")
	}
	b.Get(0) // a read does not refresh a key's age
	b.Put(3, "v")
	b.Put(4, "v")
	for k, want := range []bool{false, false, true, true, true} {
		if _, ok := b.Get(k); ok != want {
			t.Fatalf("after inserting 0..4 into 3 slots, holds %d: %t, want %t", k, ok, want)
		}
	}
}

// TestHeldKeyEvictsNothing: writing a key the memo holds replaces its value
// (Put) or keeps it (Load), evicts nothing and keeps the key's age.
func TestHeldKeyEvictsNothing(t *testing.T) {
	b := New[int, string](3)
	for k := 0; k < 3; k++ {
		b.Put(k, "old")
	}
	b.Put(0, "new")
	if v, err := b.Load(1, func() (string, error) { return "built", nil }); err != nil || v != "old" {
		t.Fatalf("Load of a held key = %q, %v; want the held %q", v, err, "old")
	}
	if v, _ := b.Get(0); v != "new" || b.Len() != 3 {
		t.Fatalf("Put of a held key: value %q, %d keys; want %q and 3", v, b.Len(), "new")
	}
	for k := 0; k < 3; k++ {
		if _, ok := b.Get(k); !ok {
			t.Fatalf("writing held keys evicted %d", k)
		}
	}
	b.Put(3, "v") // key 0 is still the oldest: the rewrite kept its age
	if _, ok := b.Get(0); ok {
		t.Fatal("a rewritten key moved behind younger ones")
	}
}

// TestFailedBuildIsNotStored: a build's error reaches the caller, and the
// next Load builds again.
func TestFailedBuildIsNotStored(t *testing.T) {
	b := New[string, int](4)
	fail := errors.New("build failed")
	builds := 0
	for i := 0; i < 3; i++ {
		_, err := b.Load("k", func() (int, error) { builds++; return 7, fail })
		if err != fail {
			t.Fatalf("Load error %v, want %v", err, fail)
		}
	}
	if _, ok := b.Get("k"); ok || builds != 3 || b.Len() != 0 {
		t.Fatalf("after three failed builds: held %t, %d builds, %d keys; want false, 3, 0", ok, builds, b.Len())
	}
	if v, err := b.Load("k", func() (int, error) { return 8, nil }); err != nil || v != 8 {
		t.Fatalf("Load after failures = %d, %v; want 8", v, err)
	}
}

// TestOneValuePerKey: goroutines racing to Load one missing key each build
// a distinct value, and all of them get the same one.
func TestOneValuePerKey(t *testing.T) {
	b := New[string, *int](4)
	const racers = 8
	var built atomic.Int64
	got := make([]*int, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[r], _ = b.Load("k", func() (*int, error) {
				built.Add(1)
				return new(int), nil
			})
		}()
	}
	close(start)
	wg.Wait()
	for r, p := range got {
		if p != got[0] {
			t.Fatalf("racer %d got %p, racer 0 %p: one key, two values (%d builds)", r, p, got[0], built.Load())
		}
	}
	if held, _ := b.Get("k"); held != got[0] {
		t.Fatal("the memo holds another value than its callers got")
	}
}

// testShared is a shared memo, registered as package initialisation
// registers every one.
var testShared = NewShared[int, int]("memo.test", 2)

// TestEmptyAndSizes: a shared memo is reported with its capacity, and Empty
// drops its keys.
func TestEmptyAndSizes(t *testing.T) {
	for k := 0; k < 5; k++ {
		testShared.Put(k, k)
	}
	find := func() Size {
		for _, s := range Sizes() {
			if s.Name == "memo.test" {
				return s
			}
		}
		t.Fatal("the shared memo is not reported")
		return Size{}
	}
	if s := find(); s.Len != 2 || s.Cap != 2 {
		t.Fatalf("Sizes reports %+v, want 2 of 2", s)
	}
	Empty()
	if _, ok := testShared.Get(4); ok || find().Len != 0 {
		t.Fatal("Empty left a key")
	}
	testShared.Put(9, 9)
	if v, ok := testShared.Get(9); !ok || v != 9 {
		t.Fatal("an emptied memo does not store")
	}
}
