package par

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachSharedLimit: fan-outs sharing a limit together never run more
// calls at once than it has slots, and each calls fn once per index.
func TestForEachSharedLimit(t *testing.T) {
	lim := NewLimit(3)
	var running, peak atomic.Int32
	var wg sync.WaitGroup
	counts := make([][]int32, 4)
	for f := range counts {
		counts[f] = make([]int32, 50)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForEach(len(counts[f]), lim, func(k int) {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				counts[f][k]++
				running.Add(-1)
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > int32(cap(lim)) {
		t.Fatalf("%d calls ran at once under a limit of %d", p, cap(lim))
	}
	for f, c := range counts {
		if i := slices.IndexFunc(c, func(n int32) bool { return n != 1 }); i >= 0 {
			t.Fatalf("fan-out %d called index %d %d times", f, i, c[i])
		}
	}
	if len(lim) != 0 {
		t.Fatalf("%d slots still held after every fan-out returned", len(lim))
	}
}

// TestForEachOneSlotInOrder: with one slot, or one call under no limit,
// the calls run in index order on the caller.
func TestForEachOneSlotInOrder(t *testing.T) {
	var order []int
	ForEach(5, NewLimit(1), func(k int) { order = append(order, k) })
	ForEach(1, nil, func(k int) { order = append(order, 10+k) })
	if want := []int{0, 1, 2, 3, 4, 10}; !slices.Equal(order, want) {
		t.Fatalf("calls ran as %v, want %v", order, want)
	}
}
