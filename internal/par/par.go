// Package par provides the one bounded fan-out of the concurrent
// scheduling pipeline: the Meta Server's misses, the scheduler's ranks
// and per-node scores, and the dispatcher's spec classes all run through
// ForEach.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Limit is a pool of slots shared by every ForEach that runs under it:
// together they hold at most cap(l) calls at once.
type Limit chan struct{}

// NewLimit returns a limit of n slots (n <= 0 means GOMAXPROCS).
func NewLimit(n int) Limit {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return make(Limit, n)
}

// ForEach runs fn(k) for every k in [0, n) and returns when all calls have
// returned; fn must write only caller-owned, index-disjoint slots. Each
// call holds one of lim's slots (a nil lim is a limit of GOMAXPROCS slots
// of this call's own). When there is one call or one slot, the calls run
// in order on the caller; otherwise on at most min(n, cap(lim))
// goroutines.
func ForEach(n int, lim Limit, fn func(k int)) {
	if n <= 0 {
		return
	}
	if lim == nil {
		if n == 1 {
			fn(0)
			return
		}
		lim = NewLimit(0)
	}
	workers := min(n, cap(lim))
	if workers == 1 {
		for k := 0; k < n; k++ {
			hold(lim, fn, k)
		}
		return
	}
	var run struct {
		wg   sync.WaitGroup
		next atomic.Int64
	}
	run.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer run.wg.Done()
			for k := int(run.next.Add(1)) - 1; k < n; k = int(run.next.Add(1)) - 1 {
				hold(lim, fn, k)
			}
		}()
	}
	run.wg.Wait()
}

// hold runs fn(k) holding one of lim's slots.
func hold(lim Limit, fn func(int), k int) {
	lim <- struct{}{}
	defer func() { <-lim }()
	fn(k)
}
