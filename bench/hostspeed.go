package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are small guests on shared cores, and
// the speed at which such a guest executes instructions is not its own: it
// steps up and down by a quarter to a third, minutes at a time, with what
// its neighbours on the host are doing (BASELINE.md shows one such step in
// the middle of a series of runs). Every time the daemon spends — latency,
// CPU per job, set-up — rides those steps, so two runs of the same code ten
// minutes apart differ by more than any bound worth having.
//
// hostSpeed measures the speed the host actually gave this run: a fixed
// unit of work that is no part of the program under test, executed on a
// thread of the load generator five times a second from spawn to the end of
// the drain (a 2 % duty cycle on one core), each execution timed in the
// thread's own CPU time, so what is measured is how fast the host retires
// the unit's instructions and not how long the thread waited for a core.
// The run's time metrics are then stated at the reference speed: divided by
// the slowdown of the phase they were measured in.
type hostSpeed struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

type speedSample struct {
	at  time.Time
	cpu time.Duration // thread CPU time one unit took
}

const (
	speedPeriod = 200 * time.Millisecond
	// refUnit is the unit's CPU time at the reference speed: what this
	// class of machine (2 shared cores of a KVM guest) gives in its fast
	// state. Only ratios to it are used, so on another machine it merely
	// rescales every time metric by one constant.
	refUnit = 4 * time.Millisecond

	unitSteps = 1 << 19
	// 4 MiB of uint64: larger than a core's L2, so the walk lives in the
	// L3 the guest shares with its neighbours. That is where most of the
	// daemon's own slowdown comes from: a table that fits L2 slows down
	// about half as much as the daemon does when the host gets busy (in
	// logarithms), this one by the same amount.
	unitWords = 1 << 19
)

// speedSink keeps the unit's result alive so the compiler cannot drop it.
var speedSink uint64

// speedUnit is the fixed unit of work: a xorshift walk over a 4 MiB table
// with an integer update and a floating-point square root per step.
func speedUnit(table []uint64) uint64 {
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < unitSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (unitWords - 1)
		table[j] += x
		acc += math.Sqrt(float64(table[j]&0xffff) + 1)
	}
	return x + uint64(acc)
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the calling thread's cumulative CPU time, read from the
// scheduler's nanosecond accounting (getrusage's figures advance a timer
// tick at a time, coarser than one unit).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// startHostSpeed begins sampling on a thread of its own.
func startHostSpeed() *hostSpeed {
	h := &hostSpeed{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// The CPU clock read is per thread: the goroutine must not move
		// between the two readings around a unit.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		table := make([]uint64, unitWords)
		speedSink += speedUnit(table) // first touch of the table is not a sample
		tick := time.NewTicker(speedPeriod)
		defer tick.Stop()
		for {
			at := time.Now()
			c0 := threadCPU()
			speedSink += speedUnit(table)
			cpu := threadCPU() - c0
			h.mu.Lock()
			h.samples = append(h.samples, speedSample{at, cpu})
			h.mu.Unlock()
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// Stop ends sampling and waits for the sampler to exit. Idempotent.
func (h *hostSpeed) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

// slowdown reports how much slower than the reference speed the host ran
// between from and to: the mean unit time of the samples taken in that
// interval, without the fastest and the slowest tenth, ÷ refUnit (1.25 = a
// quarter slower). The trimming is for the rare unit that is on the core
// when the hypervisor takes it away for a fifth of a second: the guest
// books that as the thread's CPU time, and one such unit among the thirty of
// a set-up would otherwise double its mean. With no sample in the interval
// it reports 1.
func (h *hostSpeed) slowdown(from, to time.Time) float64 {
	h.mu.Lock()
	var units []float64
	for _, s := range h.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			units = append(units, float64(s.cpu))
		}
	}
	h.mu.Unlock()
	if len(units) == 0 {
		return 1
	}
	sort.Float64s(units)
	trim := len(units) / 10
	return mean(units[trim:len(units)-trim]) / float64(refUnit)
}

// unitsUS lists every sample's unit time in microseconds, in order, for the
// saved result.
func (h *hostSpeed) unitsUS() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int64, len(h.samples))
	for i, s := range h.samples {
		out[i] = s.cpu.Microseconds()
	}
	return out
}
