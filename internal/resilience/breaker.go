// Package resilience holds QRIO's dependency-failure primitives. The
// circuit breaker here guards the scheduler's Meta-Server scoring path
// (see sched.ResilientMetaScore): consecutive scorer failures open the
// circuit so scheduling passes stop burning their budget on a dead
// dependency and switch to degraded scoring; after a cool-down the
// breaker lets a bounded number of probes through (half-open) and closes
// again once they succeed.
package resilience

import (
	"sync"
	"time"

	"qrio/internal/clock"
)

// State is a breaker's position.
type State int32

const (
	// Closed passes every call through (healthy dependency).
	Closed State = iota
	// Open short-circuits every call (dependency presumed down).
	Open
	// HalfOpen lets a bounded number of probe calls through to test
	// recovery.
	HalfOpen
)

// String renders the state for events and logs.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker. The zero value is
// usable: defaults are 5 consecutive failures to open, a 5s open
// cool-down, 1 successful probe to close, wall clock. Configure fields
// before first use; all methods are safe for concurrent use.
type Breaker struct {
	// FailureThreshold is how many consecutive failures open the circuit.
	FailureThreshold int
	// OpenTimeout is how long the circuit stays open before allowing
	// half-open probes.
	OpenTimeout time.Duration
	// HalfOpenProbes is both the number of concurrent probes half-open
	// admits and the consecutive successes required to close.
	HalfOpenProbes int
	// Clock is the breaker's time source (nil = wall clock) — the chaos
	// harness drives recovery on virtual time.
	Clock clock.Clock

	mu        sync.Mutex
	state     State
	failures  int       // consecutive failures while closed
	successes int       // consecutive probe successes while half-open
	inflight  int       // probes admitted while half-open
	openedAt  time.Time // when the circuit last opened
	opens     int64     // open episodes, for coalescing degraded events
}

func (b *Breaker) threshold() int {
	if b.FailureThreshold > 0 {
		return b.FailureThreshold
	}
	return 5
}

func (b *Breaker) cooldown() time.Duration {
	if b.OpenTimeout > 0 {
		return b.OpenTimeout
	}
	return 5 * time.Second
}

func (b *Breaker) probes() int {
	if b.HalfOpenProbes > 0 {
		return b.HalfOpenProbes
	}
	return 1
}

// Allow reports whether a call may proceed. Callers that get true MUST
// report the outcome with Record(err) — half-open tracks in-flight
// probes, and an unreported probe would wedge the circuit half-open.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if clock.Now(b.Clock).Sub(b.openedAt) < b.cooldown() {
			return false
		}
		b.state = HalfOpen
		b.successes = 0
		b.inflight = 1
		return true
	default: // HalfOpen
		if b.inflight >= b.probes() {
			return false
		}
		b.inflight++
		return true
	}
}

// Record reports the outcome of a call Allow admitted.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.record(err)
}

// RecordEach reports, in order, the outcomes of a batch Allow admitted as
// one call. A closed circuit counts each outcome as Record would, so
// enough consecutive failures inside one batch open it. A half-open batch
// is one probe: its first outcome settles the probe, as if the rest had
// not been admitted.
func (b *Breaker) RecordEach(errs []error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, err := range errs {
		probe := b.state == HalfOpen
		b.record(err)
		if probe {
			return
		}
	}
}

// record applies one outcome under b.mu.
func (b *Breaker) record(err error) {
	switch b.state {
	case Closed:
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold() {
			b.open()
		}
	case HalfOpen:
		if b.inflight > 0 {
			b.inflight--
		}
		if err != nil {
			// The dependency is still down: reopen and restart the
			// cool-down.
			b.open()
			return
		}
		b.successes++
		if b.successes >= b.probes() {
			b.state = Closed
			b.failures = 0
			b.successes = 0
			b.inflight = 0
		}
	case Open:
		// A straggler from before the circuit opened; nothing to learn.
	}
}

// open transitions to Open under b.mu.
func (b *Breaker) open() {
	b.state = Open
	b.openedAt = clock.Now(b.Clock)
	b.failures = 0
	b.successes = 0
	b.inflight = 0
	b.opens++
}

// State returns the breaker's current position. An expired open
// cool-down still reads Open until the next Allow converts it to a
// half-open probe.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens counts open episodes over the breaker's lifetime. Degraded-mode
// consumers use it to emit one event per outage instead of one per call.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
