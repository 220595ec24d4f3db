package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-protected virtual clock (the clock.Clock contract
// requires a concurrency-safe Now).
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

var errDown = errors.New("dependency down")

// fail records n failures through admitted calls.
func fail(t *testing.T, b *Breaker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !b.Allow() {
			t.Fatalf("Allow refused before threshold (failure %d)", i)
		}
		b.RecordEach([]error{errDown})
	}
}

// TestFullCycle walks closed → open → half-open → closed with the
// zero-value defaults (5 failures, 5s cool-down) on a virtual clock.
func TestFullCycle(t *testing.T) {
	fc := newFakeClock()
	b := &Breaker{Clock: fc}

	if b.State() != Closed {
		t.Fatalf("initial state = %v", b.State())
	}
	fail(t, b, 4)
	if b.State() != Closed {
		t.Fatalf("state after 4 failures = %v, want closed", b.State())
	}
	fail(t, b, 1)
	if b.State() != Open {
		t.Fatalf("state after 5th failure = %v, want open", b.State())
	}
	if b.Opens() != 1 {
		t.Fatalf("Opens = %d, want 1", b.Opens())
	}
	if b.Allow() {
		t.Fatal("open circuit admitted a call inside the cool-down")
	}

	fc.Advance(5 * time.Second)
	if !b.Allow() {
		t.Fatal("cool-down expired but probe refused")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open admitted a second call while its probe is out")
	}
	b.RecordEach([]error{nil})
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	// Recovery also resets the consecutive-failure count.
	fail(t, b, 4)
	if b.State() != Closed {
		t.Fatalf("reclosed circuit opened after only 4 failures: %v", b.State())
	}
}

// TestFailedProbeReopens: a failed half-open probe restarts the full
// cool-down and counts a new open episode.
func TestFailedProbeReopens(t *testing.T) {
	fc := newFakeClock()
	b := &Breaker{FailureThreshold: 2, OpenTimeout: time.Second, Clock: fc}

	fail(t, b, 2)
	fc.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after cool-down")
	}
	b.RecordEach([]error{errDown})
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Opens() != 2 {
		t.Fatalf("Opens = %d, want 2", b.Opens())
	}
	// The cool-down restarted at the failed probe: half a period is not
	// enough.
	fc.Advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("reopened circuit admitted a call before the restarted cool-down expired")
	}
	fc.Advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("restarted cool-down expired but probe refused")
	}
	b.RecordEach([]error{nil})
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

// TestSuccessResetsFailureStreak: the breaker counts *consecutive*
// failures — an intervening success starts the count over.
func TestSuccessResetsFailureStreak(t *testing.T) {
	b := &Breaker{FailureThreshold: 3, Clock: newFakeClock()}
	for i := 0; i < 10; i++ {
		fail(t, b, 2)
		if !b.Allow() {
			t.Fatal("closed circuit refused")
		}
		b.RecordEach([]error{nil})
	}
	if b.State() != Closed {
		t.Fatalf("interleaved failures opened the circuit: %v", b.State())
	}
}

// TestStateStrings pins the event/log rendering.
func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestRecordEach: a batch admitted by one Allow records its outcomes in
// order — a success resets the closed circuit's failure run, and enough
// consecutive failures inside one batch open it — while a half-open
// batch is the one probe, settled by its first outcome.
func TestRecordEach(t *testing.T) {
	fc := newFakeClock()
	b := &Breaker{Clock: fc}
	b.Allow()
	b.RecordEach([]error{errDown, errDown, errDown, errDown, nil, errDown, errDown})
	if b.State() != Closed {
		t.Fatalf("state after a batch with no run of 5 failures = %v, want closed", b.State())
	}
	b.Allow()
	b.RecordEach([]error{errDown, errDown, errDown, nil, nil})
	if b.State() != Open || b.Opens() != 1 {
		t.Fatalf("state = %v after %d opens; the earlier batch's 2 failures plus 3 should open it", b.State(), b.Opens())
	}

	fc.Advance(5 * time.Second)
	if !b.Allow() {
		t.Fatal("no half-open admission after the cool-down")
	}
	b.RecordEach([]error{errDown, nil, nil})
	if b.State() != Open || b.Opens() != 2 {
		t.Fatalf("half-open batch failing first left %v after %d opens, want reopened", b.State(), b.Opens())
	}
	fc.Advance(5 * time.Second)
	if !b.Allow() {
		t.Fatal("no half-open admission after the second cool-down")
	}
	if b.Allow() {
		t.Fatal("half-open admitted a second batch while its probe is out")
	}
	b.RecordEach([]error{nil, errDown, errDown, errDown, errDown})
	if b.State() != Closed {
		t.Fatalf("state after a half-open batch succeeding first = %v, want closed", b.State())
	}
	// The probe's later outcomes were not counted: one more failure is the
	// closed circuit's first.
	b.RecordEach([]error{errDown})
	if b.State() != Closed {
		t.Fatalf("a probe's unsettled outcomes counted towards reopening: %v", b.State())
	}
}
