// Fault-storm harness: a full orchestrator (core.New — scheduler,
// controller, kubelets, durability, /v1 gateway over real HTTP) is
// flooded with submissions while its dependency edges fail on purpose
// through the internal/faults registry:
//
//   - the Meta-Server scorer dies mid-flood (meta.score) — the circuit
//     breaker must open, scheduling must continue on degraded scores with
//     one SchedulingDegraded event, and after the outage the breaker must
//     probe closed again on virtual time;
//   - the client's network flaps (httpx.roundtrip) — the retry policy
//     must absorb it;
//   - WAL appends and archive spill writes fail (wal.append,
//     archive.spill) — the durability layer must latch and surface both
//     without taking the cluster down;
//   - a flooding tenant hits its token-bucket rate limit — held to the
//     bucket, with a correct Retry-After;
//   - the storm ends in a SIGTERM-style drain — no acked job may be
//     lost, nothing may stay parked in Scheduled, and the final snapshot
//     must be clean.
//
// Runs under -race via `make chaos-faults`.
package chaostest

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/cluster/state"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/faults"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/httpx"
	"qrio/internal/resilience"
)

// lockedClock is a mutex-protected virtual clock (clock.Clock requires a
// concurrency-safe Now). The breaker runs its outage cool-down on it, so
// "30 seconds of open circuit" costs the test no wall time.
type lockedClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *lockedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// storm owns the deployment under test.
type storm struct {
	t      *testing.T
	q      *core.QRIO
	cl     *client.Client
	reg    *faults.Registry
	vclock *lockedClock
	acked  sync.Map // job name → struct{} — every submission the gateway 200'd
}

func newStorm(t *testing.T) *storm {
	t.Helper()
	var fleet []*device.Backend
	for i := 0; i < 4; i++ {
		b, err := device.UniformBackend(fmt.Sprintf("dev-%d", i), graph.Ring(8), 0.05, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	s := &storm{
		t:      t,
		reg:    faults.NewRegistry(0xC0FFEE),
		vclock: &lockedClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)},
	}
	q, err := core.New(core.Config{
		Backends:        fleet,
		Concurrency:     4,
		NodeConcurrency: 2,
		KubeletSeed:     1,
		TenantRateLimits: api.TenantRateLimitPolicy{
			Tenants: map[string]api.TenantRateLimit{
				"flood": {SubmitPerSecond: 2, Burst: 2},
			},
		},
		Faults: s.reg,
		// The scorer breaker alone runs on virtual time; the rest of the
		// cluster (heartbeats, stuck detection, retention) stays on the wall
		// clock so the lifecycle machinery is exercised as deployed.
		Breaker: &resilience.Breaker{
			FailureThreshold: 3,
			OpenTimeout:      30 * time.Second,
			Clock:            s.vclock,
		},
		Retention:  state.RetentionPolicy{MaxTerminalCount: 20},
		Durability: durability.Options{Dir: t.TempDir(), Fsync: false, SnapshotInterval: -1, Faults: s.reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.q = q
	q.Start()
	t.Cleanup(func() { q.Close() })
	srv := httptest.NewServer(gateway.New(q).Handler())
	t.Cleanup(srv.Close)
	s.cl = client.New(srv.URL)
	// Route the client through the fault registry so httpx.roundtrip storms
	// hit it, and opt in to POST retries (submissions are name-deduplicated
	// server-side) so the flapping-network phase must be absorbed by the
	// retry policy, not by test-side resubmission.
	s.cl.HTTP = httpx.NewClient(0, s.reg)
	s.cl.Retry.RetryNonIdempotent = true
	s.cl.Retry.BaseDelay = time.Millisecond
	s.cl.Retry.MaxDelay = 10 * time.Millisecond
	s.cl.Retry.MaxAttempts = 5
	return s
}

// submit pushes one job through the gateway and records the ack. A
// conflict counts as acked: it means a retried POST's first attempt
// landed.
func (s *storm) submit(name, tenant string) error {
	_, err := s.cl.Submit(context.Background(), client.SubmitRequest{
		JobName: name, Tenant: tenant, QASM: qasmSrc, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: 1,
	})
	if err != nil && !client.IsConflict(err) {
		return err
	}
	s.acked.Store(name, struct{}{})
	return nil
}

// mustSubmit fails the test on a rejected submission.
func (s *storm) mustSubmit(name, tenant string) {
	s.t.Helper()
	if err := s.submit(name, tenant); err != nil {
		s.t.Fatalf("submit %s: %v", name, err)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func (s *storm) waitFor(what string, timeout time.Duration, cond func() bool) {
	s.t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			s.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settled reports whether every acked job is terminal — resident or
// archived.
func (s *storm) settled() bool {
	done := true
	s.acked.Range(func(k, _ any) bool {
		name := k.(string)
		if s.q.State.Archived.Has(name) {
			return true
		}
		j, _, err := s.q.State.Jobs.Get(name)
		if err != nil || !j.Status.Phase.Terminal() {
			done = false
			return false
		}
		return true
	})
	return done
}

// TestFaultStorm is the dependency-failure proof: every resilience layer
// added for outages — retry, breaker, degraded scoring, rate limit,
// WAL/spill latching, drain — exercised against one live orchestrator.
func TestFaultStorm(t *testing.T) {
	s := newStorm(t)
	br := s.q.ScorerBreaker

	// Phase 1 — warm-up: healthy traffic populates the score cache the
	// degraded path will later serve from.
	for i := 0; i < 8; i++ {
		s.mustSubmit(fmt.Sprintf("warm-%02d", i), "alice")
	}
	s.waitFor("warm-up jobs to finish", 30*time.Second, s.settled)
	if got := br.State(); got != resilience.Closed {
		t.Fatalf("breaker %v after healthy warm-up, want closed", got)
	}

	// Phase 2 — flapping network: 30% of client round trips fail at the
	// transport while a burst of submissions flows. The retry policy must
	// absorb every flap (5 attempts vs p=0.3 ≈ 2 expected full failures per
	// million submissions).
	s.reg.Enable(faults.PointHTTPRoundTrip, faults.Spec{Probability: 0.3})
	for i := 0; i < 20; i++ {
		s.mustSubmit(fmt.Sprintf("flap-%02d", i), "bob")
	}
	s.reg.Disable(faults.PointHTTPRoundTrip)
	if fired := s.reg.Fired(faults.PointHTTPRoundTrip); fired == 0 {
		t.Fatal("network flap phase injected no faults — the storm is not reaching the transport")
	}

	// Phase 3 — scorer outage mid-flood: every Meta-Server scoring call
	// fails. The breaker must open, binds must continue on degraded scores,
	// and exactly one SchedulingDegraded event must be recorded.
	s.reg.Enable(faults.PointMetaScore, faults.Spec{})
	for i := 0; i < 24; i++ {
		s.mustSubmit(fmt.Sprintf("outage-%02d", i), "alice")
	}
	s.waitFor("breaker to open", 20*time.Second, func() bool { return br.State() == resilience.Open })
	s.waitFor("degraded binds to finish the flood", 60*time.Second, s.settled)
	degraded := 0
	for _, e := range s.q.State.EventsAbout("scheduler") {
		if e.Reason == "SchedulingDegraded" {
			degraded++
		}
	}
	if degraded != 1 {
		t.Fatalf("SchedulingDegraded events = %d, want exactly 1 for one outage", degraded)
	}

	// Phase 4 — recovery: the scorer heals, 30 virtual seconds pass, and
	// the next scoring pass probes the half-open circuit closed.
	s.reg.Disable(faults.PointMetaScore)
	s.vclock.Advance(31 * time.Second)
	probe := 0
	s.waitFor("breaker to close after the cool-down", 30*time.Second, func() bool {
		// Scoring only happens while a pending job is being ranked, so keep
		// a trickle of work flowing to carry the probe.
		s.mustSubmit(fmt.Sprintf("probe-%02d", probe), "bob")
		probe++
		time.Sleep(10 * time.Millisecond)
		return br.State() == resilience.Closed
	})
	if br.Opens() != 1 {
		t.Fatalf("breaker open episodes = %d, want 1", br.Opens())
	}

	// Phase 5 — flooding tenant: 12 instant submissions against a
	// 2/s-burst-2 bucket. The bucket admits the burst plus at most the
	// refill over the loop's elapsed time; everything else must be a typed
	// 429 with a usable Retry-After.
	flood := client.New(s.cl.BaseURL) // no POST retry: a 429 must surface, not be paced over
	start := time.Now()
	admitted, limited := 0, 0
	var retryAfter time.Duration
	for i := 0; i < 12; i++ {
		_, err := flood.Submit(context.Background(), client.SubmitRequest{
			JobName: fmt.Sprintf("flood-%02d", i), Tenant: "flood", QASM: qasmSrc, Shots: 64,
			Strategy: api.StrategyFidelity, TargetFidelity: 1,
		})
		if err == nil {
			s.acked.Store(fmt.Sprintf("flood-%02d", i), struct{}{})
			admitted++
			continue
		}
		if !client.IsRateLimited(err) {
			t.Fatalf("flood submission %d: %v, want rate_limited", i, err)
		}
		limited++
		if ra := client.RetryAfter(err); ra > retryAfter {
			retryAfter = ra
		}
	}
	elapsed := time.Since(start)
	budget := 2 + int(elapsed.Seconds()*2) + 1 // burst + refill + rounding slack
	if admitted > budget {
		t.Fatalf("flooding tenant got %d submissions through in %s (budget %d)", admitted, elapsed, budget)
	}
	if limited == 0 {
		t.Fatal("flooding tenant never hit the rate limit")
	}
	// An empty 2/s bucket refills a full token within 500ms, so the HTTP
	// delta-seconds header (ceiling, minimum 1) must say exactly 1s.
	if retryAfter != time.Second {
		t.Fatalf("rate-limit Retry-After = %s, want 1s", retryAfter)
	}

	// Phase 6 — storage faults: a WAL append failure and an archive spill
	// failure must both latch into the durability stats without disturbing
	// the in-memory cluster.
	s.reg.Enable(faults.PointWALAppend, faults.Spec{})
	s.mustSubmit("wal-victim", "alice")
	s.reg.Disable(faults.PointWALAppend)
	if st := s.q.Durability.Stats(); st.WALError == "" {
		t.Fatal("WAL fault did not latch into Stats().WALError")
	} else if !strings.Contains(st.WALError, "injected failure") {
		t.Fatalf("WALError = %q, want the injected failure", st.WALError)
	}
	s.reg.Enable(faults.PointArchiveSpill, faults.Spec{})
	spillFeed := 0
	s.waitFor("spill fault to latch", 30*time.Second, func() bool {
		// Keep terminal jobs flowing so the retention sweep keeps spilling.
		s.mustSubmit(fmt.Sprintf("spill-%02d", spillFeed), "bob")
		spillFeed++
		time.Sleep(5 * time.Millisecond)
		return s.q.Durability.Stats().SpillError != ""
	})
	s.reg.Disable(faults.PointArchiveSpill)

	// Phase 7 — drain: SIGTERM semantics. Intake must answer 503 draining,
	// in-flight work must finish, nothing may stay parked in Scheduled, and
	// the final snapshot must be clean (the rotation clears the latched WAL
	// error).
	s.q.BeginDrain()
	_, err := s.cl.Submit(context.Background(), client.SubmitRequest{
		JobName: "late", Tenant: "alice", QASM: qasmSrc, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: 1,
	})
	if !client.IsDraining(err) {
		t.Fatalf("submission during drain: %v, want draining", err)
	}
	requeued, err := s.q.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if requeued < 0 {
		t.Fatalf("requeued = %d", requeued)
	}
	if st := s.q.Durability.Stats(); st.WALError != "" {
		t.Fatalf("drain snapshot left a latched WAL error: %s", st.WALError)
	}

	// Invariant: zero acked jobs lost — every 200'd submission is resident
	// or archived, exactly once, and none is parked in Scheduled.
	total := 0
	s.acked.Range(func(k, _ any) bool {
		total++
		name := k.(string)
		j, _, hotErr := s.q.State.Jobs.Get(name)
		inHot := hotErr == nil
		inArchive := s.q.State.Archived.Has(name)
		switch {
		case !inHot && !inArchive:
			t.Errorf("acked job %s lost in the drain: in neither tier", name)
		case inHot && inArchive:
			t.Errorf("acked job %s duplicated across tiers", name)
		case inHot && j.Status.Phase == api.JobScheduled:
			t.Errorf("job %s still Scheduled after drain — unclaimed bind not requeued", name)
		}
		return true
	})
	if total == 0 {
		t.Fatal("storm acked no jobs")
	}

	// Invariant: the drain released every node slot it requeued or
	// finished.
	for i := 0; i < 4; i++ {
		n, _, err := s.q.State.Nodes.Get(fmt.Sprintf("dev-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if n = s.q.State.LiveNode(n); len(n.Status.RunningJobs) != 0 || n.Status.CPUMillisInUse != 0 || n.Status.MemoryMBInUse != 0 {
			t.Errorf("node %s accounting leaked through the drain: %+v", n.Name, n.Status)
		}
	}
	// The faults the storm armed must all have actually fired — a fault
	// point that silently stopped being threaded would pass every assertion
	// above while testing nothing.
	for _, point := range []string{faults.PointHTTPRoundTrip, faults.PointMetaScore,
		faults.PointWALAppend, faults.PointArchiveSpill} {
		if s.reg.Fired(point) == 0 {
			t.Errorf("fault point %s never fired during the storm", point)
		}
	}
}
