package sim

import (
	"bytes"
	"testing"
	"time"

	"qrio/internal/simload"
)

func smallConfig(seed int64) Config {
	return Config{
		Fleet: []FleetClass{
			{Name: "small", Count: 6, Qubits: 5, Slots: 2, TwoQErr: 0.01},
			{Name: "big", Count: 2, Qubits: 12, Slots: 2, TwoQErr: 0.02},
		},
		Profile: simload.Profile{
			Seed:     seed,
			Duration: simload.Duration(20 * time.Second),
			Cohorts: []simload.Cohort{
				{
					Tenant: "alice", Rate: 8,
					Mix:     []simload.Share{{Family: "ghz", Weight: 3}, {Family: "qft", Weight: 1}},
					Service: simload.ServiceModel{Mean: simload.Duration(400 * time.Millisecond), CV: 1},
				},
				{
					Tenant: "bob", Rate: 4,
					Mix:         []simload.Share{{Family: "circ_2", Weight: 1}},
					Service:     simload.ServiceModel{Mean: simload.Duration(600 * time.Millisecond), CV: 0.5},
					FailureRate: 0.1,
				},
			},
		},
		MaxTerminalResident: 50,
	}
}

func runReport(t *testing.T, cfg Config) *Report {
	t.Helper()
	eng, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSimEndToEnd drives a 20-virtual-second mixed workload through the
// real state/scheduler/controller and checks the books balance: every
// offered job drains to a final terminal phase, first binds are counted
// once, and the retention sweep keeps the hot store bounded.
func TestSimEndToEnd(t *testing.T) {
	rep := runReport(t, smallConfig(42))
	if rep.Submitted == 0 {
		t.Fatal("no jobs submitted")
	}
	if rep.Rejected != 0 {
		t.Fatalf("%d arrivals rejected", rep.Rejected)
	}
	if !rep.Drained {
		t.Fatalf("run did not drain: %d leftover", rep.Leftover)
	}
	if rep.Latency.Count != rep.Submitted {
		t.Fatalf("first binds %d != submitted %d", rep.Latency.Count, rep.Submitted)
	}
	var done int
	for _, name := range rep.TenantOrder {
		ts := rep.Tenants[name]
		done += ts.Succeeded + ts.Failed
	}
	if done != rep.Submitted {
		t.Fatalf("terminal count %d != submitted %d", done, rep.Submitted)
	}
	// bob's 10% failure rate flows through the real controller's retry
	// loop, so binds-with-retries must exceed first binds.
	if rep.Binds <= rep.Latency.Count {
		t.Fatalf("binds %d should exceed first binds %d (retries)", rep.Binds, rep.Latency.Count)
	}
	if rep.TerminalResident > 50 {
		t.Fatalf("terminal resident %d exceeds retention cap 50", rep.TerminalResident)
	}
	if rep.Archived == 0 {
		t.Fatal("retention sweep archived nothing")
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Fatalf("implausible latency stats: %+v", rep.Latency)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("no queue-depth samples")
	}
}

// TestSimDeterminism is the reproducibility contract: same seed and
// config → byte-identical summary and timeline artifacts; a different
// seed diverges.
func TestSimDeterminism(t *testing.T) {
	render := func(seed int64) []byte {
		rep := runReport(t, smallConfig(seed))
		var buf bytes.Buffer
		if err := rep.WriteSummaryMarkdown(&buf, "determinism"); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteTimelineCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(42), render(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different artifacts:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if bytes.Equal(a, render(43)) {
		t.Fatal("different seed produced identical artifacts")
	}
}

// TestSimTraceReplay: replaying a recorded trace reproduces the
// generated run exactly — the record/replay path is interchangeable with
// live generation.
func TestSimTraceReplay(t *testing.T) {
	cfg := smallConfig(7)
	lib, err := simload.DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := simload.NewStream(cfg.Profile, lib)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if _, err := simload.WriteTrace(&trace, stream); err != nil {
		t.Fatal(err)
	}

	live := runReport(t, cfg)
	eng, err := New(cfg, simload.TraceSource(&trace))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := live.WriteSummaryMarkdown(&a, "x"); err != nil {
		t.Fatal(err)
	}
	if err := replayed.WriteSummaryMarkdown(&b, "x"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("trace replay diverged from live generation:\n--- live ---\n%s\n--- replay ---\n%s", a.Bytes(), b.Bytes())
	}
}

// TestSimOverload: a fleet far too small for the offered load must not
// drain within the grace window, and the timeline must show the backlog
// growing — the signal capacity planning exists to surface.
func TestSimOverload(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Fleet = []FleetClass{{Name: "tiny", Count: 1, Qubits: 12, Slots: 1, TwoQErr: 0.01}}
	cfg.Profile.Cohorts[0].Rate = 50
	cfg.Profile.Cohorts[0].Service = simload.ServiceModel{Mean: simload.Duration(2 * time.Second)}
	cfg.DrainGrace = simload.Duration(5 * time.Second)
	rep := runReport(t, cfg)
	if rep.Drained {
		t.Fatal("overloaded run claims to have drained")
	}
	if rep.Leftover == 0 {
		t.Fatal("overloaded run reports no leftover jobs")
	}
	first, last := rep.Timeline[0], rep.Timeline[len(rep.Timeline)-1]
	if last.Pending <= first.Pending {
		t.Fatalf("backlog did not grow under overload: first=%+v last=%+v", first, last)
	}
}
