package qrio_test

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"qrio"
	"qrio/internal/memo"
)

// TestPublicAPIEndToEnd drives the entire system exclusively through the
// public facade — the path a downstream user takes.
func TestPublicAPIEndToEnd(t *testing.T) {
	spec := qrio.DefaultFleetSpec()
	spec.QubitCounts = []int{15, 20}
	fleet, err := qrio.GenerateFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 20 {
		t.Fatalf("fleet = %d devices", len(fleet))
	}
	q, err := qrio.New(qrio.Config{Backends: fleet})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()

	// Build a circuit with the public builders, round-trip through QASM.
	c := qrio.NewCircuit(4)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CX(2, 3)
	c.MeasureAll()
	src, err := qrio.DumpQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := qrio.ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumQubits != 4 {
		t.Fatalf("round trip lost qubits: %d", back.NumQubits)
	}

	job, res, err := q.SubmitAndWait(qrio.SubmitRequest{
		JobName:        "public-ghz",
		QASM:           src,
		Shots:          256,
		Strategy:       qrio.StrategyFidelity,
		TargetFidelity: 1.0,
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Phase != qrio.JobSucceeded {
		t.Fatalf("phase = %s", job.Status.Phase)
	}
	if res.Fidelity <= 0 || len(res.Counts) == 0 {
		t.Fatalf("result empty: %+v", res)
	}
}

func TestPublicTopologyHelpers(t *testing.T) {
	g, err := qrio.NamedTopology("ring", 5)
	if err != nil {
		t.Fatal(err)
	}
	topoQASM, err := qrio.TopologyQASM(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(topoQASM, "cx") {
		t.Fatalf("topology circuit has no cx gates:\n%s", topoQASM)
	}
	parsed, err := qrio.ParseQASM(topoQASM)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TwoQubitGateCount() != 5 {
		t.Fatalf("ring-5 topology circuit has %d cx", parsed.TwoQubitGateCount())
	}
	if _, err := qrio.NamedTopology("klein-bottle", 5); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestPublicWorkloads(t *testing.T) {
	for name, c := range map[string]*qrio.Circuit{
		"bv":     qrio.BernsteinVazirani(6, 0b10101),
		"ghz":    qrio.GHZ(5),
		"qft":    qrio.QFT(4),
		"grover": qrio.Grover(),
		"qaoa":   qrio.QAOARing(6, 1, 3),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPublicServers(t *testing.T) {
	g, err := qrio.NamedTopology("line", 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qrio.UniformBackend("pub", g, 0.05, 0.01, 0.02, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qrio.New(qrio.Config{Backends: []*qrio.Backend{b}})
	if err != nil {
		t.Fatal(err)
	}
	// Gateway + client round trip.
	gw := qrio.NewGateway(q)
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	nodes, err := qrio.NewClient(srv.URL).Nodes(t.Context())
	if err != nil || len(nodes) != 1 || nodes[0].Name != "pub" {
		t.Fatalf("nodes over public API = %v, %v", nodes, err)
	}
	// Visualizer handler serves the dashboard over the same gateway.
	viz := httptest.NewServer(qrio.NewVisualizer(gw).Handler())
	defer viz.Close()
	resp, err := viz.Client().Get(viz.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("visualizer /cluster = %d", resp.StatusCode)
	}
}

// TestColdJobResidency bounds what a finished job leaves behind. Every job
// here is a never-seen QAOA fingerprint on the default 100-device fleet
// (bench/'s cold-sweep shape), retention is off, so each one stays resident
// forever: its job, result, event trail and image, its Meta entry and a
// 100-slot score-cache row. The live heap after two GCs is read at two job
// counts; the slope is the cost of one more finished job (≈ 5.5 KB as JSON).
// The process-wide memos are bounded caches, not per-job state: each must
// hold no more than its cap, and each is emptied before the heap is read,
// so one still filling between the two reads is not counted as residency.
func TestColdJobResidency(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs 110 cold sweeps and reads the heap: not under -short or -race")
	}
	fleet, err := qrio.GenerateFleet(qrio.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	q, err := qrio.New(qrio.Config{Backends: fleet})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	// What a node builds once, the first time a job runs on it, is not a
	// job's: decode every device and its distance matrix up front.
	for _, b := range fleet {
		dev, err := q.State.Backend(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Coupling.DistanceMatrix(); err != nil {
			t.Fatal(err)
		}
	}
	submitted := 0
	liveAfter := func(jobs int) uint64 {
		for ; submitted < jobs; submitted++ {
			src, err := qrio.DumpQASM(qrio.QAOARing(5, 1, int64(7000+submitted)))
			if err != nil {
				t.Fatal(err)
			}
			job, _, err := q.SubmitAndWait(qrio.SubmitRequest{
				JobName: fmt.Sprintf("cold-%d", submitted), QASM: src, Shots: 128,
				Strategy: qrio.StrategyFidelity, TargetFidelity: 0.9,
			}, time.Minute)
			if err != nil || job.Status.Phase != qrio.JobSucceeded {
				t.Fatalf("job %d: %v (phase %s)", submitted, err, job.Status.Phase)
			}
		}
		for _, m := range memo.Sizes() {
			if m.Len > m.Cap {
				t.Fatalf("memo %s holds %d entries, cap %d", m.Name, m.Len, m.Cap)
			}
		}
		memo.Empty()
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const warm, measured = 50, 60
	before := liveAfter(warm)
	after := liveAfter(warm + measured)
	perJob := (float64(after) - float64(before)) / measured
	t.Logf("live heap %d → %d bytes over %d jobs: %.1f KB per finished cold job", before, after, measured, perJob/1024)
	if perJob > 12<<10 {
		t.Fatalf("a finished cold job keeps %.1f KB of live heap, want ≤ 12 KB", perJob/1024)
	}
}
