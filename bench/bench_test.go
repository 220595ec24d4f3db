package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/fidelity"
)

const testWindow = 20 * time.Second

func planBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	p, err := buildPlan(spec, seed, testWindow)
	if err != nil {
		t.Fatalf("buildPlan(%s, %d): %v", name, seed, err)
	}
	// Names, tenants, QASM, strategy and due offsets: the whole request
	// stream the daemon would see.
	raw, err := json.Marshal(struct {
		Setup  any
		Window []request
	}{p.Setup, p.Window})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// BENCHMARK.json is what the driver reads and the catalogue is what the
// harness runs: the two must name the same workloads.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range def.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, workloadNames()) {
		t.Errorf("BENCHMARK.json lists %v, the harness runs %v", listed, workloadNames())
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		a, b := planBytes(t, w.Name, 7), planBytes(t, w.Name, 7)
		if string(a) != string(b) {
			t.Errorf("%s: two plans from seed 7 differ", w.Name)
		}
		if c := planBytes(t, w.Name, 8); string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 produce the same plan", w.Name)
		}
	}
}

func TestOpenLoopOffersExactlyRateTimesWindow(t *testing.T) {
	spec, _ := findWorkload("steady-warm")
	for seed := int64(1); seed <= 5; seed++ {
		p, err := buildPlan(spec, seed, testWindow)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(spec.Rate * testWindow.Seconds()); len(p.Window) != want {
			t.Fatalf("seed %d: %d window requests, want %d", seed, len(p.Window), want)
		}
		last := time.Duration(-1)
		for i, r := range p.Window {
			if r.Due < last || r.Due < 0 || r.Due >= testWindow {
				t.Fatalf("seed %d: request %d due at %v (previous %v, window %v)", seed, i, r.Due, last, testWindow)
			}
			last = r.Due
		}
	}
}

// Set-up must leave every fingerprint the window will use in the score
// cache, or a "warm" workload measures cold sweeps.
func TestSetupCoversEveryWindowFingerprint(t *testing.T) {
	type key struct{ strategy, source string }
	spec, _ := findWorkload("steady-warm")
	p, err := buildPlan(spec, 3, testWindow)
	if err != nil {
		t.Fatal(err)
	}
	// Topology scoring reads the topology only.
	keyOf := func(r client.SubmitRequest) key {
		if r.TopologyQASM != "" {
			return key{string(r.Strategy), r.TopologyQASM}
		}
		return key{string(r.Strategy), r.QASM}
	}
	warmed := map[key]bool{}
	for _, r := range p.Setup {
		warmed[keyOf(r)] = true
	}
	for _, r := range p.Window {
		if !warmed[keyOf(r.Req)] {
			t.Errorf("%s (%s strategy): fingerprint never warmed in set-up", r.Req.JobName, r.Req.Strategy)
		}
	}
}

func TestColdSweepNeverRepeatsAFingerprint(t *testing.T) {
	spec, _ := findWorkload("cold-sweep")
	est := fidelity.Estimator{Shots: 2048, Seed: 1}
	seen := map[string]string{}
	for _, seed := range []int64{1, 2} {
		p, err := buildPlan(spec, seed, testWindow)
		if err != nil {
			t.Fatal(err)
		}
		reqs := append([]request(nil), p.Window...)
		for _, r := range p.Setup {
			reqs = append(reqs, request{Req: r})
		}
		for _, r := range reqs {
			fp := est.CanaryFingerprint(r.Req.QASM)
			if prev, dup := seen[fp]; dup {
				t.Fatalf("jobs %s and %s share a canary fingerprint", prev, r.Req.JobName)
			}
			seen[fp] = r.Req.JobName
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {62.5, 35},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if vals[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
}

func TestHighestGuardedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestGuardedPercentile(c.n); got != c.want {
			t.Errorf("highestGuardedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The driver computes the spread with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 7, 9.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 4, 2, 3, 6, 8}, 2, 4, 6},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// One unit that was on the core when the hypervisor took it away must not
// move a phase's slowdown, and samples outside the phase must not count.
func TestSlowdownTrimsAndWindows(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }
	h := &hostSpeed{}
	for i := 0; i < 20; i++ {
		cpu := refUnit * 5 / 4
		if i == 7 {
			cpu = 100 * refUnit
		}
		h.samples = append(h.samples, speedSample{at(200 * i), cpu})
	}
	h.samples = append(h.samples, speedSample{at(200 * 20), 3 * refUnit}) // after the phase
	if got := h.slowdown(at(0), at(200*19)); math.Abs(got-1.25) > 1e-9 {
		t.Errorf("slowdown = %g, want 1.25", got)
	}
	if got := h.slowdown(at(5000), at(6000)); got != 1 {
		t.Errorf("slowdown over an interval without samples = %g, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b, overlapping a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c, overhanging the parent", Start: 90, End: 140},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
		{ID: 6, Name: "childless", Start: 5, End: 12},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 50, // 100 − [10,50] − [90,100]
		2: 20,
		3: 10, // 30 − [25,45]
		4: 50,
		5: 20,
		6: 7,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSplitStagesSumToLatency(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }
	r := &jobRec{
		due: at(0), sent: at(1), acked: at(5),
		seenScheduled: at(4), // the event overtook the ack
		startedAt:     at(9), finishedAt: at(12), seenTerminal: at(13),
	}
	s := splitStages(r)
	if s.latency != 13*time.Millisecond {
		t.Fatalf("latency %v, want 13ms", s.latency)
	}
	if sum := s.ack + s.queue + s.claim + s.run + s.lag; sum != s.latency {
		t.Fatalf("stages sum to %v, latency is %v", sum, s.latency)
	}
	if s.queue != 0 || s.claim != 4*time.Millisecond || s.run != 3*time.Millisecond {
		t.Fatalf("queue %v claim %v run %v, want 0 4ms 3ms", s.queue, s.claim, s.run)
	}
}

func TestParseProc(t *testing.T) {
	stat := []byte("4242 (qrio (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 25 0 0 20 0 9 0 100 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 1750*time.Millisecond {
		t.Errorf("parseProcStatCPU = %v, %v; want 1.75s", cpu, err)
	}
	if _, err := parseProcStatCPU([]byte("garbage")); err == nil {
		t.Error("parseProcStatCPU accepted garbage")
	}
	mb, err := parseVmHWM([]byte("Name:\tqrio\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || mb != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200", mb, err)
	}
}

func TestRouteOf(t *testing.T) {
	for in, want := range map[string]string{
		"/v1/jobs":               "POST /v1/jobs",
		"/v1/jobs/batch":         "POST /v1/jobs/batch",
		"/v1/jobs/sw1-w00001":    "POST /v1/jobs/{name}",
		"/v1/jobs/x/logs":        "POST /v1/jobs/{name}/logs",
		"/v1/nodes/ibm-1":        "POST /v1/nodes/{name}",
		"/v1/admin/durability":   "POST /v1/admin/durability",
		"/v1/score/batch":        "POST /v1/score/batch",
		"/v1/tenants/t-a":        "POST /v1/tenants/{name}",
		"/v1/health":             "POST /v1/health",
		"/v1/jobs/x/events/more": "POST /v1/jobs/{name}/events/more",
	} {
		if got := routeOf("POST", in); got != want {
			t.Errorf("routeOf(%s) = %q, want %q", in, got, want)
		}
	}
}

// TestSmokeSteadyWarm drives a 2-second steady-warm window against the
// in-process traced deployment, end to end: set-up, open-loop window, drain,
// audit, metrics, spans.
func TestSmokeSteadyWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a 100-device deployment")
	}
	spec, _ := findWorkload("steady-warm")
	// One family and no topology jobs: one cold sweep in set-up instead of
	// seven keeps the smoke inside the test budget.
	spec.Families = []string{"ghz"}
	spec.TopologyEvery = 0
	spec.SetupJobs = 2
	window := 2 * time.Second
	p, err := buildPlan(spec, 1, window)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	dep, err := startTraced("127.0.0.1:0", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	eng := newEngine(dep.URL(), p, window)
	defer eng.closeWatch()
	host := startHostSpeed()
	defer host.Stop()
	d, err := drive(ctx, dep, eng, host, t0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.closeWatch()
	if err := dep.Stop(); err != nil {
		t.Fatalf("stopping the deployment: %v", err)
	}
	if len(d.audit.Errors) > 0 {
		t.Fatalf("audit failed: %v", d.audit.Errors)
	}
	m := eng.measure()
	want := int(spec.Rate * window.Seconds())
	if m.attempted != want || m.failed != 0 || m.completed != want {
		t.Fatalf("attempted %d failed %d completed %d, want %d 0 %d", m.attempted, m.failed, m.completed, want, want)
	}
	e2e := endToEnd(m, d, d.setupSlow, d.windowSlow)
	for name, v := range e2e {
		if !(v.Value > 0) {
			t.Errorf("end-to-end metric %s = %g, want > 0", name, v.Value)
		}
	}
	layers := clientLayerMetrics(eng, m, d)
	d.tracedLayerMetrics(layers, m)
	if got := layers["gateway.requests"].Value; got < float64(want) {
		t.Errorf("gateway.requests = %g, want at least the %d submissions", got, want)
	}
	if got := layers["meta.cache_hit_frac"].Value; got < 0.99 {
		t.Errorf("meta.cache_hit_frac = %g on a warm workload", got)
	}
	names := map[string]int{}
	for _, s := range dep.rec.snapshot() {
		names[s.Name]++
	}
	for _, n := range []string{"gateway POST /v1/jobs", "sched.score", "meta.score"} {
		if names[n] == 0 {
			t.Errorf("no %q span recorded (have %v)", n, names)
		}
	}
	if names["sched.score"] != names["meta.score"] {
		t.Errorf("%d sched.score spans but %d meta.score spans", names["sched.score"], names["meta.score"])
	}
}
