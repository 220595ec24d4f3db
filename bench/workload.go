package main

import (
	"fmt"
	"math/rand"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/quantum/qasm"
	"qrio/internal/simload"
	"qrio/internal/workload"
)

// loopKind says how a workload offers load.
type loopKind int

const (
	// openLoop sends on a seeded schedule regardless of completions; every
	// job is timed from the instant it was due.
	openLoop loopKind = iota
	// closedLoop keeps a fixed number of logical clients each with one job
	// in flight; a job is due the instant its client is free to send it.
	closedLoop
)

// workloadSpec is one benchmark workload. The names are the ones
// BENCHMARK.json, README.md and later issues cite.
type workloadSpec struct {
	Name string
	Kind loopKind
	// Rate is the open-loop arrival rate in jobs/s.
	Rate float64
	// Clients is the closed-loop logical client count.
	Clients int
	// Limit is the latency limit a job must meet to count towards goodput.
	Limit time.Duration
	// Families are the recurring circuit families (simload library names)
	// the workload draws from; empty for cold-sweep, whose every job is a
	// fresh fingerprint.
	Families []string
	// SetupJobs is the number of discarded warm-up jobs run in set-up.
	SetupJobs int
	// TopologyEvery submits every n-th job with the topology strategy on
	// line-4 (0 = never).
	TopologyEvery int
	// MaxRate bounds how many window requests are generated for a closed
	// loop (jobs/s the system could not plausibly exceed); the clients stop
	// early if the stream runs dry.
	MaxRate float64
}

var lightFamilies = []string{"ghz", "hsp", "rep", "qft", "grover", "circ"}

// workloads is the catalogue. Rates are sized so the open loop offers at
// most about a third of what the daemon sustains on a 2-core box, which
// keeps it from measuring its own backlog.
var workloads = []workloadSpec{
	{
		Name:          "steady-warm",
		Kind:          openLoop,
		Rate:          6,
		Limit:         250 * time.Millisecond,
		Families:      lightFamilies,
		SetupJobs:     60,
		TopologyEvery: 6,
	},
	{
		Name:      "cold-sweep",
		Kind:      closedLoop,
		Clients:   2,
		Limit:     5 * time.Second,
		SetupJobs: 4,
		MaxRate:   20,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

var tenants = []string{"t-a", "t-b", "t-c", "t-d"}

// Every job asks for a little classical capacity so the end-of-run audit of
// node reservations (zero CPU/memory in use) checks real bookkeeping.
const (
	jobCPUMillis = 250
	jobMemoryMB  = 128
)

// request is one generated submission. Due is the offset from the start of
// the measured window at which an open-loop request is to be sent; the
// other kinds decide the send instant at run time.
type request struct {
	Due time.Duration
	Req client.SubmitRequest
}

// plan is the complete, seed-determined input of one run: the daemon sees
// nothing but these requests.
type plan struct {
	Spec workloadSpec
	Seed int64
	// Setup are the discarded warm-up jobs.
	Setup []client.SubmitRequest
	// Window is the measured stream. Open loop: exactly Rate×seconds
	// requests with Due set. Other kinds: an ordered stream consumed as
	// fast as the system allows.
	Window []request
}

// builder turns (workload, seed) into requests.
type builder struct {
	spec     workloadSpec
	seed     int64
	lib      simload.Library
	topoQASM string
	rng      *rand.Rand
	short    string
}

func newBuilder(spec workloadSpec, seed int64) (*builder, error) {
	lib, err := simload.DefaultLibrary()
	if err != nil {
		return nil, err
	}
	for _, f := range spec.Families {
		if _, ok := lib[f]; !ok {
			return nil, fmt.Errorf("workload %s: unknown family %q", spec.Name, f)
		}
	}
	topo, err := qasm.Dump(mapomatic.TopologyCircuit(graph.Line(4)))
	if err != nil {
		return nil, err
	}
	short := map[string]string{"steady-warm": "sw", "cold-sweep": "cs"}[spec.Name]
	return &builder{
		spec: spec, seed: seed, lib: lib, topoQASM: topo, short: short,
		// One private stream for everything the simload arrivals do not
		// decide (tenant and family picks of the non-open-loop kinds).
		rng: rand.New(rand.NewSource(seed*7919 + int64(len(spec.Name)))),
	}, nil
}

// name builds a job name unique per (workload, seed, phase, index), so a
// leftover data directory or a second run can never collide.
func (b *builder) name(phase string, i int) string {
	return fmt.Sprintf("%s%d-%s%05d", b.short, b.seed, phase, i)
}

// warm builds the i-th request of a recurring-family stream.
func (b *builder) warm(phase string, i int, tenant, family string) client.SubmitRequest {
	fam := b.lib[family]
	req := client.SubmitRequest{
		Tenant:         tenant,
		JobName:        b.name(phase, i),
		QASM:           fam.QASM,
		Shots:          fam.Shots,
		CPUMillis:      jobCPUMillis,
		MemoryMB:       jobMemoryMB,
		Requirements:   api.DeviceRequirements{MinQubits: fam.MinQubits},
		Strategy:       api.StrategyFidelity,
		TargetFidelity: 1,
	}
	if n := b.spec.TopologyEvery; n > 0 && i%n == n-1 {
		req.Strategy = api.StrategyTopology
		req.TargetFidelity = 0
		req.TopologyQASM = b.topoQASM
	}
	return req
}

// cold builds a never-seen fingerprint: a 5-qubit, depth-1 QAOA ring whose
// angles come from a seed unique to (run seed, phase, index) — the
// variational-iteration shape, where every submission differs in its
// rotation angles only.
func (b *builder) cold(phase string, i int) (client.SubmitRequest, error) {
	phaseOffset := int64(0)
	if phase == "w" {
		phaseOffset = 500_000
	}
	circ := workload.QAOARing(5, 1, b.seed*1_000_003+phaseOffset+int64(i))
	src, err := qasm.Dump(circ)
	if err != nil {
		return client.SubmitRequest{}, err
	}
	return client.SubmitRequest{
		Tenant:         tenants[i%len(tenants)],
		JobName:        b.name(phase, i),
		QASM:           src,
		Shots:          1024,
		CPUMillis:      jobCPUMillis,
		MemoryMB:       jobMemoryMB,
		Requirements:   api.DeviceRequirements{MinQubits: 5},
		Strategy:       api.StrategyFidelity,
		TargetFidelity: 1,
	}, nil
}

// recurring builds n requests cycling the families with seeded tenant
// picks. The cycle shifts by one every lap so that the every-n-th topology
// submission rotates through the families instead of always taking the
// same one — set-up must leave every family's fidelity fingerprint cached.
func (b *builder) recurring(phase string, n int) []client.SubmitRequest {
	out := make([]client.SubmitRequest, n)
	fams := b.spec.Families
	for i := range out {
		out[i] = b.warm(phase, i, tenants[b.rng.Intn(len(tenants))], fams[(i+i/len(fams))%len(fams)])
	}
	return out
}

// poissonArrivals draws the open-loop schedule from the seeded simload
// stream: one cohort per tenant, equal family mix, merged rate = Rate. The
// stream is conditioned on its count: the first n+1 arrivals are rescaled
// so the (n+1)-th lands exactly at the window's end, which leaves the first
// n distributed as a Poisson process given n arrivals (uniform order
// statistics) while every seed offers exactly n = Rate×seconds jobs.
// Without that, the per-seed Poisson count alone (σ ≈ √n) would move
// goodput by ~9 % run to run.
func (b *builder) poissonArrivals(window time.Duration) ([]simload.Arrival, error) {
	n := int(b.spec.Rate*window.Seconds() + 0.5)
	mix := make([]simload.Share, len(b.spec.Families))
	for i, f := range b.spec.Families {
		mix[i] = simload.Share{Family: f, Weight: 1}
	}
	cohorts := make([]simload.Cohort, len(tenants))
	for i, t := range tenants {
		cohorts[i] = simload.Cohort{
			Tenant:  t,
			Rate:    b.spec.Rate / float64(len(tenants)),
			Mix:     mix,
			Service: simload.ServiceModel{Mean: simload.Duration(time.Millisecond)},
		}
	}
	stream, err := simload.NewStream(simload.Profile{
		Seed:     b.seed,
		Duration: simload.Duration(4*window + time.Minute), // never the binding limit
		Cohorts:  cohorts,
	}, b.lib)
	if err != nil {
		return nil, err
	}
	arrivals := make([]simload.Arrival, 0, n+1)
	for len(arrivals) < n+1 {
		a, ok := stream.Next()
		if !ok {
			return nil, fmt.Errorf("workload %s: simload stream ended after %d of %d arrivals", b.spec.Name, len(arrivals), n+1)
		}
		arrivals = append(arrivals, a)
	}
	scale := float64(window) / float64(arrivals[n].T)
	for i := range arrivals {
		arrivals[i].T = simload.Duration(float64(arrivals[i].T) * scale)
	}
	return arrivals[:n], nil
}

// buildPlan generates the run's complete input from the seed.
func buildPlan(spec workloadSpec, seed int64, window time.Duration) (*plan, error) {
	b, err := newBuilder(spec, seed)
	if err != nil {
		return nil, err
	}
	p := &plan{Spec: spec, Seed: seed}
	streamLen := int(spec.MaxRate * window.Seconds())
	switch spec.Name {
	case "cold-sweep":
		for i := 0; i < spec.SetupJobs; i++ {
			r, err := b.cold("s", i)
			if err != nil {
				return nil, err
			}
			p.Setup = append(p.Setup, r)
		}
		for i := 0; i < streamLen; i++ {
			r, err := b.cold("w", i)
			if err != nil {
				return nil, err
			}
			p.Window = append(p.Window, request{Req: r})
		}
		return p, nil
	}
	p.Setup = b.recurring("s", spec.SetupJobs)
	switch spec.Kind {
	case openLoop:
		arrivals, err := b.poissonArrivals(window)
		if err != nil {
			return nil, err
		}
		for i, a := range arrivals {
			p.Window = append(p.Window, request{
				Due: time.Duration(a.T),
				Req: b.warm("w", i, a.Tenant, a.Family),
			})
		}
	case closedLoop:
		for _, r := range b.recurring("w", streamLen) {
			p.Window = append(p.Window, request{Req: r})
		}
	}
	return p, nil
}
