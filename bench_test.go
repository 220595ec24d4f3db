// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) plus the ablation
// benches DESIGN.md §4 calls out and micro-benchmarks of the substrates.
//
// The figure benches run on a reduced 30-device fleet with a reduced shot
// budget so `go test -bench=.` completes in minutes; the full 100-device
// paper configuration is regenerated by `go run ./cmd/qrio-experiments`.
// Shape metrics (who wins, by how much) are attached via b.ReportMetric.
package qrio_test

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qrio"

	"path/filepath"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/cluster/wal"
	"qrio/internal/device"
	"qrio/internal/experiments"
	"qrio/internal/fidelity"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/master"
	"qrio/internal/meta"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/clifford"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/qasm"
	"qrio/internal/quantum/stabilizer"
	"qrio/internal/quantum/statevec"
	"qrio/internal/sched"
	"qrio/internal/simload"
	"qrio/internal/transpile"
	"qrio/internal/workload"
)

// benchFleetSpec is the reduced fleet used by the macro benches.
func benchFleetSpec() device.FleetSpec {
	spec := device.DefaultFleetSpec()
	spec.QubitCounts = []int{15, 20, 27}
	return spec
}

func benchConfig() experiments.Config {
	return experiments.Config{Fleet: benchFleetSpec(), Seed: 1, Shots: 1024}
}

// BenchmarkTable2Fleet regenerates the Table 2 testbed (full 100 devices).
func BenchmarkTable2Fleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
		if err != nil {
			b.Fatal(err)
		}
		if len(fleet) != 100 {
			b.Fatalf("fleet size %d", len(fleet))
		}
	}
}

// BenchmarkFig6 regenerates the default-topology scheduling comparison.
func BenchmarkFig6(b *testing.B) {
	var lastFull float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Decrease <= 0 {
				b.Fatalf("%s: QRIO did not beat random", r.Topology)
			}
			if r.Topology == "full-6" {
				lastFull = r.Decrease
			}
		}
	}
	b.ReportMetric(lastFull, "full6-decrease")
}

// BenchmarkFig7 regenerates the fidelity-strategy comparison.
func BenchmarkFig7(b *testing.B) {
	var cliffordGap, randomGap float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		cliffordGap, randomGap = 0, 0
		for _, r := range rows {
			cliffordGap += (r.Oracle - r.Clifford) / float64(len(rows))
			randomGap += (r.Clifford - r.Random) / float64(len(rows))
		}
	}
	b.ReportMetric(cliffordGap, "oracle-minus-clifford")
	b.ReportMetric(randomGap, "clifford-minus-random")
}

// BenchmarkFig9 regenerates the user-topology device choice.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Config{Trials: 50})
		if err != nil {
			b.Fatal(err)
		}
		if res.Chosen != "tree" || res.Consistent != res.Trials {
			b.Fatalf("tree not chosen consistently: %+v", res)
		}
	}
}

// BenchmarkFig10 regenerates the characteristic-filtering sweep on the full
// 100-device fleet, through the real scheduler filter chain.
func BenchmarkFig10(b *testing.B) {
	var devicesAtLowest float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10ViaScheduler(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		devicesAtLowest = float64(rows[0].Devices)
	}
	b.ReportMetric(devicesAtLowest, "devices-at-0.07")
}

// BenchmarkFig5EndToEnd schedules and executes the paper's Fig. 5 job — a
// 10-qubit Bernstein–Vazirani — through the full control plane.
func BenchmarkFig5EndToEnd(b *testing.B) {
	spec := benchFleetSpec()
	spec.EdgeProbs = []float64{0.3, 0.7}
	fleet, err := device.GenerateFleet(spec)
	if err != nil {
		b.Fatal(err)
	}
	src, err := qasm.Dump(workload.BernsteinVazirani(10, 0b101101101))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := qrio.New(qrio.Config{Backends: fleet, KubeletSeed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		q.Start()
		job, _, err := q.SubmitAndWait(master.SubmitRequest{
			JobName:        "bench-bv10",
			QASM:           src,
			Shots:          256,
			Strategy:       api.StrategyFidelity,
			TargetFidelity: 1.0,
		}, time.Minute)
		q.Stop()
		if err != nil {
			b.Fatal(err)
		}
		if job.Status.Phase != api.JobSucceeded {
			b.Fatalf("job phase %s", job.Status.Phase)
		}
	}
}

// BenchmarkSubmitThroughput measures multi-job dispatch on the full
// 100-device fleet: a burst of same-circuit jobs through the complete
// control plane. Two configurations: conc=1 binds one job per pass, with
// the Meta-Server score cache answering every job after the first; conc=8
// adds an eight-job bind budget and multi-container nodes on top. jobs/s
// is the headline metric; the conc=8 vs conc=1 gap is what batched
// dispatch buys.
func BenchmarkSubmitThroughput(b *testing.B) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	src, err := qasm.Dump(workload.GHZ(4))
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 16
	run := func(b *testing.B, conc, nodeConc int) {
		for i := 0; i < b.N; i++ {
			q, err := qrio.New(qrio.Config{
				Backends:        fleet,
				Concurrency:     conc,
				NodeConcurrency: nodeConc,
				KubeletSeed:     int64(i),
				Meta:            meta.Options{Estimator: fidelity.Estimator{Shots: 640, Seed: 1}},
			})
			if err != nil {
				b.Fatal(err)
			}
			q.Start()
			for j := 0; j < jobs; j++ {
				if _, err := q.Submit(master.SubmitRequest{
					JobName:        fmt.Sprintf("burst-%d-%d", i, j),
					QASM:           src,
					Shots:          64,
					Strategy:       api.StrategyFidelity,
					TargetFidelity: 1.0,
				}); err != nil {
					b.Fatal(err)
				}
			}
			for j := 0; j < jobs; j++ {
				job, err := q.WaitForJob(fmt.Sprintf("burst-%d-%d", i, j), 5*time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				if job.Status.Phase != api.JobSucceeded {
					b.Fatalf("job %s phase %s (%s)", job.Name, job.Status.Phase, job.Status.Message)
				}
			}
			q.Stop()
		}
		b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	}
	b.Run("conc=1", func(b *testing.B) { run(b, 1, 1) })
	b.Run("conc=8", func(b *testing.B) { run(b, 8, 4) })
}

// BenchmarkSchedulePassWithHistory isolates the scheduler's hot path as
// terminal history accumulates: 64 pending jobs are dispatched by batched
// passes (Concurrency=8, nil scorer so ranking cost is pure scheduler
// machinery) against a 30-device fleet with 0, 1k or 10k terminal jobs
// resident in the job store. Before the incremental pending index and a
// cached fleet view, every pass deep-copied every job ever submitted
// plus the whole fleet, so bound-jobs/s decayed with cluster history; now
// the three history sizes should land within noise of each other.
func BenchmarkSchedulePassWithHistory(b *testing.B) {
	qasmSrc := "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"
	cases := []struct {
		name      string
		history   int
		retention state.RetentionPolicy
	}{
		{"history=0", 0, state.RetentionPolicy{}},
		{"history=1000", 1000, state.RetentionPolicy{}},
		{"history=10000", 10000, state.RetentionPolicy{}},
		// The long-horizon configuration: the same 10k-job history but with
		// retention sweeping terminal jobs into the archive, so the hot
		// store holds only the retained tail. Throughput should match
		// history=0, and the hot store must stay flat however much history
		// flows through.
		{"history=10000/retained", 10000, state.RetentionPolicy{MaxTerminalCount: 100}},
	}
	for _, tc := range cases {
		history, retention := tc.history, tc.retention
		b.Run(tc.name, func(b *testing.B) {
			fleet, err := device.GenerateFleet(benchFleetSpec())
			if err != nil {
				b.Fatal(err)
			}
			st := state.New()
			for _, dev := range fleet {
				if _, err := st.AddNode(dev); err != nil {
					b.Fatal(err)
				}
				st.Nodes.Update(dev.Name, func(n api.Node) (api.Node, error) {
					n.Spec.MaxContainers = 4 // 30 devices × 4 slots ≥ one 32-job wave
					return n, nil
				})
			}
			base := time.Now()
			mkJob := func(name string, seq int, phase api.JobPhase) api.QuantumJob {
				return api.QuantumJob{
					ObjectMeta: api.ObjectMeta{Name: name, CreatedAt: base.Add(time.Duration(seq) * time.Microsecond)},
					Spec:       api.JobSpec{QASM: qasmSrc, Strategy: api.StrategyFidelity, TargetFidelity: 1},
					Status:     api.JobStatus{Phase: phase},
				}
			}
			for i := 0; i < history; i++ {
				if _, err := st.Jobs.Create(mkJob(fmt.Sprintf("done-%d", i), i, api.JobSucceeded)); err != nil {
					b.Fatal(err)
				}
			}
			if retention.Enabled() {
				st.ArchiveTerminal(time.Now(), retention)
				if resident := st.Jobs.Len(); resident > retention.MaxTerminalCount {
					b.Fatalf("retention left %d jobs resident", resident)
				}
			}
			s := sched.New(st, sched.NewFramework(nil, sched.DefaultFilters()...))
			s.Concurrency = 8
			const wave = 32
			bound := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				names := make([]string, wave)
				for j := 0; j < wave; j++ {
					names[j] = fmt.Sprintf("wave-%d-%d", i, j)
					if _, err := st.Jobs.Create(mkJob(names[j], history+i*wave+j, api.JobPending)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				waveBound := 0
				for waveBound < wave {
					n := s.SchedulePass()
					if n == 0 {
						break
					}
					waveBound += n
				}
				b.StopTimer()
				if waveBound != wave {
					b.Fatalf("wave %d: bound %d of %d (fleet has capacity for the whole wave)", i, waveBound, wave)
				}
				bound += waveBound
				// Retire the wave so the next one starts from a free fleet.
				for _, name := range names {
					st.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
						j.Status.Phase = api.JobSucceeded
						return j, nil
					})
				}
				if retention.Enabled() {
					// The controller's sweep runs off the scheduling hot path;
					// it keeps the hot store flat while waves keep coming.
					st.ArchiveTerminal(time.Now(), retention)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(bound)/b.Elapsed().Seconds(), "bound-jobs/s")
		})
	}
}

// BenchmarkWatchResume measures the watch-resumption path: a client that
// missed `gap` transitions resumes from its token and replays them from
// the per-shard version journal, versus the pre-resume alternative of a
// full re-List of every resident job. The replayed-events/s metric is the
// recovery throughput; the point of the journal is that recovery cost is
// O(missed events), not O(resident jobs).
func BenchmarkWatchResume(b *testing.B) {
	qasmSrc := "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"
	const resident = 5000 // jobs a re-List would have to deep-copy instead
	const gap = 256       // transitions the dropped client missed
	st := state.New()
	for i := 0; i < resident; i++ {
		j := api.QuantumJob{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("resident-%04d", i)},
			Spec:       api.JobSpec{QASM: qasmSrc, Strategy: api.StrategyFidelity, TargetFidelity: 1},
			Status:     api.JobStatus{Phase: api.JobSucceeded},
		}
		if _, err := st.Jobs.Create(j); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.SubmitJob(api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: "churner"},
		Spec:       api.JobSpec{QASM: qasmSrc, Strategy: api.StrategyFidelity, TargetFidelity: 1},
	}); err != nil {
		b.Fatal(err)
	}
	_, marks, stop, _ := st.Jobs.Watch(nil, 1) // the dropped client's last position
	stop()
	for i := 0; i < gap; i++ {
		if _, _, err := st.Jobs.Update("churner", func(j api.QuantumJob) (api.QuantumJob, error) {
			j.Status.Message = fmt.Sprintf("tick %d", i)
			return j, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	// Several resume cycles per op, as the committed baseline measures
	// them. Each cycle is synchronous: the replay is in the channel when
	// Watch returns, so no goroutine wake-up sits on the measured path.
	const cyclesPerOp = 10
	replayed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < cyclesPerOp; c++ {
			ch, _, cancel, err := st.Jobs.Watch(marks, gap+64)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < gap; j++ {
				if _, ok := <-ch; !ok {
					b.Fatal("resume stream closed early")
				}
			}
			cancel()
			replayed += gap
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "replayed-events/s")
}

// BenchmarkFairShare proves the multi-tenant fairness contract at
// benchmark scale: a flood tenant submits at 10× the rate of a drip
// tenant, both with equal weights, and while both are backlogged the
// binds split ~50/50 (the drip-share metric). It also keeps the fair
// queue's dispatch cost on the scoreboard: bound-jobs/s through the same
// batched pipeline BenchmarkSchedulePassWithHistory guards.
func BenchmarkFairShare(b *testing.B) {
	qasmSrc := "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"
	fleet, err := device.GenerateFleet(benchFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	var share float64
	bound := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := state.New()
		for _, dev := range fleet {
			if _, err := st.AddNode(dev); err != nil {
				b.Fatal(err)
			}
		}
		base := time.Now()
		seq := 0
		mk := func(name, tenant string) {
			j := api.QuantumJob{
				ObjectMeta: api.ObjectMeta{Name: name, CreatedAt: base.Add(time.Duration(seq) * time.Microsecond)},
				Spec: api.JobSpec{
					Tenant: tenant, QASM: qasmSrc,
					Strategy: api.StrategyFidelity, TargetFidelity: 1,
				},
				Status: api.JobStatus{Phase: api.JobPending},
			}
			seq++
			if _, err := st.Jobs.Create(j); err != nil {
				b.Fatal(err)
			}
		}
		// The 10:1 arrival pattern: ten flood jobs per drip job.
		for round := 0; round < 8; round++ {
			for j := 0; j < 10; j++ {
				mk(fmt.Sprintf("flood-%d-%d-%d", i, round, j), "flood")
			}
			mk(fmt.Sprintf("drip-%d-%d", i, round), "drip")
		}
		s := sched.New(st, sched.NewFramework(nil, sched.DefaultFilters()...))
		s.Concurrency = 8
		dripBound, total := 0, 0
		b.StartTimer()
		// Count the split over the first 16 binds — the window where the
		// drip tenant (8 jobs) is still backlogged.
		for total < 16 {
			n := s.SchedulePass()
			if n == 0 {
				b.Fatal("scheduler made no progress")
			}
			b.StopTimer()
			for _, j := range st.Jobs.ListFunc(func(j api.QuantumJob) bool {
				return j.Status.Phase == api.JobScheduled
			}) {
				total++
				if j.Spec.Tenant == "drip" {
					dripBound++
				}
				st.Jobs.Update(j.Name, func(j api.QuantumJob) (api.QuantumJob, error) {
					j.Status.Phase = api.JobSucceeded
					return j, nil
				})
			}
			b.StartTimer()
		}
		b.StopTimer()
		bound += total
		share = float64(dripBound) / float64(total)
		if share < 0.35 || share > 0.65 {
			b.Fatalf("drip tenant got %.0f%% of binds under 10:1 flood, want ~50%%", share*100)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(share, "drip-share")
	b.ReportMetric(float64(bound)/b.Elapsed().Seconds(), "bound-jobs/s")
}

// BenchmarkStoreContention measures the sharded store under parallel load
// (run with -cpu 1,4,8 to see lock scaling): create-heavy, read-heavy and
// distinct-key update-heavy mixes. Before sharding, a single store mutex
// serialised all three.
func BenchmarkStoreContention(b *testing.B) {
	newEventStore := func() *store.Store[api.Event] {
		return store.New(api.Event.DeepCopy, func(e api.Event) string { return e.Name })
	}
	b.Run("create", func(b *testing.B) {
		s := newEventStore()
		var seq atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				name := fmt.Sprintf("e%d", seq.Add(1))
				if _, err := s.Create(api.Event{ObjectMeta: api.ObjectMeta{Name: name}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	const keys = 1024
	prefill := func(s *store.Store[api.Event]) {
		for i := 0; i < keys; i++ {
			s.Create(api.Event{ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("e%d", i)}, Reason: "seed"})
		}
	}
	b.Run("get", func(b *testing.B) {
		s := newEventStore()
		prefill(s)
		var seq atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				name := fmt.Sprintf("e%d", seq.Add(1)%keys)
				if _, _, err := s.Get(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("update-distinct-keys", func(b *testing.B) {
		s := newEventStore()
		prefill(s)
		var seq atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				name := fmt.Sprintf("e%d", seq.Add(1)%keys)
				if _, _, err := s.Update(name, func(e api.Event) (api.Event, error) {
					e.Message += "."
					return e, nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// --- Ablations (DESIGN.md §4) ------------------------------------------

// BenchmarkAblationAnalyticVsCanary compares the deployable canary
// estimator against the simplistic analytic product estimate: both pick a
// device for circ_2 and are judged by achieved fidelity.
func BenchmarkAblationAnalyticVsCanary(b *testing.B) {
	fleet, err := device.GenerateFleet(benchFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	c := workload.Circ2()
	var canaryPick, analyticPick float64
	for i := 0; i < b.N; i++ {
		bestCanary, bestAnalytic := -1.0, -1.0
		var canaryDev, analyticDev *device.Backend
		for _, dev := range fleet {
			est := fidelity.Estimator{Shots: 1024, Seed: 7, MaxDenseQubits: 16}
			cf, err := est.CanaryFidelity(c, dev)
			if err != nil {
				continue
			}
			af, err := est.AnalyticFidelity(c, dev)
			if err != nil {
				continue
			}
			if cf > bestCanary {
				bestCanary, canaryDev = cf, dev
			}
			if af > bestAnalytic {
				bestAnalytic, analyticDev = af, dev
			}
		}
		est := fidelity.Estimator{Shots: 1024, Seed: 7, MaxDenseQubits: 16}
		exC, err := est.Execute(c, canaryDev)
		if err != nil {
			b.Fatal(err)
		}
		exA, err := est.Execute(c, analyticDev)
		if err != nil {
			b.Fatal(err)
		}
		canaryPick, analyticPick = exC.Fidelity, exA.Fidelity
	}
	b.ReportMetric(canaryPick, "canary-pick-fidelity")
	b.ReportMetric(analyticPick, "analytic-pick-fidelity")
}

// BenchmarkAblationMapomaticFallback measures what the routed fallback
// buys: how many devices can host a ring-7 request only via routing.
func BenchmarkAblationMapomaticFallback(b *testing.B) {
	fleet, err := device.GenerateFleet(benchFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	tc := mapomatic.TopologyCircuit(graph.Ring(7))
	var embedded, routedOnly float64
	for i := 0; i < b.N; i++ {
		embedded, routedOnly = 0, 0
		for _, dev := range fleet {
			s, err := mapomatic.BestLayout(tc, dev, mapomatic.Options{})
			if err != nil {
				continue
			}
			if s.Routed {
				routedOnly++
			} else {
				embedded++
			}
		}
	}
	b.ReportMetric(embedded, "devices-embedded")
	b.ReportMetric(routedOnly, "devices-routed-only")
}

// BenchmarkAblationFiltering quantifies the classical pre-processing saved
// by filtering before ranking (the Fig. 10 claim): Mapomatic scoring work
// with and without a 0.2 max-error filter.
func BenchmarkAblationFiltering(b *testing.B) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	tc := mapomatic.TopologyCircuit(graph.Grid(2, 2))
	opts := mapomatic.Options{MaxLayouts: 64, VF2MaxVisits: 100_000}
	b.Run("rank-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, dev := range fleet {
				mapomatic.BestLayout(tc, dev, opts) //nolint:errcheck
			}
		}
	})
	b.Run("filter-then-rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kept := 0
			for _, dev := range fleet {
				if dev.AvgTwoQubitErr() > 0.2 {
					continue
				}
				kept++
				mapomatic.BestLayout(tc, dev, opts) //nolint:errcheck
			}
			if kept == 0 {
				b.Fatal("filter removed everything")
			}
		}
	})
}

// BenchmarkAblationScoreUnits compares the negative-log score against the
// bounded 1−Π(1−e) cost: spread between the best and worst device for a
// fully-connected request. The bounded cost saturates near 1 at the
// paper's error rates, compressing exactly the rankings Fig. 6 relies on.
func BenchmarkAblationScoreUnits(b *testing.B) {
	fleet, err := device.GenerateFleet(benchFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	tc := mapomatic.TopologyCircuit(graph.Full(6))
	var logSpread, boundedSpread float64
	for i := 0; i < b.N; i++ {
		minC, maxC := math.Inf(1), math.Inf(-1)
		for _, dev := range fleet {
			s, err := mapomatic.BestLayout(tc, dev, mapomatic.Options{})
			if err != nil {
				continue
			}
			if s.Cost < minC {
				minC = s.Cost
			}
			if s.Cost > maxC {
				maxC = s.Cost
			}
		}
		logSpread = maxC - minC
		// Bounded equivalent: 1 - exp(-cost).
		boundedSpread = (1 - math.Exp(-maxC)) - (1 - math.Exp(-minC))
	}
	b.ReportMetric(logSpread, "neglog-spread")
	b.ReportMetric(boundedSpread, "bounded-spread")
}

// BenchmarkAblationCanaryEnsembleSize quantifies how ensemble size buys
// discriminative power for the canary estimator on Grover — the circuit
// whose deterministic canary is completely blind (uniform ideal output).
// Both sizes benefit from concentration-based member selection; the metric is the canary-fidelity spread across the fleet's
// devices — a larger spread separates good devices from bad ones more
// reliably under shot noise.
func BenchmarkAblationCanaryEnsembleSize(b *testing.B) {
	fleet, err := device.GenerateFleet(benchFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	c := workload.Grover()
	var singleSpread, ensembleSpread float64
	for i := 0; i < b.N; i++ {
		spread := func(size int) float64 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, dev := range fleet {
				est := fidelity.Estimator{
					Shots: 2048, Seed: 7, MaxDenseQubits: 16, CanaryEnsemble: size,
				}
				cf, err := est.CanaryFidelity(c, dev)
				if err != nil {
					continue
				}
				if cf < lo {
					lo = cf
				}
				if cf > hi {
					hi = cf
				}
			}
			return hi - lo
		}
		singleSpread = spread(1)
		ensembleSpread = spread(5)
	}
	// The discriminative power of the estimator is the fidelity spread it
	// assigns across devices of very different quality: the blind single
	// canary compresses the whole fleet into a narrow band.
	b.ReportMetric(singleSpread, "single-canary-spread")
	b.ReportMetric(ensembleSpread, "ensemble-spread")
}

// --- Substrate micro-benchmarks -----------------------------------------

// BenchmarkStabilizerGHZ100 measures tableau simulation at fleet scale:
// one 100-qubit GHZ shot including measurement of every qubit.
func BenchmarkStabilizerGHZ100(b *testing.B) {
	c := circuit.New(100)
	c.H(0)
	for q := 0; q < 99; q++ {
		c.CX(q, q+1)
	}
	c.MeasureAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (stabilizer.Runner{Shots: 1, Seed: int64(i)}).Counts(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStabilizerNoisyShots measures the canary shot loop as the cold
// sweep runs it for one device: five ensemble members' shares of the Meta
// Server's default budget (5 × 2048/5 shots) of a transpiled, deflated QAOA
// ring under a device-sized noise model. ns/op ÷ 2045 is one noisy shot.
func BenchmarkStabilizerNoisyShots(b *testing.B) {
	dev, err := device.GenerateBackend("mid", 27, 0.54, device.DefaultFleetSpec(), 5)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := transpile.Transpile(clifford.Canary(workload.QAOARing(5, 1, 1).Decompose()), dev, transpile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	compact, active, err := mapomatic.Deflate(tr.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	model := noise.Uniform(len(active), dev.AvgOneQubitErr(), dev.AvgTwoQubitErr(), dev.AvgReadoutErr())
	// The guard runs this at -benchtime 1x: one untimed run first, so the
	// single timed op is not the process's first touch of the engine.
	if _, err := (stabilizer.Runner{Model: model, Shots: 2048 / 5, Seed: -1}).Counts(compact); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for member := 0; member < 5; member++ {
			run := stabilizer.Runner{Model: model, Shots: 2048 / 5, Seed: int64(5*i + member)}
			if _, err := run.Counts(compact); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkColdSweep measures what `cold-sweep` pays per job inside the
// Meta Server: one never-seen circuit fingerprint scored against the
// default 100-device fleet (every lookup a miss). The fleet, the server and
// the job metadata are built outside the timer; -cpu sets the sweep's
// parallelism.
func BenchmarkColdSweep(b *testing.B) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	srv := meta.NewServer(meta.Options{})
	names := make([]string, len(fleet))
	for i, dev := range fleet {
		if err := srv.RegisterBackend(dev); err != nil {
			b.Fatal(err)
		}
		names[i] = dev.Name
	}
	jobs := make([]string, b.N)
	for i := range jobs {
		src, err := qasm.Dump(workload.QAOARing(5, 1, int64(1000+i)))
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = fmt.Sprintf("cold-%d", i)
		if err := srv.PutJobMeta(meta.JobMeta{JobName: jobs[i], Strategy: api.StrategyFidelity,
			TargetFidelity: 0.9, CircuitQASM: src}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range srv.ScoreBatch(jobs[i], names, 0) {
			if r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	}
}

// lightFamily is one circuit family `steady-warm` submits, with the shot
// count its jobs carry.
type lightFamily struct {
	c     *circuit.Circuit
	shots int
}

// lightFamilies reads the six `steady-warm` families out of the load
// generator's library, parsed from their QASM as a kubelet parses them.
func lightFamilies(b *testing.B) []lightFamily {
	lib, err := simload.DefaultLibrary()
	if err != nil {
		b.Fatal(err)
	}
	var out []lightFamily
	for _, name := range []string{"ghz", "hsp", "rep", "qft", "grover", "circ"} {
		fam, ok := lib[name]
		if !ok {
			b.Fatalf("family %q missing from simload.DefaultLibrary", name)
		}
		c, err := qasm.Parse(fam.QASM)
		if err != nil {
			b.Fatal(err)
		}
		c.Name = name
		out = append(out, lightFamily{c, fam.Shots})
	}
	return out
}

// cleanestDevice returns the default fleet's device with the lowest mean
// two-qubit error (sim-q78-p070: 2.4 % per cx, 0.7 % per one-qubit gate, 5 %
// readout) — where the fidelity strategy sends `steady-warm` jobs, so the
// calibration their executions actually run under.
func cleanestDevice(b *testing.B) *device.Backend {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	best := fleet[0]
	for _, dev := range fleet {
		if dev.AvgTwoQubitErr() < best.AvgTwoQubitErr() {
			best = dev
		}
	}
	return best
}

// compactFamily is one `steady-warm` family transpiled to the cleanest
// device and deflated, under a device-sized noise model: what the dense
// engines run for its jobs.
type compactFamily struct {
	name    string
	compact *circuit.Circuit
	model   *noise.Model
	shots   int
}

func compactFamilies(b *testing.B) []compactFamily {
	dev := cleanestDevice(b)
	var out []compactFamily
	for _, fam := range lightFamilies(b) {
		tr, err := transpile.Transpile(fam.c, dev, transpile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		compact, active, err := mapomatic.Deflate(tr.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		model := noise.Uniform(len(active), dev.AvgOneQubitErr(), dev.AvgTwoQubitErr(), dev.AvgReadoutErr())
		out = append(out, compactFamily{fam.c.Name, compact, model, fam.shots})
	}
	return out
}

// BenchmarkNoisyStatevecShots measures the trajectory engine on what a
// kubelet runs: each `steady-warm` family, transpiled to one fixed device
// and deflated, at its own shot count under a device-sized noise model.
// One op is eight jobs (eight seeds), so the guard's single timed op is
// milliseconds, not one 100 µs run; ns/op ÷ 8 is one job. (Execute runs
// these families exactly — BenchmarkExactDistribution — so this guards
// statevec.Noisy for the wider programs left to it.)
func BenchmarkNoisyStatevecShots(b *testing.B) {
	for _, fam := range compactFamilies(b) {
		b.Run(fam.name, func(b *testing.B) {
			// One untimed run first: the guard runs this at -benchtime 1x.
			if _, err := (statevec.Noisy{Model: fam.model, Shots: fam.shots, Seed: -1}).Counts(fam.compact); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for job := 0; job < 8; job++ {
					run := statevec.Noisy{Model: fam.model, Shots: fam.shots, Seed: int64(8*i + job)}
					if _, err := run.Counts(fam.compact); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkExactDistribution measures statevec.Exact on the same compact
// `steady-warm` families: one density-matrix evolution each, what a job
// pays when its (program, calibration) misses Execute's memo.
func BenchmarkExactDistribution(b *testing.B) {
	for _, fam := range compactFamilies(b) {
		b.Run(fam.name, func(b *testing.B) {
			if _, err := statevec.Exact(fam.compact, fam.model); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := statevec.Exact(fam.compact, fam.model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteDense measures fidelity.Estimator.Execute — the memoised
// preparation (transpile, deflate, noise model, the transpiled text and
// figures) and exact distribution, the draw of the shots, Hellinger
// fidelity — the whole of what a kubelet calls per warm job: one op
// executes each of the six `steady-warm` families once on one fixed device.
func BenchmarkExecuteDense(b *testing.B) {
	dev := cleanestDevice(b)
	families := lightFamilies(b)
	execute := func(seed int64) {
		for _, fam := range families {
			ex, err := fidelity.Estimator{Shots: fam.shots, Seed: seed}.Execute(fam.c, dev)
			if err != nil {
				b.Fatal(err)
			}
			if ex.Method != fidelity.MethodDensityMatrix {
				b.Fatalf("%s executed via %s", fam.c.Name, ex.Method)
			}
		}
	}
	execute(-1) // untimed: the guard runs this at -benchtime 1x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execute(int64(i))
	}
}

// BenchmarkSubmitIntake measures what a job pays before it exists: one op
// is the intake (Orchestrator.Submit) of each `steady-warm` family plus one
// topology job, under fresh names, into an unstarted in-memory deployment
// of the default 100-device fleet — validation, width check, admission,
// name claim, Meta upload, containerisation and the store write, with no scheduler or
// kubelet running. Its allocs/op catch a parse, a lexer map or a fleet copy
// coming back.
func BenchmarkSubmitIntake(b *testing.B) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	q, err := qrio.New(qrio.Config{Backends: fleet})
	if err != nil {
		b.Fatal(err)
	}
	lib, err := simload.DefaultLibrary()
	if err != nil {
		b.Fatal(err)
	}
	topo, err := qasm.Dump(mapomatic.TopologyCircuit(graph.Line(4)))
	if err != nil {
		b.Fatal(err)
	}
	var reqs []master.SubmitRequest
	for _, name := range []string{"ghz", "hsp", "rep", "qft", "grover", "circ"} {
		fam := lib[name]
		reqs = append(reqs, master.SubmitRequest{
			QASM: fam.QASM, Shots: fam.Shots, CPUMillis: 250, MemoryMB: 128,
			Requirements: api.DeviceRequirements{MinQubits: fam.MinQubits},
			Strategy:     api.StrategyFidelity, TargetFidelity: 1,
		})
	}
	reqs = append(reqs, master.SubmitRequest{
		QASM: lib["ghz"].QASM, Shots: 512, CPUMillis: 250, MemoryMB: 128,
		Strategy: api.StrategyTopology, TopologyQASM: topo,
	})
	submit := func(i int) {
		for j, req := range reqs {
			req.JobName = fmt.Sprintf("intake-%d-%d", i, j)
			if _, err := q.Submit(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	submit(-1) // untimed: the first submission of each text
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(i)
	}
}

// BenchmarkStatevec16Q measures dense simulation: a 16-qubit GHZ shot.
func BenchmarkStatevec16Q(b *testing.B) {
	c := workload.GHZ(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (statevec.Noisy{Shots: 1, Seed: int64(i)}).Counts(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVF2RingIn100Q measures subgraph search: ring-7 into a dense
// 100-qubit coupling map.
func BenchmarkVF2RingIn100Q(b *testing.B) {
	dev, err := device.GenerateBackend("dense", 100, 0.98, device.DefaultFleetSpec(), 3)
	if err != nil {
		b.Fatal(err)
	}
	pattern := graph.Ring(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.FindMonomorphism(pattern, dev.Coupling) == nil {
			b.Fatal("no embedding found")
		}
	}
}

// BenchmarkCanaryFidelity measures one canary evaluation (the Meta
// Server's unit of scoring work) on a mid-size device.
func BenchmarkCanaryFidelity(b *testing.B) {
	dev, err := device.GenerateBackend("mid", 27, 0.54, device.DefaultFleetSpec(), 5)
	if err != nil {
		b.Fatal(err)
	}
	c := workload.Circ()
	est := fidelity.Estimator{Shots: 1024, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.CanaryFidelity(c, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerFilter measures the filter chain over 100 nodes.
func BenchmarkSchedulerFilter(b *testing.B) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	st := state.New()
	for _, dev := range fleet {
		if _, err := st.AddNode(dev); err != nil {
			b.Fatal(err)
		}
	}
	nodes := st.Nodes.List()
	fw := sched.NewFramework(nil, sched.DefaultFilters()...)
	job := api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: "bench"},
		Spec: api.JobSpec{
			QASM: "OPENQASM 2.0;\nqreg q[1];\nh q[0];", Strategy: api.StrategyFidelity,
			TargetFidelity: 1,
			Requirements:   api.DeviceRequirements{MaxAvg2QError: 0.3, MinQubits: 20},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feasible, _ := fw.FilterNodes(job, nodes)
		if len(feasible) == 0 {
			b.Fatal("nothing feasible")
		}
	}
}

// constScorer is a meta.Scorer that costs nothing, so a benchmark over
// it measures only the wrapper.
type constScorer struct{}

func (constScorer) Score(string, string) (float64, error) { return 0.5, nil }

// BenchmarkResilientScore measures what ResilientMetaScore adds to a live
// score — breaker bookkeeping plus remembering the pair for degraded
// replay — with its pair cache empty and after 50,000 distinct pairs, all
// fresh, have gone through it. The live daemon pays this 100× per ranked
// class, so the two rows must cost the same: the cache is bounded and
// insertion never scans it. Report-only (not in the guarded set).
func BenchmarkResilientScore(b *testing.B) {
	for _, entries := range []int{0, 50000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			r := &sched.ResilientMetaScore{Scorer: constScorer{}}
			node := api.Node{ObjectMeta: api.ObjectMeta{Name: "dev"}}
			job := func(i int) api.QuantumJob {
				return api.QuantumJob{ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("job-%d", i)}}
			}
			for i := 0; i < entries; i++ {
				if _, err := r.Score(job(i), node); err != nil {
					b.Fatal(err)
				}
			}
			jobs := make([]api.QuantumJob, 1024)
			for i := range jobs {
				jobs[i] = job(entries + i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Score(jobs[i%len(jobs)], node); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Durability substrates ---------------------------------------------

// benchWALPayload is a representative WAL record: a mid-size job status
// mutation as the store hook marshals it.
var benchWALPayload = []byte(`{"t":"MODIFIED","v":123456,"o":{"metadata":{"name":"job-0042","uid":"job-77","resourceVersion":7},"spec":{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];","strategy":"fidelity","targetFidelity":0.9,"shots":1024,"tenant":"alice"},"status":{"phase":"Running","node":"dev-3"}}}`)

// BenchmarkRankWarm measures one Framework.Rank of a cached circuit over
// the default 100-device fleet through the scorer chain core.New wires
// (ResilientMetaScore over the Meta Server, which passes each backend
// through the meta.score fault point): every score a cache hit, the
// steady-warm workload's common case. Each op ranks a new job name of the
// same circuit, as resubmissions do; the untimed warm-up pushes the
// breaker's fallback cache past its cap, so every op evicts as many
// remembered scores as it adds and allocs/op does not depend on b.N.
func BenchmarkRankWarm(b *testing.B) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		b.Fatal(err)
	}
	q, err := qrio.New(qrio.Config{Backends: fleet})
	if err != nil {
		b.Fatal(err)
	}
	lib, err := simload.DefaultLibrary()
	if err != nil {
		b.Fatal(err)
	}
	fam := lib["ghz"]
	jobs := make([]api.QuantumJob, 64)
	for i := range jobs {
		jobs[i] = api.QuantumJob{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("warm-%d", i)},
			Spec: api.JobSpec{QASM: fam.QASM, Shots: fam.Shots, Strategy: api.StrategyFidelity,
				TargetFidelity: 1, Requirements: api.DeviceRequirements{MinQubits: fam.MinQubits}},
		}
		if err := q.Meta.PutJobMeta(meta.JobMeta{JobName: jobs[i].Name, Strategy: api.StrategyFidelity,
			TargetFidelity: 1, CircuitQASM: fam.QASM}); err != nil {
			b.Fatal(err)
		}
	}
	nodes, _ := q.State.Fleet()
	fw := q.Scheduler.Framework
	rank := func(i int) {
		ranked, err := fw.Rank(jobs[i%len(jobs)], nodes)
		if err != nil || len(ranked) == 0 {
			b.Fatalf("rank: %d candidates, %v", len(ranked), err)
		}
	}
	for i := 0; i < 2*len(jobs); i++ {
		rank(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank(i)
	}
}

// BenchmarkWALAppend measures the per-mutation durability tax in the
// default process-crash configuration (no fsync): one framed, checksummed
// append through the writer's mutex. This is the overhead every store
// mutation pays when -data-dir is set, so it is part of the guarded set.
func BenchmarkWALAppend(b *testing.B) {
	w, err := wal.OpenWriter(filepath.Join(b.TempDir(), "bench.wal"), false)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(int64(len(benchWALPayload) + 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(benchWALPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendFsync is the machine-crash configuration: every append
// synced to stable storage — one appender, so one fsync per record, the
// price BenchmarkWALGroupCommit's concurrent appenders share.
func BenchmarkWALAppendFsync(b *testing.B) {
	w, err := wal.OpenWriter(filepath.Join(b.TempDir(), "bench.wal"), true)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(int64(len(benchWALPayload) + 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(benchWALPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALGroupCommit is the fsync'd log under concurrent appenders:
// each op is one record appended and durable, b.N of them spread over 1, 4
// or 16 goroutines. Appenders that wait together share an fsync, so ns/op
// falls as they are added while one appender pays BenchmarkWALAppendFsync's
// full fsync per record; records/fsync reports the batch group commit found.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, appenders := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			w, err := wal.OpenWriter(filepath.Join(b.TempDir(), "bench.wal"), true)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			var fsyncs atomic.Int64
			w.SetObserver(&wal.Observer{
				Wrote:  func(int) {},
				Synced: func(int64, time.Duration) { fsyncs.Add(1) },
				Waited: func(time.Duration) {},
			})
			b.SetBytes(int64(len(benchWALPayload) + 8))
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := w.Append(benchWALPayload); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/float64(max(fsyncs.Load(), 1)), "records/fsync")
		})
	}
}

// BenchmarkReplayBoot measures crash-recovery time: opening a data
// directory holding benchBootJobs jobs, either as raw WAL records
// (worst case: every record replays through the store hooks) or as a
// compacted snapshot (the post-compaction fast path).
func BenchmarkReplayBoot(b *testing.B) {
	const benchBootJobs = 512
	seed := func(b *testing.B, snapshot bool) string {
		b.Helper()
		dir := b.TempDir()
		st := state.New()
		m, err := durability.Open(st, durability.Options{Dir: dir, SnapshotInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < benchBootJobs; i++ {
			j := api.QuantumJob{
				ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("boot-%04d", i)},
				Spec: api.JobSpec{
					QASM: "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];", Strategy: api.StrategyFidelity,
					TargetFidelity: 0.9, Tenant: "bench",
				},
			}
			if _, err := st.SubmitJob(j); err != nil {
				b.Fatal(err)
			}
		}
		if snapshot {
			if _, err := m.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, mode := range []struct {
		name     string
		snapshot bool
	}{{"log-replay", false}, {"snapshot", true}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := seed(b, mode.snapshot)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := state.New()
				m, err := durability.Open(st, durability.Options{Dir: dir, SnapshotInterval: -1})
				if err != nil {
					b.Fatal(err)
				}
				if st.Jobs.Len() != benchBootJobs {
					b.Fatalf("boot recovered %d jobs", st.Jobs.Len())
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(benchBootJobs, "jobs/boot")
		})
	}
}
