package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"qrio/client"
)

// envRecord is the environment every result carries: enough to tell two
// results apart that should not be compared.
type envRecord struct {
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"goVersion"`
	Kernel      string   `json:"kernel"`
	DataDirFS   string   `json:"dataDirFilesystem"`
	GitCommit   string   `json:"gitCommit"`
	DaemonFlags []string `json:"daemonFlags"`
	Connections int      `json:"connections"`
}

func collectEnv(workDir, benchDir string) envRecord {
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return envRecord{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Kernel:      kernel,
		DataDirFS:   fsTypeOf(workDir),
		GitCommit:   gitCommit(filepath.Dir(benchDir)),
		DaemonFlags: daemonFlags,
		Connections: 2, // one keep-alive API connection + one watch stream
	}
}

// gitCommit reads the checked-out commit straight from .git (the driver's
// checkouts are not git repositories, and the harness must not depend on a
// git binary): HEAD, then the ref it names, loose or packed.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// runOptions configure one run.
type runOptions struct {
	Spec     workloadSpec
	Seed     int64
	Window   time.Duration
	Trace    bool
	QrioBin  string // the built cmd/qrio
	WorkDir  string // scratch root inside the checkout (.bench_build)
	OutDir   string // bench/out
	BenchDir string
}

// result is one run's complete outcome. The last stdout line carries only
// Correct/Attempted/Failed/Metrics; everything else is printed before it
// and saved to bench/out/<workload>.result.json.
type result struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Env       envRecord               `json:"env"`
	Phases    map[string]*phaseCounts `json:"requests"`
	Audit     auditReport             `json:"audit"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	// LatencySamples is the sample count behind the latency percentiles and
	// GuardedPercentile the highest percentile with ≥ 10 samples beyond it.
	LatencySamples    int     `json:"latencySamples"`
	GuardedPercentile float64 `json:"guardedPercentile"`
	// LatencyQuantilesMS is the shape of the measured jobs' latency
	// distribution, as clocked: p10 … p99.
	LatencyQuantilesMS map[string]float64 `json:"latencyQuantilesMs"`
	TotalSeconds       float64            `json:"totalSeconds"`
	// PhaseSeconds is the wall time of each part of the run.
	PhaseSeconds map[string]float64 `json:"phaseSeconds"`
	EndToEnd     map[string]metric  `json:"endToEnd"`
	// AsClocked are the end-to-end metrics before they were restated at the
	// reference host speed.
	AsClocked map[string]metric `json:"endToEndAsClocked"`
	// HostUnitsUS is every host-speed sample of the run, in order: the
	// CPU time one unit took, in microseconds.
	HostUnitsUS []int64           `json:"hostUnitsUs"`
	PerLayer    map[string]metric `json:"perLayer"`
	// StageShare is the median job's time split by client-observed stage
	// (see stageShares).
	StageShare map[string]float64 `json:"stageShareOfP50"`
	Notes      []string           `json:"notes,omitempty"`
}

// ownCPU is the load generator's own cumulative CPU time.
func ownCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOnce performs one complete run: spawn, set up, measure, drain, audit,
// shut down, and (traced) merge spans and probe the layers.
func runOnce(ctx context.Context, o runOptions) (*result, error) {
	began := time.Now()
	p, err := buildPlan(o.Spec, o.Seed, o.Window)
	if err != nil {
		return nil, err
	}
	if pids := staleChildren(o.QrioBin); len(pids) > 0 {
		return nil, fmt.Errorf("stale qrio child still running (pid %v): refusing to measure beside it", pids)
	}
	runDir, err := os.MkdirTemp(o.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	exe, args := o.QrioBin, daemonFlags
	spansPath := filepath.Join(runDir, "server-spans.json")
	if o.Trace {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		exe = self
		args = append([]string{"-serve", "-spans-out", spansPath}, daemonFlags...)
	}
	// One throwaway exec so the binary's pages are in the page cache before
	// set-up is timed, whatever ran before this run.
	exec.Command(exe, "-h").Run()

	res := &result{
		Workload: o.Spec.Name, Seed: o.Seed, Seconds: o.Window.Seconds(), Trace: o.Trace,
		Env: collectEnv(o.WorkDir, o.BenchDir),
	}

	host := startHostSpeed()
	defer host.Stop()
	t0 := time.Now()
	dep, err := spawn(exe, args, runDir)
	if err != nil {
		return nil, err
	}
	defer dep.Kill() // no-op after a clean Stop
	eng := newEngine(dep.URL(), p, o.Window)
	defer eng.closeWatch()
	if err := waitHealthy(ctx, dep, dep.exited, eng.api.Healthy); err != nil {
		return nil, err
	}
	d, err := drive(ctx, dep, eng, host, t0, o.Trace, 2*time.Second)
	if err != nil {
		return nil, err
	}
	host.Stop()
	res.HostUnitsUS = host.unitsUS()
	res.Audit = d.audit
	lap := time.Now()
	eng.closeWatch()
	if err := dep.Stop(); err != nil {
		res.Audit.failf("%v", err)
	}
	d.phase["stop"] = time.Since(lap).Seconds()
	lap = time.Now()

	m := eng.measure()
	res.Phases = m.phases
	res.Attempted, res.Failed = m.attempted, m.failed
	res.LatencySamples = len(m.population)
	res.GuardedPercentile = highestGuardedPercentile(len(m.population))
	res.LatencyQuantilesMS = make(map[string]float64)
	for _, p := range []float64{10, 25, 50, 75, 80, 90, 95, 99} {
		res.LatencyQuantilesMS[fmt.Sprintf("p%g", p)] = percentile(m.latenciesMS(), p)
	}
	res.EndToEnd = endToEnd(m, d, d.setupSlow, d.windowSlow)
	res.AsClocked = endToEnd(m, d, 1, 1)
	res.StageShare = stageShares(m)
	if m.attempted == 0 {
		res.Audit.failf("no job was attempted inside the window")
	}
	if eng.exhausted.Load() {
		res.Notes = append(res.Notes, "request stream ran dry before the window ended: raise MaxRate for this workload")
		res.Audit.failf("request stream exhausted before the window ended")
	}
	// A late generator does not make the outputs wrong, so it does not fail
	// the run; it makes the timings the generator's, so it is flagged here
	// and the repeatability gate refuses such a run.
	if l := percentile(durationsMS(eng.late), 99); l > maxLateP99MS {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"loadgen.late_p99_ms = %.1f > %d: the box stalled the generator; the timings of this run measure it, not the daemon", l, maxLateP99MS))
	}
	res.PerLayer = clientLayerMetrics(eng, m, d)

	if o.Trace {
		d.tracedLayerMetrics(res.PerLayer, m)
		if err := finishTrace(o, eng, m, spansPath, res); err != nil {
			return nil, err
		}
		probes, err := runProbes(p, runDir)
		if err != nil {
			return nil, err
		}
		for k, v := range probes {
			res.PerLayer[k] = v
		}
	}
	d.phase["trace+probes"] = time.Since(lap).Seconds()
	res.PhaseSeconds = d.phase
	res.Correct = len(res.Audit.Errors) == 0 && m.failed == 0
	res.TotalSeconds = time.Since(began).Seconds()
	return res, nil
}

// driven is what drive observed of one deployment.
type driven struct {
	setup  time.Duration // deployment start → warm-up terminal
	cpu    time.Duration // the deployment's CPU over the measured interval
	genCPU time.Duration // the load generator's own CPU over the same
	rssMB  float64
	// setupSlow and windowSlow are how much slower than the reference
	// speed the host ran during set-up and during the measured interval.
	setupSlow, windowSlow float64

	audit auditReport
	phase map[string]float64

	// Traced runs only.
	snap0, snap1 metricSnap
	mem0, mem1   memStats
	idleCPU      float64 // CPU-seconds per second with no job in the system
}

// drive runs set-up, the measured window, the drain and the audit against a
// live, healthy deployment started at t0. With trace set it first measures
// the deployment's idle burn over idle, switches span recording on for the
// window, and scrapes the deployment's counters at the window's edges.
func drive(ctx context.Context, dep deployment, eng *engine, host *hostSpeed, t0 time.Time, trace bool, idle time.Duration) (*driven, error) {
	d := &driven{phase: make(map[string]float64)}
	lap := time.Now()
	mark := func(name string) {
		d.phase[name] = time.Since(lap).Seconds()
		lap = time.Now()
	}
	if trace && idle > 0 {
		// Idle burn: what the deployment spends with no job in the system
		// (100 kubelets heartbeating through the WAL, the reconcile
		// ticks). Taken before any job exists; it costs the traced run's
		// set-up time, which is not a traced-run metric.
		a, err := dep.CPU()
		if err != nil {
			return nil, err
		}
		time.Sleep(idle)
		b, err := dep.CPU()
		if err != nil {
			return nil, err
		}
		d.idleCPU = (b - a).Seconds() / idle.Seconds()
		mark("idle")
	}
	if err := eng.openWatch(ctx); err != nil {
		return nil, err
	}
	if err := eng.runSetup(ctx); err != nil {
		return nil, err
	}
	d.setup = time.Since(t0)
	d.phase["setup"] = d.setup.Seconds()
	lap = time.Now()
	d.setupSlow = host.slowdown(t0, lap)

	var err error
	if trace {
		if err := toggleTrace(dep.URL(), true); err != nil {
			return nil, err
		}
		if d.snap0, err = scrape(ctx, eng.api); err != nil {
			return nil, err
		}
		if d.mem0, err = fetchMemStats(ctx, dep.URL()); err != nil {
			return nil, err
		}
	}
	gen0 := ownCPU()
	cpu0, err := dep.CPU()
	if err != nil {
		return nil, err
	}
	// closeBooks samples everything that is charged to the measured jobs
	// once the last due-in-window job has finished, so the figures hold
	// whole jobs only.
	closeBooks := func() error {
		cpu1, err := dep.CPU()
		if err != nil {
			return err
		}
		d.cpu, d.genCPU = cpu1-cpu0, ownCPU()-gen0
		d.windowSlow = host.slowdown(eng.start, time.Now())
		if trace {
			if d.snap1, err = scrape(ctx, eng.api); err != nil {
				return err
			}
			if d.mem1, err = fetchMemStats(ctx, dep.URL()); err != nil {
				return err
			}
			return toggleTrace(dep.URL(), false)
		}
		return nil
	}
	eng.runWindow(ctx)
	mark("window")
	eng.drain(ctx)
	if err := closeBooks(); err != nil {
		return nil, err
	}
	mark("drain")
	if d.rssMB, err = dep.PeakRSSMB(); err != nil {
		return nil, err
	}
	d.audit = eng.audit(ctx)
	mark("audit")
	return d, nil
}

// tracedLayerMetrics adds the per-layer metrics only a traced run can
// source: deltas of the deployment's own counters and runtime statistics.
func (d *driven) tracedLayerMetrics(out map[string]metric, m measured) {
	layerFromCounters(out, d.snap0, d.snap1, m.completed)
	out["kubelet.idle_cpu_s_per_s"] = metric{d.idleCPU, "s/s"}
	out["proc.alloc_mb_per_job"] = metric{
		float64(d.mem1.TotalAllocBytes-d.mem0.TotalAllocBytes) / (1 << 20) / float64(max(m.completed, 1)), "MB"}
	out["proc.gc_cycles"] = metric{float64(d.mem1.NumGC - d.mem0.NumGC), "count"}
}

// stageShares answers "where does the median job's time go": the mean stage
// split of the jobs in the middle fifth of the latency distribution (p40 to
// p60), over their mean latency. Unlike the stage medians — which are
// reported as per-layer metrics but, being medians of skewed parts, need
// not add up — these shares sum to exactly one.
func stageShares(m measured) map[string]float64 {
	lat := m.latenciesMS()
	lo, hi := percentile(lat, 40), percentile(lat, 60)
	var sum stageSample
	for _, s := range m.population {
		if l := ms(s.latency); l < lo || l > hi {
			continue
		}
		sum.latency += s.latency
		sum.ack += s.ack
		sum.queue += s.queue
		sum.claim += s.claim
		sum.run += s.run
		sum.lag += s.lag
	}
	if sum.latency == 0 {
		return nil
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(sum.latency) }
	return map[string]float64{
		"ack":        share(sum.ack),
		"queue_wait": share(sum.queue),
		"claim_wait": share(sum.claim),
		"run":        share(sum.run),
		"watch_lag":  share(sum.lag),
	}
}

// clientLayerMetrics are the per-layer numbers the load generator observes
// by itself (stage boundaries, its own lateness and cost) — available on
// every run, traced or not.
func clientLayerMetrics(e *engine, m measured, d *driven) map[string]metric {
	lat := m.latenciesMS()
	ack := m.stageMS(func(s stageSample) time.Duration { return s.ack })
	retries, requeues := 0, 0
	e.trk.mu.Lock()
	for _, r := range e.trk.all {
		if r.phase == phaseSetup {
			continue
		}
		retries += max(r.attempts-1, 0)
		requeues += r.requeues
	}
	e.trk.mu.Unlock()
	return map[string]metric{
		"gateway.submit_ack_p50_ms": {percentile(ack, 50), "ms"},
		"gateway.submit_ack_p95_ms": {percentile(ack, 95), "ms"},
		"gateway.watch_lag_p50_ms":  {median(m.stageMS(func(s stageSample) time.Duration { return s.lag })), "ms"},
		"state.queue_wait_p50_ms":   {median(m.stageMS(func(s stageSample) time.Duration { return s.queue })), "ms"},
		"kubelet.claim_wait_p50_ms": {median(m.stageMS(func(s stageSample) time.Duration { return s.claim })), "ms"},
		"kubelet.run_p50_ms":        {median(m.stageMS(func(s stageSample) time.Duration { return s.run })), "ms"},
		"controller.retries":        {float64(retries), "count"},
		"controller.requeues":       {float64(requeues), "count"},
		"client.job_latency_p90_ms": {percentile(lat, 90), "ms"},
		"client.job_latency_p99_ms": {percentile(lat, 99), "ms"},
		"client.latency_samples":    {float64(len(lat)), "count"},
		"client.goodput_jobs_per_s": {m.goodput, "1/s"},
		"client.slo_met_frac":       {ratio(float64(m.okInLimit), float64(m.attempted)), "ratio"},
		"client.failed_frac":        {ratio(float64(m.failed), float64(m.attempted)), "ratio"},
		"loadgen.late_p99_ms":       {percentile(durationsMS(e.late), 99), "ms"},
		"loadgen.cpu_s":             {d.genCPU.Seconds(), "s"},
		"host.setup_slowdown":       {d.setupSlow, "ratio"},
		"host.window_slowdown":      {d.windowSlow, "ratio"},
	}
}

// --- /v1/metrics deltas ------------------------------------------------------

// metricSnap is one scrape of GET /v1/metrics, flattened.
type metricSnap []client.MetricSample

func scrape(ctx context.Context, c *client.Client) (metricSnap, error) {
	fams, err := c.MetricFamilies(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /v1/metrics: %w", err)
	}
	var snap metricSnap
	for _, f := range fams {
		snap = append(snap, f.Samples...)
	}
	return snap, nil
}

// sum adds every sample of the given name whose label (when one is named)
// satisfies keep.
func (s metricSnap) sum(name, label string, keep func(string) bool) float64 {
	total := 0.0
	for _, sm := range s {
		if sm.Name != name {
			continue
		}
		if label != "" && !keep(sm.Get(label)) {
			continue
		}
		total += sm.Value
	}
	return total
}

func is(want string) func(string) bool { return func(v string) bool { return v == want } }

// layerFromCounters fills the per-layer metrics that are deltas of the
// daemon's own counters over the window.
func layerFromCounters(out map[string]metric, a, b metricSnap, completed int) {
	delta := func(name, label string, keep func(string) bool) float64 {
		return b.sum(name, label, keep) - a.sum(name, label, keep)
	}
	jobs := float64(max(completed, 1))
	non2xx := func(code string) bool { return !strings.HasPrefix(code, "2") }

	out["gateway.requests"] = metric{delta("qrio_gateway_requests_total", "", nil), "count"}
	out["gateway.non2xx"] = metric{delta("qrio_gateway_requests_total", "code", non2xx), "count"}

	out["wal.appends_per_job"] = metric{delta("qrio_durability_wal_appends_total", "", nil) / jobs, "count"}
	out["wal.bytes_per_job"] = metric{delta("qrio_durability_wal_lag_bytes", "", nil) / jobs, "B"}
	out["wal.fsync_s_per_job"] = metric{delta("qrio_durability_fsync_duration_seconds_sum", "", nil) / jobs, "s"}

	passes := delta("qrio_sched_pass_duration_seconds_count", "", nil)
	out["sched.pass_mean_ms"] = metric{1000 * ratio(delta("qrio_sched_pass_duration_seconds_sum", "", nil), passes), "ms"}
	out["sched.passes_per_job"] = metric{passes / jobs, "count"}
	out["sched.bound_per_ranked"] = metric{ratio(
		delta("qrio_sched_pass_jobs_total", "outcome", is("bound")),
		delta("qrio_sched_pass_jobs_total", "outcome", is("ranked"))), "ratio"}
	out["sched.bind_conflicts"] = metric{delta("qrio_sched_bind_conflicts_total", "", nil), "count"}

	hits := delta("qrio_meta_cache_events_total", "event", is("hit"))
	misses := delta("qrio_meta_cache_events_total", "event", is("miss"))
	out["meta.cache_hit_frac"] = metric{ratio(hits, hits+misses), "ratio"}
	out["meta.cache_entries"] = metric{b.sum("qrio_meta_cache_entries", "", nil), "count"}
}

// --- traced-run plumbing -----------------------------------------------------

func toggleTrace(baseURL string, on bool) error {
	v := "0"
	if on {
		v = "1"
	}
	resp, err := http.Post(baseURL+"/bench/trace?on="+v, "text/plain", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("toggling trace: HTTP %d", resp.StatusCode)
	}
	return nil
}

func fetchMemStats(ctx context.Context, baseURL string) (memStats, error) {
	var ms memStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/bench/memstats", nil)
	if err != nil {
		return ms, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ms, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ms, fmt.Errorf("memstats: HTTP %d", resp.StatusCode)
	}
	return ms, json.NewDecoder(resp.Body).Decode(&ms)
}

// finishTrace merges the deployment's spans with the client-observed ones,
// links them, derives the span-sourced metrics and writes the trace file.
func finishTrace(o runOptions, e *engine, m measured, spansPath string, res *result) error {
	server, err := readTrace(spansPath)
	if err != nil {
		return fmt.Errorf("reading the deployment's spans: %w", err)
	}
	rec := newRecorder(0)
	type jobSpans struct{ submit, queue int64 }
	byJob := make(map[string]jobSpans, len(m.population))
	type interval struct {
		start, end int64
		id         int64
		job        string
	}
	var submits []interval
	for _, s := range m.population {
		r := s.job
		root := rec.newID()
		at := r.due
		add := func(name string, d time.Duration, attr string) int64 {
			id := rec.newID()
			rec.add(span{ID: id, Parent: root, Name: name, Job: r.name,
				Start: at.UnixNano(), End: at.Add(d).UnixNano(), Attr: attr})
			at = at.Add(d)
			return id
		}
		rec.add(span{ID: root, Name: "job", Job: r.name, Start: r.due.UnixNano(), End: r.due.Add(s.latency).UnixNano(), Attr: r.node})
		add("stage.ack", s.ack, "")
		queue := add("stage.queue_wait", s.queue, "")
		add("stage.claim_wait", s.claim, "")
		add("stage.run", s.run, r.node)
		add("stage.watch_lag", s.lag, "")
		submit := rec.newID()
		rec.add(span{ID: submit, Parent: root, Name: "client.submit", Job: r.name,
			Start: r.sent.UnixNano(), End: r.acked.UnixNano()})
		byJob[r.name] = jobSpans{submit: submit, queue: queue}
		submits = append(submits, interval{r.sent.UnixNano(), r.acked.UnixNano(), submit, r.name})
	}
	sort.Slice(submits, func(i, j int) bool { return submits[i].start < submits[j].start })

	// Link the server's spans to the client's. A score span belongs to its
	// job's queue-wait stage. A submit route span carries no job name, but
	// the API connection is serial, so it lies inside exactly one client
	// submit interval.
	for i := range server.Spans {
		sp := &server.Spans[i]
		switch {
		case sp.Name == "sched.score":
			sp.Parent = byJob[sp.Job].queue
		case strings.HasPrefix(sp.Name, "gateway POST /v1/jobs"):
			k := sort.Search(len(submits), func(k int) bool { return submits[k].start > sp.Start }) - 1
			if k >= 0 && sp.End <= submits[k].end {
				sp.Parent, sp.Job = submits[k].id, submits[k].job
			}
		}
	}
	all := append(rec.snapshot(), server.Spans...)
	self := selfTimes(all)
	var scoreSelf []float64
	for _, sp := range all {
		if sp.Name == "sched.score" {
			scoreSelf = append(scoreSelf, us(self[sp.ID]))
		}
	}
	res.PerLayer["sched.score_self_us"] = metric{mean(scoreSelf), "us"}
	// What recording cost the measured jobs: every span pair of a score at
	// the calibrated per-score price, over the jobs' median latency.
	perJob := tracedScoreCost().Seconds() * float64(len(scoreSelf)) / float64(max(len(m.population), 1))
	if p50 := percentile(m.latenciesMS(), 50) / 1000; p50 > 0 {
		res.PerLayer["trace.overhead_frac"] = metric{perJob / p50, "ratio"}
	}
	res.PerLayer["trace.spans"] = metric{float64(len(all)), "count"}
	res.PerLayer["trace.spans_dropped"] = metric{float64(server.Dropped), "count"}
	return writeTrace(filepath.Join(o.OutDir, o.Spec.Name+".trace.json"), traceFile{
		Workload: o.Spec.Name, Seed: o.Seed, Dropped: server.Dropped, Spans: all,
	})
}
