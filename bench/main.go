// Command qrio-bench is QRIO's end-to-end benchmark: it spawns the real
// durable daemon (cmd/qrio), drives it over /v1 through qrio/client with a
// seeded workload, audits the outputs and prints every metric by name and
// unit. See README.md in this directory for the catalogue.
//
// It is run through run.sh, which builds both binaries first:
//
//	bash bench/run.sh --workload steady-warm --seed 1 --seconds 45 --trace 0
//	bash bench/run.sh --workload steady-warm --seed 1 --seconds 45 --trace 1
//	bash bench/run.sh -repeat 10 -check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds      = flag.Int("seconds", 0, "length of the measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0 = timed run against the spawned daemon, end-to-end metrics; 1 = traced run, per-layer metrics")
		repeat       = flag.Int("repeat", 0, "repeatability gate: run every workload this many times, seeds 1..n, in alternating order")
		check        = flag.Bool("check", false, "with -repeat: fail when a metric's spread or odd/even drift exceeds its bound")
		qrioBin      = flag.String("qrio", "", "path of the built cmd/qrio binary (run.sh sets it)")
		workDir      = flag.String("work", "", "scratch directory inside the checkout (run.sh sets it)")
		benchDir     = flag.String("bench-dir", "", "the benchmark's own directory (run.sh sets it)")

		// -serve hosts the traced deployment; it takes the daemon's flags.
		serve    = flag.Bool("serve", false, "internal: host the traced deployment until SIGTERM")
		spansOut = flag.String("spans-out", "", "internal, with -serve: where to write the server-side spans")
		addr     = flag.String("addr", "127.0.0.1:0", "internal, with -serve: listen address")
		dataDir  = flag.String("data-dir", "", "internal, with -serve: durable state directory")
		_        = flag.Bool("wal-fsync", true, "internal, with -serve: accepted for parity with cmd/qrio (always on)")
		_        = flag.Int("concurrency", daemonConcurrency, "internal, with -serve: accepted for parity with cmd/qrio")
		_        = flag.Int("node-concurrency", daemonNodeConcurrency, "internal, with -serve: accepted for parity with cmd/qrio")
	)
	flag.Parse()

	if *serve {
		if err := serveTraced(*addr, *dataDir, *spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "qrio-bench -serve:", err)
			os.Exit(1)
		}
		return
	}
	if *qrioBin == "" || *workDir == "" || *benchDir == "" {
		fatal("run this through bench/run.sh, which builds cmd/qrio and passes -qrio, -work and -bench-dir")
	}
	spec, err := loadBenchmarkSpec(filepath.Join(filepath.Dir(*benchDir), "BENCHMARK.json"))
	if err != nil {
		fatal("%v", err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}

	// SIGINT/SIGTERM cancel the run; every exit path below kills the child
	// and removes its data directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := runOptions{
		Window:   time.Duration(*seconds) * time.Second,
		QrioBin:  *qrioBin,
		WorkDir:  *workDir,
		BenchDir: *benchDir,
		OutDir:   filepath.Join(*benchDir, "out"),
	}
	if *repeat > 0 {
		if err := runGate(ctx, base, spec, *repeat, *check); err != nil {
			fatal("%v", err)
		}
		return
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fatal("unknown workload %q (want one of %s)", *workloadName, strings.Join(workloadNames(), ", "))
	}
	base.Spec, base.Seed, base.Trace = w, *seed, *trace != 0
	res, err := runOnce(ctx, base)
	if err != nil {
		fatal("%s seed %d: %v", w.Name, *seed, err)
	}
	printResult(os.Stdout, res)
	if err := spec.checkNames(res); err != nil {
		fatal("%v", err)
	}
	if err := saveResult(base.OutDir, res); err != nil {
		fmt.Fprintln(os.Stderr, "qrio-bench: saving result:", err)
	}
	// The contract's final line: exactly these four keys, the metric set
	// chosen by -trace.
	metrics := res.EndToEnd
	if res.Trace {
		metrics = res.PerLayer
	}
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Println(string(last))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qrio-bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// benchmarkSpec is the part of BENCHMARK.json the harness itself reads: the
// default window and, for the gate, each end-to-end metric's bound. The
// file is the single source of those numbers.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	if s.RunSeconds <= 0 {
		return s, fmt.Errorf("%s: run_seconds must be positive", path)
	}
	return s, nil
}

// checkNames holds the run to BENCHMARK.json: the metrics it is about to
// report must be exactly the ones the definition lists for this kind of
// run, with the listed units.
func (s benchmarkSpec) checkNames(r *result) error {
	want := make(map[string]string)
	got := r.EndToEnd
	if r.Trace {
		got = r.PerLayer
		for _, m := range s.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range s.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	var problems []string
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			problems = append(problems, "missing "+name)
		} else if m.Unit != unit {
			problems = append(problems, fmt.Sprintf("%s is in %s, BENCHMARK.json says %s", name, m.Unit, unit))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("the run's metrics do not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// printResult writes the human-readable report: environment, request
// tallies, the audit, and every metric by name with its unit.
func printResult(w *os.File, r *result) {
	mode := "timed run against the spawned daemon"
	if r.Trace {
		mode = "traced run"
	}
	fmt.Fprintf(w, "== %s  seed %d  window %.0fs  (%s; whole run %.1fs)\n", r.Workload, r.Seed, r.Seconds, mode, r.TotalSeconds)
	phases, _ := json.Marshal(r.PhaseSeconds)
	fmt.Fprintf(w, "phase seconds: %s\n", phases)
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "env: %s\n", env)
	for _, ph := range []string{phaseSetup, phaseWindow} {
		if c := r.Phases[ph]; c != nil && c.Sent > 0 {
			fmt.Fprintf(w, "requests %-8s sent %d  succeeded %d  failed %d\n", ph, c.Sent, c.Succeeded, c.Failed)
		}
	}
	fmt.Fprintf(w, "latency samples: %d (highest percentile with >= 10 samples beyond it: p%g)\n", r.LatencySamples, r.GuardedPercentile)
	fmt.Fprintf(w, "audit: %d jobs checked, %d logs sampled, %d watch events, %d states recovered by GET\n",
		r.Audit.JobsChecked, r.Audit.LogsSampled, r.Audit.WatchEvents, r.Audit.PolledStates)
	for _, e := range r.Audit.Errors {
		fmt.Fprintf(w, "AUDIT FAILURE: %s\n", e)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "end-to-end, as clocked (before restating at the reference host speed)", r.AsClocked)
	printMetrics(w, "per-layer", r.PerLayer)
	if len(r.StageShare) > 0 {
		fmt.Fprintf(w, "-- the median job's time by stage (mean split of the jobs between p40 and p60)\n")
		for _, s := range []string{"ack", "queue_wait", "claim_wait", "run", "watch_lag"} {
			fmt.Fprintf(w, "  %-12s %5.1f %%\n", s, 100*r.StageShare[s])
		}
	}
	if !r.Correct {
		fmt.Fprintf(w, "RESULT INVALID: the audit failed or jobs failed; the metrics above must not be used\n")
	}
}

func printMetrics(w *os.File, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "-- %s metrics\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func saveResult(outDir string, r *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	suffix := ".result.json"
	if r.Trace {
		suffix = ".traced-result.json"
	}
	return os.WriteFile(filepath.Join(outDir, r.Workload+suffix), raw, 0o644)
}
