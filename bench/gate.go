package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

var errAuditFailed = errors.New("output audit failed")

// maxLateP99MS is how late (p99, ms) the open-loop generator may send
// before a run's timings count as the generator's rather than the daemon's.
const maxLateP99MS = 20

// runGate is the repeatability gate: every workload `repeat` times (seeds
// 1..repeat), the workloads interleaved in an order that reverses every
// round so none always runs on a warm or a cold box, then per metric the
// median, quartiles and count — judged the way the driver judges the
// benchmark:
//
//   - spread: (Q3 − Q1) ÷ median of the runs, with Python's
//     statistics.quantiles(n=4) quartiles, must stay within the metric's
//     bound (setup_s is exempt from this one, as it is for the driver);
//   - drift: the median of the even-numbered runs must not be worse than
//     the median of the odd-numbered runs by more than the bound — two
//     interleaved sets of runs of the same code.
//
// A spread above a third of the bound is flagged, not failed: that is the
// margin the benchmark's authors aim for.
func runGate(ctx context.Context, base runOptions, spec benchmarkSpec, repeat int, check bool) error {
	values := make(map[string]map[string][]float64) // workload → metric → per-run values
	for _, w := range workloads {
		values[w.Name] = make(map[string][]float64)
	}
	began := time.Now()
	var lateRuns []string
	for round := 0; round < repeat; round++ {
		order := append([]workloadSpec(nil), workloads...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			o := base
			o.Spec, o.Seed = w, int64(round+1)
			res, err := runOnce(ctx, o)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, o.Seed, err)
			}
			if !res.Correct {
				printResult(os.Stderr, res)
				return fmt.Errorf("%s seed %d: %w", w.Name, o.Seed, errAuditFailed)
			}
			if late := res.PerLayer["loadgen.late_p99_ms"].Value; late > maxLateP99MS {
				lateRuns = append(lateRuns, fmt.Sprintf("%s seed %d: loadgen.late_p99_ms = %.1f", w.Name, o.Seed, late))
			}
			for name, m := range res.EndToEnd {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %-14s p50 %8.2f ms (%8.2f as clocked, host %.2fx slower than reference)  (%.0fs elapsed)\n",
				round+1, repeat, w.Name, res.EndToEnd["job_latency_p50_ms"].Value, res.AsClocked["job_latency_p50_ms"].Value,
				res.PerLayer["host.window_slowdown"].Value, time.Since(began).Seconds())
		}
	}

	var b strings.Builder
	failures := 0
	fmt.Fprintf(&b, "# Baseline: %d runs per workload, window %.0f s, seeds 1..%d\n\n", repeat, base.Window.Seconds(), repeat)
	env := collectEnv(base.WorkDir, base.BenchDir)
	fmt.Fprintf(&b, "Machine: %d cores, %s, kernel %s, data dir on %s; commit %s; daemon flags `%s`.\n\n",
		env.NumCPU, env.GoVersion, env.Kernel, env.DataDirFS, env.GitCommit, strings.Join(env.DaemonFlags, " "))
	fmt.Fprintf(&b, "spread = (Q3 − Q1) ÷ median; drift = how much worse the even runs' median is than the odd runs' (negative = better). ")
	fmt.Fprintf(&b, "`!` marks a spread above a third of the bound, `FAIL` a spread or drift above the bound. ")
	fmt.Fprintf(&b, "Times are stated at the reference host speed.\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "\n## %s\n\n", w.Name)
		fmt.Fprintf(&b, "| metric | unit | n | min | Q1 | median | Q3 | max | spread | drift | bound | |\n|---|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range spec.EndToEnd {
			vs := values[w.Name][m.Name]
			q1, q2, q3 := quartiles(vs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vs {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / math.Abs(q2)
			}
			var odd, even []float64
			for i, v := range vs {
				if i%2 == 0 {
					odd = append(odd, v)
				} else {
					even = append(even, v)
				}
			}
			drift := 0.0
			if mo := median(odd); mo != 0 && len(even) > 0 {
				drift = (median(even) - mo) / math.Abs(mo)
				if m.Better == "higher" {
					drift = -drift
				}
			}
			mark := ""
			switch {
			case drift > m.Bound, m.Name != "setup_s" && spread > m.Bound:
				mark = "FAIL"
				failures++
			case m.Name != "setup_s" && spread > m.Bound/3:
				mark = "!"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %d | %.4g | %.4g | %.4g | %.4g | %.4g | %.1f %% | %+.1f %% | %.0f %% | %s |\n",
				m.Name, m.Unit, len(vs), lo, q1, q2, q3, hi, 100*spread, 100*drift, 100*m.Bound, mark)
		}
	}
	if len(lateRuns) > 0 {
		fmt.Fprintf(&b, "\nRuns whose generator ran late (their timings measure the generator; counted as gate failures):\n\n")
		for _, l := range lateRuns {
			fmt.Fprintf(&b, "- %s\n", l)
		}
		failures += len(lateRuns)
	}
	fmt.Print(b.String())
	out := filepath.Join(base.OutDir, "BASELINE.md")
	if err := os.MkdirAll(base.OutDir, 0o755); err == nil {
		os.WriteFile(out, []byte(b.String()), 0o644)
	}
	if check && failures > 0 {
		return fmt.Errorf("repeatability gate: %d failure(s) — metrics outside their bound or late runs", failures)
	}
	return nil
}
