// Command benchcompare diffs a fresh benchmark run against the committed
// baseline (BENCH_results.json) and fails on throughput regressions — the
// guard that keeps the scheduling hot path from quietly decaying as the
// codebase grows. Both inputs are `go test -json` streams as produced by
// `make bench-json` / `make bench-compare`.
//
// For every benchmark whose top-level name matches -match (a regular
// expression, as `go test -bench` reads one; `make bench-compare` passes
// the union of the Makefile's GUARDED_* patterns, so what it runs is what
// is compared), the throughput is the benchmark's own */s metric when it reports one
// (jobs/s, bound-jobs/s, ...) and 1e9/ns-op otherwise. When a stream holds
// several runs of one benchmark (`-count=N`), the MEDIAN throughput is
// compared — single noisy runs stop failing CI. A benchmark regresses
// when the median drops more than -threshold percent below the baseline.
// Allocation is guarded too: when both sides report B/op or allocs/op, a
// median that grows more than -threshold percent is a regression (from a
// baseline of zero, any growth is). Allocation counts repeat run to run on
// a shared host where ns/op does not, so this half of the guard is the
// one that cannot flake. Benchmarks present on only one side are reported
// but never fail the run, so adding or retiring benches doesn't break CI.
//
// When $GITHUB_STEP_SUMMARY is set (or -summary names a file), the delta
// table is additionally appended there as GitHub-flavoured markdown, so
// every CI run shows its per-benchmark deltas on the workflow summary
// page.
//
// Refresh the baseline with `make bench-json` on a quiet machine and
// commit the resulting BENCH_results.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the test2json stream we care about.
type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// result is one parsed benchmark line.
type result struct {
	nsPerOp float64
	metrics map[string]float64 // unit → value, e.g. "bound-jobs/s" → 19870
}

// throughput returns ops-per-second-like figures: a reported */s metric
// when present (preferring it: the bench chose it as the headline), else
// the inverse of ns/op.
func (r result) throughput() (float64, string) {
	var units []string
	for unit := range r.metrics {
		if strings.HasSuffix(unit, "/s") {
			units = append(units, unit)
		}
	}
	if len(units) > 0 {
		sort.Strings(units) // deterministic pick if a bench reports several
		return r.metrics[units[0]], units[0]
	}
	if r.nsPerOp > 0 {
		return 1e9 / r.nsPerOp, "op/s"
	}
	return 0, ""
}

// parseFile extracts benchmark results from a test2json stream file.
func parseFile(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse extracts benchmark results from a test2json stream. A stream
// produced with -count=N yields N entries per benchmark.
func parse(r io.Reader) (map[string][]result, error) {
	out := make(map[string][]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	// last tracks the benchmark the stream is currently inside: with
	// -count=N only the first run's events carry the Test field — the
	// repeats arrive as bare package-level numeric lines and attribute to
	// the most recently named benchmark (runs are sequential).
	last := ""
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate stray non-JSON lines
		}
		if ev.Test != "" {
			last = ev.Test
		}
		if ev.Action != "output" {
			continue
		}
		if trimmed := strings.TrimSpace(ev.Output); strings.HasPrefix(trimmed, "Benchmark") &&
			!strings.Contains(trimmed, " ns/op") {
			// A name-only flush ("BenchmarkFoo    \t") opens a run whose
			// numbers follow in a later event.
			if f := strings.Fields(trimmed); len(f) > 0 {
				last = stripProcSuffix(f[0])
			}
			continue
		}
		fallback := ev.Test
		if fallback == "" {
			fallback = last
		}
		name, res, ok := parseBenchLine(fallback, ev.Output)
		if ok {
			out[name] = append(out[name], res)
			last = name
		}
	}
	return out, sc.Err()
}

// medianThroughput reduces a benchmark's runs to the median throughput
// (the de-flaking step: with -count=3 one outlier run cannot swing the
// comparison). The unit comes from the first run reporting one.
func medianThroughput(runs []result) (float64, string) {
	vals := make([]float64, 0, len(runs))
	unit := ""
	for _, r := range runs {
		v, u := r.throughput()
		if v <= 0 {
			continue
		}
		vals = append(vals, v)
		if unit == "" {
			unit = u
		}
	}
	if len(vals) == 0 {
		return 0, ""
	}
	return median(vals), unit
}

// medianMetric is the median of one reported unit (B/op, allocs/op) over
// the runs that report it; ok is false when none does.
func medianMetric(runs []result, unit string) (v float64, ok bool) {
	var vals []float64
	for _, r := range runs {
		if v, has := r.metrics[unit]; has {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	return median(vals), true
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// allocUnits are the allocation metrics -benchmem reports.
var allocUnits = []string{"B/op", "allocs/op"}

// parseBenchLine parses one benchmark result. test2json puts the name in
// the event's Test field; for slow benchmarks the Output carries only
// `       1	  123 ns/op	 456 x/s` (the name was flushed in an earlier
// event), while fast ones repeat `BenchmarkFoo-8` at the start.
func parseBenchLine(test, line string) (string, result, bool) {
	line = strings.TrimSpace(line)
	if !strings.Contains(line, " ns/op") {
		return "", result{}, false
	}
	fields := strings.Fields(line)
	name := test
	if strings.HasPrefix(line, "Benchmark") {
		name = stripProcSuffix(fields[0])
		fields = fields[1:]
	}
	if name == "" || !strings.HasPrefix(name, "Benchmark") || len(fields) < 3 {
		return "", result{}, false
	}
	res := result{metrics: make(map[string]float64)}
	// fields[0] is the iteration count; after that, (value, unit) pairs.
	for i := 1; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.nsPerOp = v
		} else {
			res.metrics[unit] = v
		}
	}
	return name, res, true
}

// stripProcSuffix removes the -GOMAXPROCS suffix so runs on machines with
// different core counts align on one benchmark name.
func stripProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// row is one rendered comparison line, shared by the console table and
// the markdown step summary.
type row struct {
	name, baseline, current, delta string
	regressed                      bool
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_results.json", "committed baseline (test2json stream)")
	currentPath := flag.String("current", "BENCH_current.json", "fresh run (test2json stream)")
	threshold := flag.Float64("threshold", 25, "max tolerated throughput drop or allocation growth, percent")
	match := flag.String("match", "", "regular expression over top-level benchmark names to guard (required)")
	summaryPath := flag.String("summary", os.Getenv("GITHUB_STEP_SUMMARY"),
		"append the delta table as markdown to this file (default: $GITHUB_STEP_SUMMARY when set)")
	flag.Parse()

	baseline, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: reading baseline: %v\n", err)
		os.Exit(2)
	}
	current, err := parseFile(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: reading current run: %v\n", err)
		os.Exit(2)
	}
	guarded, err := regexp.Compile(*match)
	if *match == "" || err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: -match must name the guarded benchmarks as a regular expression (%q: %v)\n", *match, err)
		os.Exit(2)
	}

	names := make(map[string]bool)
	for n := range baseline {
		names[n] = true
	}
	for n := range current {
		names[n] = true
	}
	var ordered []string
	for n := range names {
		if top, _, _ := strings.Cut(n, "/"); guarded.MatchString(top) {
			ordered = append(ordered, n)
		}
	}
	sort.Strings(ordered)
	if len(ordered) == 0 {
		fmt.Fprintln(os.Stderr, "benchcompare: no guarded benchmarks found in either file")
		os.Exit(2)
	}

	rows, regressions := compare(baseline, current, ordered, *threshold)

	fmt.Printf("%-55s %24s %34s %10s\n", "benchmark", "baseline", "current", "delta")
	for _, r := range rows {
		flag := ""
		if r.regressed {
			flag = "  REGRESSION"
		}
		fmt.Printf("%-55s %24s %34s %10s%s\n", r.name, r.baseline, r.current, r.delta, flag)
	}
	verdict := fmt.Sprintf("benchcompare: all guarded benchmarks within %.0f%% of the baseline", *threshold)
	if regressions > 0 {
		verdict = fmt.Sprintf("benchcompare: %d benchmark metric(s) regressed more than %.0f%% against the baseline",
			regressions, *threshold)
	}
	if err := writeSummary(*summaryPath, rows, verdict); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: writing step summary: %v\n", err)
	}
	if regressions > 0 {
		fmt.Fprintln(os.Stderr, verdict)
		os.Exit(1)
	}
	fmt.Println(verdict)
}

// compare diffs each named benchmark's medians: throughput must not drop,
// and B/op and allocs/op must not grow, by more than threshold percent.
func compare(baseline, current map[string][]result, names []string, threshold float64) (rows []row, regressions int) {
	for _, name := range names {
		b, inBase := baseline[name]
		c, inCur := current[name]
		switch {
		case !inBase:
			tp, unit := medianThroughput(c)
			rows = append(rows, row{name: name, baseline: "(new)",
				current: fmt.Sprintf("%.1f %s", tp, unit), delta: "-"})
			continue
		case !inCur:
			rows = append(rows, row{name: name, baseline: "-", current: "(missing)", delta: "-"})
			continue
		}
		if bt, unit := medianThroughput(b); bt > 0 {
			ct, _ := medianThroughput(c)
			delta := (ct - bt) / bt * 100
			rows = append(rows, row{
				name:      name,
				baseline:  fmt.Sprintf("%.1f %s", bt, unit),
				current:   fmt.Sprintf("%.1f %s (median of %d)", ct, unit, len(c)),
				delta:     fmt.Sprintf("%+.1f%%", delta),
				regressed: delta < -threshold,
			})
		}
		for _, unit := range allocUnits {
			bm, okB := medianMetric(b, unit)
			cm, okC := medianMetric(c, unit)
			if !okB || !okC {
				continue
			}
			r := row{
				name:      name + " " + unit,
				baseline:  fmt.Sprintf("%.0f %s", bm, unit),
				current:   fmt.Sprintf("%.0f %s (median of %d)", cm, unit, len(c)),
				delta:     "+inf%",
				regressed: cm > 0,
			}
			if bm > 0 {
				delta := (cm - bm) / bm * 100
				r.delta, r.regressed = fmt.Sprintf("%+.1f%%", delta), delta > threshold
			}
			rows = append(rows, r)
		}
	}
	for _, r := range rows {
		if r.regressed {
			regressions++
		}
	}
	return rows, regressions
}

// writeSummary appends the delta table as a markdown section (the GitHub
// step summary format). A missing path is a no-op.
func writeSummary(path string, rows []row, verdict string) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var sb strings.Builder
	sb.WriteString("### Benchmark comparison\n\n")
	sb.WriteString("| benchmark | baseline | current | delta |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, r := range rows {
		delta := r.delta
		if r.regressed {
			delta = "**" + delta + " REGRESSION**"
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s |\n", r.name, r.baseline, r.current, delta)
	}
	sb.WriteString("\n" + verdict + "\n\n")
	_, err = f.WriteString(sb.String())
	return err
}
