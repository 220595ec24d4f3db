package fidelity_test

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/memo"
	"qrio/internal/quantum/statevec"
)

// extremeDevices returns the default fleet's cleanest and noisiest device
// by mean two-qubit error (sim-q78-p070 at 2.4 % per cx, sim-q60-p098 at
// 71 %).
func extremeDevices(t *testing.T) []*device.Backend {
	t.Helper()
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	clean, noisy := fleet[0], fleet[0]
	for _, b := range fleet {
		if b.AvgTwoQubitErr() < clean.AvgTwoQubitErr() {
			clean = b
		}
		if b.AvgTwoQubitErr() > noisy.AvgTwoQubitErr() {
			noisy = b
		}
	}
	return []*device.Backend{clean, noisy}
}

// chiSquare returns Pearson's statistic of counts (n shots) against the
// distribution p, and its degrees of freedom. Outcomes expected fewer than
// five times, and any p gives no probability, share one bin.
func chiSquare(p map[string]float64, counts map[string]int, n int) (stat float64, df int) {
	keys := slices.Sorted(maps.Keys(p))
	for k := range counts {
		if _, ok := p[k]; !ok {
			keys = append(keys, k)
		}
	}
	var sparseE, sparseO float64
	bins := 0
	for _, k := range keys {
		e, o := p[k]*float64(n), float64(counts[k])
		if e < 5 {
			sparseE, sparseO = sparseE+e, sparseO+o
			continue
		}
		stat += (o - e) * (o - e) / e
		bins++
	}
	if sparseE > 0 {
		stat += (sparseO - sparseE) * (sparseO - sparseE) / sparseE
		bins++
	} else if sparseO > 0 {
		return math.Inf(1), bins
	}
	return stat, bins - 1
}

// TestExactAgreesWithTrajectories: the exact distribution is the one the
// trajectories sample. For every steady-warm family on the fleet's
// cleanest and noisiest device, 20,000 trajectory shots pass a chi-square
// test against it at α = 10⁻⁴ (z = 3.719; the critical value by
// Wilson–Hilferty).
func TestExactAgreesWithTrajectories(t *testing.T) {
	const shots = 20000
	for _, job := range goldenJobs(t)[:6] {
		for _, b := range extremeDevices(t) {
			name := job.name + " on " + b.Name
			compact, model, err := fidelity.Prepare(fidelity.Estimator{}, job.c, b)
			if err != nil {
				t.Fatal(err)
			}
			if !statevec.Exactable(compact) {
				t.Fatalf("%s: %d qubits, not exactable", name, compact.NumQubits)
			}
			d, err := statevec.Exact(compact, model)
			if err != nil {
				t.Fatal(err)
			}
			counts, err := statevec.Noisy{Model: model, Shots: shots, Seed: 41}.Counts(compact)
			if err != nil {
				t.Fatal(err)
			}
			stat, df := chiSquare(d.Probabilities(), counts, shots)
			k := float64(df)
			crit := k * math.Pow(1-2/(9*k)+3.719*math.Sqrt(2/(9*k)), 3)
			if df < 1 || stat > crit {
				t.Errorf("%s: chi-square %.1f on %d degrees of freedom, critical %.1f", name, stat, df, crit)
			}
		}
	}
}

// TestExactCountsIndependentOfMemo: an execution's counts and fidelity bits
// are a function of (circuit, device, shots, seed), not of what the memo of
// exact distributions holds — from a cold memo, a warm one, and eight
// concurrent runs of every (family, device) while the memo is emptied
// under them.
func TestExactCountsIndependentOfMemo(t *testing.T) {
	type run struct {
		job goldenJob
		b   *device.Backend
	}
	var runs []run
	for _, job := range goldenJobs(t)[:6] {
		for _, b := range extremeDevices(t) {
			runs = append(runs, run{job, b})
		}
	}
	execute := func(i int) (string, error) {
		r := runs[i]
		ex, err := fidelity.Estimator{Shots: r.job.shots, Seed: int64(i)}.Execute(r.job.c, r.b)
		if err != nil {
			return "", err
		}
		if ex.Method != fidelity.MethodDensityMatrix {
			return "", fmt.Errorf("%s on %s executed via %s", r.job.name, r.b.Name, ex.Method)
		}
		keys := slices.Sorted(maps.Keys(ex.Counts))
		for j, k := range keys {
			keys[j] = fmt.Sprintf("%s:%d", k, ex.Counts[k])
		}
		return fmt.Sprintf("%016x %s", math.Float64bits(ex.Fidelity), strings.Join(keys, ",")), nil
	}
	want := make([]string, len(runs))
	for i := range runs {
		memo.Empty()
		var err error
		if want[i], err = execute(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := range runs {
		if got, err := execute(i); err != nil || got != want[i] {
			t.Fatalf("warm run %d = %q, %v; cold %q", i, got, err, want[i])
		}
	}
	done := make(chan struct{})
	emptied := make(chan struct{})
	go func() {
		defer close(emptied)
		for {
			select {
			case <-done:
				return
			default:
				memo.Empty()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(runs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range runs {
				if got, err := execute((i + w) % len(runs)); err != nil {
					errs <- err
				} else if got != want[(i+w)%len(runs)] {
					errs <- fmt.Errorf("concurrent run %d = %q; cold %q", (i+w)%len(runs), got, want[(i+w)%len(runs)])
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-emptied
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
