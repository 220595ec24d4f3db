package fidelity_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/graph"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

func TestExecuteDenseVsStabilizerAgree(t *testing.T) {
	// A Clifford circuit small enough for both engines: force each path
	// and compare fidelities.
	c := workload.GHZ(5)
	b := uniform(t, "dual", graph.Line(8), 0.1, 0.01, 0.02)
	dense := fidelity.Estimator{Shots: 8000, Seed: 3}
	exD, err := dense.Execute(c, b)
	if err != nil {
		t.Fatal(err)
	}
	if exD.Method != fidelity.MethodDensityMatrix {
		t.Fatalf("dense path used %s", exD.Method)
	}
	// Cap dense simulation below the circuit width to force the tableau.
	stab := fidelity.Estimator{Shots: 8000, Seed: 4, MaxDenseQubits: 2}
	exS, err := stab.Execute(c, b)
	if err != nil {
		t.Fatal(err)
	}
	if exS.Method != "stabilizer" {
		t.Fatalf("stabilizer path used %s", exS.Method)
	}
	if math.Abs(exD.Fidelity-exS.Fidelity) > 0.05 {
		t.Fatalf("engines disagree: dense %v vs stabilizer %v", exD.Fidelity, exS.Fidelity)
	}
}

func TestExecuteWideCliffordUsesStabilizer(t *testing.T) {
	// 40-qubit GHZ on a 50-qubit device: far beyond dense simulation.
	c := workload.GHZ(40)
	b, err := device.GenerateBackend("wide", 50, 0.7, device.DefaultFleetSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	est := fidelity.Estimator{Shots: 64, Seed: 5}
	ex, err := est.Execute(c, b)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Method != "stabilizer" {
		t.Fatalf("method = %s", ex.Method)
	}
	if ex.Fidelity < 0 || ex.Fidelity > 1 {
		t.Fatalf("fidelity out of range: %v", ex.Fidelity)
	}
	// The compact circuit keeps one qubit per physical qubit it touched.
	if compact, _, err := fidelity.Prepare(est, c, b); err != nil || compact.NumQubits < 40 {
		t.Fatalf("active footprint %d < 40 (%v)", compact.NumQubits, err)
	}
}

// TestExecuteWideCliffordCancelled: the tableau path honours the job's
// context as the dense one does — a cancelled execution of a wide Clifford
// circuit returns the context's error instead of running its shots out.
func TestExecuteWideCliffordCancelled(t *testing.T) {
	b, err := device.GenerateBackend("wide", 50, 0.7, device.DefaultFleetSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est := fidelity.Estimator{Shots: 64, Seed: 5, Context: ctx}
	if ex, err := est.Execute(workload.GHZ(40), b); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute = %v, %v; want context.Canceled", ex, err)
	}
}

func TestExecuteWideNonCliffordFails(t *testing.T) {
	// A wide non-Clifford circuit must be rejected with a clear error —
	// this is the regime where only the canary method works.
	c := circuit.New(30)
	for q := 0; q < 30; q++ {
		c.T(q)
		c.H(q)
	}
	for q := 0; q < 29; q++ {
		c.CX(q, q+1)
	}
	c.MeasureAll()
	b, err := device.GenerateBackend("wide2", 40, 0.7, device.DefaultFleetSpec(), 9)
	if err != nil {
		t.Fatal(err)
	}
	est := fidelity.Estimator{Shots: 32, Seed: 6, MaxDenseQubits: 16}
	_, err = est.Execute(c, b)
	if err == nil {
		t.Fatal("wide non-Clifford circuit accepted")
	}
	if !strings.Contains(err.Error(), "not Clifford") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// The canary, by contrast, still works here.
	if _, err := est.CanaryFidelity(c, b); err != nil {
		t.Fatalf("canary should handle the wide circuit: %v", err)
	}
}

func TestExecuteRecordsTranspilationArtifacts(t *testing.T) {
	c := workload.GHZ(4)
	b := uniform(t, "art", graph.Line(6), 0.05, 0.01, 0.02)
	est := fidelity.Estimator{Shots: 128, Seed: 7}
	ex, err := est.Execute(c, b)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := qasm.Parse(ex.TranspiledQASM)
	if err != nil || tr.NumQubits != 6 {
		t.Fatalf("transpiled circuit missing or wrong register: %v", err)
	}
	if tr.Size() != ex.Gates || tr.CountOps()["cx"] != ex.CX || tr.Depth() != ex.Depth {
		t.Fatalf("record says %d gates (%d cx), depth %d; its text %d (%d), depth %d",
			ex.Gates, ex.CX, ex.Depth, tr.Size(), tr.CountOps()["cx"], tr.Depth())
	}
	total := 0
	for _, n := range ex.Counts {
		total += n
	}
	if total != 128 {
		t.Fatalf("counts total %d != shots", total)
	}
}

func TestTopCounts(t *testing.T) {
	counts := map[string]int{"00": 5, "01": 9, "10": 9, "11": 1}
	top := fidelity.TopCounts(counts, 2)
	if len(top) != 2 || top[0] != "01:9" || top[1] != "10:9" {
		t.Fatalf("TopCounts = %v (ties must break lexicographically)", top)
	}
	if got := fidelity.TopCounts(counts, 10); len(got) != 4 {
		t.Fatalf("TopCounts cap failed: %v", got)
	}
	if got := fidelity.TopCounts(nil, 3); len(got) != 0 {
		t.Fatalf("TopCounts(nil) = %v", got)
	}
}

// TestHellingerProperties checks the metric's bounds and symmetry over
// random distributions.
func TestHellingerProperties(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		// Build two small normalised distributions from the fuzz inputs.
		pa := float64(a%100) + 1
		pb := float64(b%100) + 1
		qa := float64(c%100) + 1
		qb := float64(d%100) + 1
		p := map[string]float64{"0": pa / (pa + pb), "1": pb / (pa + pb)}
		q := map[string]float64{"0": qa / (qa + qb), "1": qb / (qa + qb)}
		h1 := fidelity.Hellinger(p, q)
		h2 := fidelity.Hellinger(q, p)
		if math.Abs(h1-h2) > 1e-12 {
			return false // symmetric
		}
		if h1 < 0 || h1 > 1+1e-12 {
			return false // bounded
		}
		// Identity of indiscernibles (within float slack).
		if fidelity.Hellinger(p, p) < 1-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTVDHellingerConsistency: both metrics must agree on ordering for
// nested perturbations of a distribution.
func TestTVDHellingerConsistency(t *testing.T) {
	base := map[string]float64{"0": 0.5, "1": 0.5}
	near := map[string]float64{"0": 0.55, "1": 0.45}
	far := map[string]float64{"0": 0.9, "1": 0.1}
	if fidelity.TVD(base, near) >= fidelity.TVD(base, far) {
		t.Fatal("TVD ordering broken")
	}
	if fidelity.Hellinger(base, near) <= fidelity.Hellinger(base, far) {
		t.Fatal("Hellinger ordering broken (higher = closer)")
	}
}
