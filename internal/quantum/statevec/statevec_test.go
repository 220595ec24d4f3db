package statevec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBellState(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Probabilities()
	if !approxEq(p[0], 0.5, 1e-12) || !approxEq(p[3], 0.5, 1e-12) {
		t.Fatalf("bell probabilities = %v", p)
	}
	if !approxEq(p[1], 0, 1e-12) || !approxEq(p[2], 0, 1e-12) {
		t.Fatalf("bell probabilities = %v", p)
	}
}

func TestGateIdentities(t *testing.T) {
	// Pairs of circuits that must produce identical states up to global phase.
	build := func(f func(c *circuit.Circuit)) *State {
		c := circuit.New(2)
		// Start from a non-trivial state so identities are exercised fully.
		c.H(0)
		c.T(0)
		c.H(1)
		c.S(1)
		c.CX(0, 1)
		f(c)
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		a, b func(c *circuit.Circuit)
	}{
		{"HH=I", func(c *circuit.Circuit) { c.H(0); c.H(0) }, func(c *circuit.Circuit) {}},
		{"SS=Z", func(c *circuit.Circuit) { c.S(0); c.S(0) }, func(c *circuit.Circuit) { c.Z(0) }},
		{"TT=S", func(c *circuit.Circuit) { c.T(0); c.T(0) }, func(c *circuit.Circuit) { c.S(0) }},
		{"HXH=Z", func(c *circuit.Circuit) { c.H(0); c.X(0); c.H(0) }, func(c *circuit.Circuit) { c.Z(0) }},
		{"swap=3cx", func(c *circuit.Circuit) { c.Swap(0, 1) }, func(c *circuit.Circuit) {
			c.CX(0, 1)
			c.CX(1, 0)
			c.CX(0, 1)
		}},
		{"cz sym", func(c *circuit.Circuit) { c.CZ(0, 1) }, func(c *circuit.Circuit) { c.CZ(1, 0) }},
		{"u2(0,pi)=h", func(c *circuit.Circuit) { c.U2(0, 0, math.Pi) }, func(c *circuit.Circuit) { c.H(0) }},
		{"u3(pi,0,pi)=x", func(c *circuit.Circuit) { c.U3(0, math.Pi, 0, math.Pi) }, func(c *circuit.Circuit) { c.X(0) }},
		{"rz vs u1 phase", func(c *circuit.Circuit) { c.RZ(0, 0.7) }, func(c *circuit.Circuit) { c.U1(0, 0.7) }},
	}
	for _, tc := range cases {
		sa, sb := build(tc.a), build(tc.b)
		if !sa.EqualUpToGlobalPhase(sb, 1e-9) {
			t.Errorf("%s: states differ", tc.name)
		}
	}
}

func TestDecomposedGatesMatchDirect(t *testing.T) {
	// ccx, cswap, ccz, crz, rzz, ch, cy decompositions must match a direct
	// matrix-free reference: we compare the decomposition against the
	// statevector of known truth tables / phase behaviour.
	c := circuit.New(3)
	c.X(0)
	c.X(1)
	c.CCX(0, 1, 2) // should flip qubit 2
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Probabilities()
	if !approxEq(p[7], 1, 1e-9) {
		t.Fatalf("ccx truth table broken: %v", p)
	}

	c2 := circuit.New(3)
	c2.X(0)
	c2.CCX(0, 1, 2) // only one control set: no flip
	s2, err := Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s2.Probabilities()[1], 1, 1e-9) {
		t.Fatalf("ccx fired with one control: %v", s2.Probabilities())
	}
}

func TestIdealDistributionGHZ(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.MeasureAll()
	dist, err := IdealDistribution(c)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(dist["000"], 0.5, 1e-12) || !approxEq(dist["111"], 0.5, 1e-12) {
		t.Fatalf("GHZ distribution = %v", dist)
	}
	if len(dist) != 2 {
		t.Fatalf("GHZ distribution has %d entries: %v", len(dist), dist)
	}
}

func TestIdealDistributionPartialMeasure(t *testing.T) {
	c := circuit.NewWithClbits(2, 1)
	c.H(0)
	c.CX(0, 1)
	c.Measure(1, 0) // only measure qubit 1 into clbit 0
	dist, err := IdealDistribution(c)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(dist["0"], 0.5, 1e-12) || !approxEq(dist["1"], 0.5, 1e-12) {
		t.Fatalf("partial distribution = %v", dist)
	}
}

func TestMidCircuitMeasurementRejected(t *testing.T) {
	c := circuit.New(1)
	c.Measure(0, 0)
	c.H(0)
	if _, err := IdealDistribution(c); err == nil {
		t.Fatal("expected mid-circuit measurement error")
	}
}

func TestMeasureQubitStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ones := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		s, _ := New(1)
		s.Apply1Q(0, circuit.Gate{Name: circuit.GateH}.MustMatrix1Q())
		ones += s.MeasureQubit(0, rng.Float64())
	}
	frac := float64(ones) / trials
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("H measurement bias: %v", frac)
	}
}

func TestMeasureCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, _ := New(2)
	s.Apply1Q(0, circuit.Gate{Name: circuit.GateH}.MustMatrix1Q())
	s.ApplyCX(0, 1)
	out := s.MeasureQubit(0, rng.Float64())
	// After measuring qubit 0 of a Bell pair, qubit 1 must agree.
	if got := s.ProbOne(1); !approxEq(got, float64(out), 1e-9) {
		t.Fatalf("collapse broken: out=%d P(q1=1)=%v", out, got)
	}
}

func TestNoisyCountsNoiselessMatchesIdeal(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	c.MeasureAll()
	counts, err := Noisy{Shots: 2000, Seed: 5}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	if counts["01"]+counts["10"] != 0 {
		t.Fatalf("noiseless bell produced odd-parity outcomes: %v", counts)
	}
	frac := float64(counts["00"]) / 2000
	if frac < 0.44 || frac > 0.56 {
		t.Fatalf("bell 00 fraction = %v", frac)
	}
}

func TestNoisyCountsReadoutError(t *testing.T) {
	// |0> with 30% readout flip should read 1 about 30% of the time.
	c := circuit.New(1)
	c.MeasureAll()
	m := noise.Uniform(1, 0, 0, 0.3)
	counts, err := Noisy{Model: m, Shots: 5000, Seed: 9}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(counts["1"]) / 5000
	if frac < 0.26 || frac > 0.34 {
		t.Fatalf("readout flip fraction = %v, want ~0.3", frac)
	}
}

func TestNoisyCountsGateErrorDegradesFidelity(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	c.MeasureAll()
	m := noise.Uniform(2, 0.05, 0.2, 0)
	counts, err := Noisy{Model: m, Shots: 4000, Seed: 13}.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := counts["01"] + counts["10"]
	if bad == 0 {
		t.Fatal("depolarizing noise produced no odd-parity outcomes")
	}
	if float64(bad)/4000 > 0.5 {
		t.Fatalf("noise overwhelming: %v", counts)
	}
}

// cancelAt is a context that turns cancelled at the n-th look.
type cancelAt struct {
	context.Context
	looks, n int
}

func (c *cancelAt) Err() error {
	if c.looks++; c.looks >= c.n {
		return context.Canceled
	}
	return nil
}

// TestNoisyCancelledMidway: a run whose context is cancelled while shots
// remain stops at the next shot block and returns context.Canceled, on
// both the sampled and the gate-by-gate loop; a context never cancelled
// changes no count.
func TestNoisyCancelledMidway(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	withReset := circuit.New(3)
	withReset.H(0)
	withReset.Reset(0)
	withReset.CX(1, 2)
	m := noise.Uniform(3, 0.01, 0.05, 0.02)
	for name, c := range map[string]*circuit.Circuit{"sampled": c, "reset": withReset} {
		ctx := &cancelAt{Context: context.Background(), n: 3}
		if _, err := (Noisy{Model: m, Shots: 5 * shotBlock, Seed: 3, Context: ctx}).Counts(c); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled run returned %v", name, err)
		}
		if ctx.looks != 3 {
			t.Fatalf("%s: the run looked at its context %d times, want 3 (one per block until cancelled)", name, ctx.looks)
		}
		want, err := Noisy{Model: m, Shots: 5 * shotBlock, Seed: 3}.Counts(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Noisy{Model: m, Shots: 5 * shotBlock, Seed: 3, Context: context.Background()}.Counts(c)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: with a live context %v, %v; without %v", name, got, err, want)
		}
	}
}

func TestFormatBits(t *testing.T) {
	if got := FormatBits(0b101, 3); got != "101" {
		t.Fatalf("FormatBits(0b101,3) = %q", got)
	}
	if got := FormatBits(1, 3); got != "001" {
		t.Fatalf("FormatBits(1,3) = %q (bit 0 must be rightmost)", got)
	}
}

func TestResetQubit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		s, _ := New(1)
		s.Apply1Q(0, circuit.Gate{Name: circuit.GateH}.MustMatrix1Q())
		s.ResetQubit(0, rng.Float64())
		if !approxEq(s.ProbOne(0), 0, 1e-12) {
			t.Fatal("reset did not return qubit to |0>")
		}
	}
}

func TestNewRejectsHugeRegisters(t *testing.T) {
	if _, err := New(MaxQubits + 1); err == nil {
		t.Fatal("expected error above MaxQubits")
	}
	if _, err := New(-1); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestRunRejectsMeasure(t *testing.T) {
	c := circuit.New(1)
	c.Measure(0, 0)
	if _, err := Run(c); err == nil {
		t.Fatal("Run must reject measurement")
	}
}
