package fidelity

import (
	"math"
	"testing"

	"qrio/internal/device"
	"qrio/internal/mapomatic"
	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/stabilizer"
	"qrio/internal/transpile"
)

// TestCanaryModelFollowsActiveSet: CanaryFidelityOn reuses a member's
// compact noise model only for a member with the same active qubits. Two
// members touching two and then three qubits must score exactly as each
// member scored with its own model.
func TestCanaryModelFollowsActiveSet(t *testing.T) {
	b, err := device.GenerateBackend("mixed", 12, 0.4, device.DefaultFleetSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	pair := circuit.NewWithClbits(3, 2)
	pair.H(0)
	pair.CX(0, 1)
	pair.Measure(0, 0)
	pair.Measure(1, 1)
	chain := circuit.New(3)
	chain.H(0)
	chain.CX(0, 1)
	chain.CX(1, 2)
	chain.MeasureAll()
	cs := &Canaries{}
	for _, c := range []*circuit.Circuit{pair, chain} {
		ideal, err := stabilizer.NewIdeal(c)
		if err != nil {
			t.Fatal(err)
		}
		cs.members = append(cs.members, &canaryMember{circuit: c, ideal: ideal, memo: memo.New[string, float64](maxIdealMemo)})
	}
	e := Estimator{Shots: 512, Seed: 3}
	got, err := e.CanaryFidelityOn(cs, b)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for k, m := range cs.members {
		tr, err := transpile.Transpile(m.circuit, b, e.Transpile)
		if err != nil {
			t.Fatal(err)
		}
		compact, active, err := mapomatic.Deflate(tr.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := stabilizer.Runner{Model: compactModel(b, active), Shots: 256, Seed: e.Seed + int64(k)*7919}.Counts(compact)
		if err != nil {
			t.Fatal(err)
		}
		f, err := hellingerExact(counts, m.idealProb)
		if err != nil {
			t.Fatal(err)
		}
		sum += f
	}
	if want := sum / 2; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("CanaryFidelityOn = %v, each member on its own model = %v", got, want)
	}
}
