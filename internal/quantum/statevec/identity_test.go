package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// identityCircuit draws a random circuit over the whole gate vocabulary
// the engine lowers: every named and parameterised one-qubit gate (id
// included — it draws no error), every two-qubit gate native or
// decomposed, the three-qubit gates (one error draw per qubit pair),
// barriers and — when resets is set — resets, which send the run down the
// gate-by-gate loop. measured decides whether it ends in explicit
// measurements of a qubit subset into shuffled clbits (one qubit possibly
// twice) or leaves measure-all to the runner.
func identityCircuit(rng *rand.Rand, n, gates int, resets, measured bool) *circuit.Circuit {
	c := circuit.New(n)
	angle := func() float64 { return (rng.Float64() - 0.5) * 4 * math.Pi }
	one := []string{circuit.GateID, circuit.GateX, circuit.GateY, circuit.GateZ, circuit.GateH,
		circuit.GateS, circuit.GateSdg, circuit.GateT, circuit.GateTdg, circuit.GateSX}
	rot := []string{circuit.GateU1, circuit.GateP, circuit.GateRZ, circuit.GateRX, circuit.GateRY}
	two := []string{circuit.GateCX, circuit.GateCZ, circuit.GateCY, circuit.GateCH, circuit.GateSwap}
	twoRot := []string{circuit.GateCRZ, circuit.GateCU1, circuit.GateRZZ}
	three := []string{circuit.GateCCX, circuit.GateCCZ, circuit.GateCSwap}
	for i := 0; i < gates; i++ {
		qs := rng.Perm(n)
		switch k := rng.Intn(16); {
		case k < 3:
			c.MustAppend(circuit.Gate{Name: one[rng.Intn(len(one))], Qubits: qs[:1]})
		case k < 5:
			c.MustAppend(circuit.Gate{Name: rot[rng.Intn(len(rot))], Qubits: qs[:1], Params: []float64{angle()}})
		case k == 5:
			c.U2(qs[0], angle(), angle())
		case k == 6:
			c.U3(qs[0], angle(), angle(), angle())
		case k < 10 && n > 1:
			c.MustAppend(circuit.Gate{Name: two[rng.Intn(len(two))], Qubits: qs[:2]})
		case k < 12 && n > 1:
			c.MustAppend(circuit.Gate{Name: twoRot[rng.Intn(len(twoRot))], Qubits: qs[:2], Params: []float64{angle()}})
		case k < 14 && n > 2:
			c.MustAppend(circuit.Gate{Name: three[rng.Intn(len(three))], Qubits: qs[:3]})
		case k == 14 && resets:
			c.Reset(qs[0])
		case k == 15:
			c.Barrier(qs[:1+rng.Intn(n)]...)
		default:
			c.H(qs[0])
		}
	}
	if measured {
		for q, clbit := range rng.Perm(n) {
			if rng.Intn(4) > 0 { // leave some qubits unmeasured, some clbits unwritten
				c.Measure(q, clbit)
			}
		}
		c.Measure(rng.Intn(n), rng.Intn(n))
	}
	return c
}

// identityModels are the noise regimes the engine's branches split on: no
// model (no draw at all), a model of zeros (every draw consumed, none
// fires), device-like rates (most shots of a short circuit draw no error
// and are sampled; the rest resume from a checkpoint or from gate 0) and
// rates near one half, where every shot errs, often at its first site.
func identityModels(rng *rand.Rand, n int) map[string]*noise.Model {
	device := &noise.Model{NumQubits: n, TwoQubit: map[[2]int]float64{}, TwoQubitDefault: 0.02}
	for q := 0; q < n; q++ {
		device.OneQubit = append(device.OneQubit, rng.Float64()*0.002)
		device.Readout = append(device.Readout, rng.Float64()*0.05)
		for p := q + 1; p < n && p < q+3; p++ {
			if rng.Intn(2) == 0 { // the other pairs are left to the default
				device.TwoQubit[noise.NormPair(q, p)] = rng.Float64() * 0.03
			}
		}
	}
	return map[string]*noise.Model{
		"nil":    nil,
		"zero":   noise.Uniform(n, 0, 0, 0),
		"device": device,
		"half":   noise.Uniform(n, 0.45, 0.55, 0.3),
	}
}

// TestEngineIdenticalToOracle is the identity property the compiled engine
// was built under: for seeded random circuits its Counts equal the old
// per-shot interpreter's exactly — so it consumed the random stream in the
// same order and computed the same amplitudes to the last bit — and its
// ideal distribution equals the old second walk's, float for float.
func TestEngineIdenticalToOracle(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for variant := 0; variant < 4; variant++ {
			rng := rand.New(rand.NewSource(int64(100*n + variant)))
			resets, measured := variant&1 != 0, variant&2 != 0
			gates := []int{3 + rng.Intn(6), 6 * n, 12 * n}[(n+variant)%3]
			c := identityCircuit(rng, n, gates, resets, measured)
			wantIdeal, wantIdealErr := oracleIdealDistribution(c)
			gotIdeal, err := IdealDistribution(c)
			if (err != nil) != (wantIdealErr != nil) || !reflect.DeepEqual(gotIdeal, wantIdeal) {
				t.Fatalf("n=%d variant %d: IdealDistribution = %v, %v; oracle %v, %v", n, variant, gotIdeal, err, wantIdeal, wantIdealErr)
			}
			for regime, model := range identityModels(rng, n) {
				for _, shots := range []int{1, 7, 512, 2*shotBlock + 3} {
					// The oracle costs gates × 2^n per shot. On the wide registers
					// 512 shots go to the regime that mixes all three paths; where
					// every shot takes the same one, 7 of them said it all. Runs
					// that cross shot blocks stay on small registers.
					if shots == 512 && n > 6 && regime != "device" || shots > shotBlock && n > 3 {
						continue
					}
					name := fmt.Sprintf("n=%d/resets=%t/measured=%t/%s/shots=%d", n, resets, measured, regime, shots)
					r := Noisy{Model: model, Shots: shots, Seed: int64(n*shots + variant)}
					want, err := oracleCounts(r, c)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					got, err := r.Counts(c)
					if err != nil {
						t.Fatalf("%s: engine: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: counts differ\n engine %v\n oracle %v", name, got, want)
					}
					if shots != 7 {
						continue
					}
					got, gotIdeal, err := r.CountsAndIdeal(c)
					if (err != nil) != (wantIdealErr != nil) {
						t.Fatalf("%s: CountsAndIdeal error %v, oracle error %v", name, err, wantIdealErr)
					}
					if err == nil && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: CountsAndIdeal counts differ\n engine %v\n oracle %v", name, got, want)
					}
					if !reflect.DeepEqual(gotIdeal, wantIdeal) {
						t.Fatalf("%s: ideal distributions differ\n engine %v\n oracle %v", name, gotIdeal, wantIdeal)
					}
				}
			}
		}
	}
}

// TestSimulateMatchesReplay holds the sharing of states between error
// patterns to the plain replay: a block of shots that reaches each distinct
// pattern by sweeping the noiseless state to its first hit tallies exactly
// what the same block tallies replaying every pattern from gate 0 — the
// form runs take past sweepBytes — on the same draws.
func TestSimulateMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		c := identityCircuit(rng, n, 4+rng.Intn(8*n), false, trial%2 == 0)
		for regime, model := range identityModels(rng, n) {
			prog, err := compile(c, model)
			if err != nil {
				t.Fatal(err)
			}
			var tallies [2]map[int]int
			for i := range tallies {
				s, _ := New(n)
				prog.runFrom(s, 0, nil)
				e := &trajectories{p: prog, s: s, sums: s.runningSums(), workspace: new(workspace)}
				if i == 0 {
					e.sweep, _ = New(n)
				}
				var st noise.Stream
				st.Seed(int64(trial))
				tallies[i] = map[int]int{}
				for range 3 {
					e.block(&st, 200, tallies[i])
				}
				st.Release()
			}
			if !reflect.DeepEqual(tallies[0], tallies[1]) {
				t.Fatalf("trial %d, %s: swept %v, replayed %v", trial, regime, tallies[0], tallies[1])
			}
		}
	}
}

// TestEngineErrorsWhereOracleDoes: the inputs the interpreter refused are
// refused at compile time.
func TestEngineErrorsWhereOracleDoes(t *testing.T) {
	midMeasure := circuit.New(2)
	midMeasure.H(0)
	midMeasure.Measure(0, 0)
	midMeasure.X(0)
	tooWide := circuit.New(MaxQubits + 1)
	outOfRange := &circuit.Circuit{NumQubits: 1, NumClbits: 1,
		Gates: []circuit.Gate{{Name: circuit.GateH, Qubits: []int{3}}}}
	unknown := &circuit.Circuit{NumQubits: 2, NumClbits: 2,
		Gates: []circuit.Gate{{Name: "mystery", Qubits: []int{0, 1}}}}
	for name, c := range map[string]*circuit.Circuit{"mid-circuit measure": midMeasure,
		"too wide": tooWide, "qubit out of range": outOfRange, "unknown gate": unknown} {
		r := Noisy{Model: noise.Uniform(c.NumQubits, 0.1, 0.1, 0.1), Shots: 3, Seed: 1}
		if _, err := oracleCounts(r, c); err == nil {
			t.Fatalf("%s: oracle accepted it", name)
		}
		if _, err := r.Counts(c); err == nil {
			t.Fatalf("%s: engine accepted it", name)
		}
	}
	if _, err := (Noisy{Shots: 0}).Counts(circuit.New(1)); err == nil {
		t.Fatal("zero shots accepted")
	}
}

// TestSampleSumsMatchesSampleIndex holds the binary search over running
// sums to the linear scan at the draws where they could part: exactly on a
// running sum (a run of equal sums included — outcomes of probability
// zero), one ulp either side, zero, and the largest draw there is.
func TestSampleSumsMatchesSampleIndex(t *testing.T) {
	const one = 1 << 53
	for _, probs := range [][]float64{
		{0.25, 0, 0.25, 0.25, 0, 0.25, 0, 0},
		{0, 0, 0.5, 0.5},
		{1},
		{0.5, 0.25, 0.125, 0.125},
		{0.25, 0.25, 0.25, 0.125}, // sums short of one: the fallback index
	} {
		s := &State{amps: make([]complex128, len(probs))}
		for i, p := range probs {
			s.amps[i] = complex(math.Sqrt(p), 0)
		}
		sums := s.runningSums()
		draws := []int64{0, 1, one - 1}
		for _, sum := range sums {
			v := int64(sum * one)
			draws = append(draws, v-1, v, v+1)
		}
		for _, v := range draws {
			if v < 0 || v >= one {
				continue
			}
			r := float64(v) / one // a Float64 draw
			if got, want := sampleSums(sums, r), s.SampleIndex(r); got != want {
				t.Fatalf("probs %v, draw %v: sampleSums = %d, SampleIndex = %d", probs, r, got, want)
			}
		}
	}
}

// TestCountsAllocationsIndependentOfShots: the per-shot loop allocates
// nothing — what a run allocates is its program, its state and its tally.
func TestCountsAllocationsIndependentOfShots(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CCX(0, 1, 2)
	c.RZ(2, 0.3)
	c.MeasureAll()
	allocs := func(model *noise.Model, shots int) float64 {
		r := Noisy{Model: model, Shots: shots, Seed: 4}
		return testing.AllocsPerRun(5, func() {
			if _, err := r.Counts(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Both regimes see all eight outcomes by 256 shots, so the tally is
	// the same size on both sides.
	for name, model := range map[string]*noise.Model{
		"sampled":  noise.Uniform(3, 0.001, 0.01, 0.2),
		"replayed": noise.Uniform(3, 0.3, 0.4, 0.2),
	} {
		few, many := allocs(model, 256), allocs(model, 4096)
		if many > few {
			t.Fatalf("%s: %v allocations at 4096 shots, %v at 256", name, many, few)
		}
	}
}
