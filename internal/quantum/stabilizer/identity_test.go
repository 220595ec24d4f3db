package stabilizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/stabilizer"
)

// identityCircuit draws a random Clifford circuit over the whole gate
// vocabulary the engine lowers: named one- and two-qubit Cliffords,
// rotations by any number of quarter turns (negative and beyond 2π
// included), barriers, and — when mid is set — mid-circuit measurements
// and resets (mid-circuit resets only when the circuit is not measured: a
// measure would make it one). measured decides whether it ends in explicit
// measurements (into shuffled clbits) or leaves measure-all to the runner.
func identityCircuit(rng *rand.Rand, n, gates int, mid, measured bool) *circuit.Circuit {
	c := circuit.NewWithClbits(n, n)
	if !measured {
		c = circuit.New(n)
	}
	quarter := func() float64 { return float64(rng.Intn(16)-6) * (math.Pi / 2) }
	one := []string{circuit.GateID, circuit.GateX, circuit.GateY, circuit.GateZ,
		circuit.GateH, circuit.GateS, circuit.GateSdg, circuit.GateSX}
	rot := []string{circuit.GateU1, circuit.GateP, circuit.GateRZ, circuit.GateRX, circuit.GateRY}
	two := []string{circuit.GateCX, circuit.GateCZ, circuit.GateCY, circuit.GateSwap}
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		switch k := rng.Intn(12); {
		case k < 3:
			c.MustAppend(circuit.Gate{Name: one[rng.Intn(len(one))], Qubits: []int{q}})
		case k < 5:
			c.MustAppend(circuit.Gate{Name: rot[rng.Intn(len(rot))], Qubits: []int{q}, Params: []float64{quarter()}})
		case k == 5:
			c.U2(q, quarter(), quarter())
		case k == 6:
			c.U3(q, quarter(), quarter(), quarter())
		case k < 10 && n > 1:
			p := rng.Intn(n - 1)
			if p >= q {
				p++
			}
			c.MustAppend(circuit.Gate{Name: two[rng.Intn(len(two))], Qubits: []int{q, p}})
		case k == 10 && mid:
			if measured && rng.Intn(2) == 0 {
				c.Measure(q, rng.Intn(n))
			} else {
				c.Reset(q)
			}
		case k == 11:
			c.Barrier(q)
		default:
			c.H(q)
		}
	}
	if measured {
		for q, clbit := range rng.Perm(n) {
			if rng.Intn(4) > 0 { // leave some clbits unwritten
				c.Measure(q, clbit)
			}
		}
		if !c.HasMeasurements() {
			c.Measure(0, 0)
		}
	}
	return c
}

// identityModel draws a noise model with per-qubit and per-edge rates, some
// of them exactly zero (a draw is still consumed), some edges left to the
// default.
func identityModel(rng *rand.Rand, n int) *noise.Model {
	m := &noise.Model{NumQubits: n, TwoQubit: map[[2]int]float64{}, TwoQubitDefault: rng.Float64() * 0.5}
	rate := func(scale float64) float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.Float64() * scale
	}
	for q := 0; q < n; q++ {
		m.OneQubit = append(m.OneQubit, rate(0.2))
		m.Readout = append(m.Readout, rate(0.3))
		for p := q + 1; p < n && p < q+4; p++ {
			if rng.Intn(2) == 0 {
				m.TwoQubit[noise.NormPair(q, p)] = rate(0.4)
			}
		}
	}
	return m
}

// checkAgainstOracle holds the engine to the old interpreter on one
// (circuit, model, shots, seed): equal Counts (so it consumed the random
// stream in the same order) and equal OutcomeProbability on every observed
// outcome and on a few bitstrings drawn from rng.
func checkAgainstOracle(t testing.TB, name string, rng *rand.Rand, c *circuit.Circuit, model *noise.Model, shots int, seed int64) {
	t.Helper()
	want, err := oracleRunner{Model: model, Shots: shots, Seed: seed}.Counts(c)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	got, err := stabilizer.Runner{Model: model, Shots: shots, Seed: seed}.Counts(c)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counts differ\n engine %v\n oracle %v", name, got, want)
	}
	outcomes := make([]string, 0, len(want)+4)
	for bits := range want {
		outcomes = append(outcomes, bits)
	}
	for i := 0; i < 4; i++ {
		b := make([]byte, len(outcomes[0]))
		for j := range b {
			b[j] = '0' + byte(rng.Intn(2))
		}
		outcomes = append(outcomes, string(b))
	}
	for _, bits := range outcomes {
		wantP, wantErr := oracleOutcomeProbability(c, bits)
		gotP, gotErr := stabilizer.OutcomeProbability(c, bits)
		if (gotErr != nil) != (wantErr != nil) || gotP != wantP {
			t.Fatalf("%s: P(%s) = %v, %v; oracle %v, %v", name, bits, gotP, gotErr, wantP, wantErr)
		}
	}
}

// kernelShapes are small circuits aimed at what a kernel shot does
// differently from a tableau shot: it reads outcomes off a reference run
// and XORs in outcome masks a backward pass computed.
func kernelShapes() map[string]*circuit.Circuit {
	shapes := map[string]*circuit.Circuit{}

	// The second measurement of a qubit is deterministic in the reference
	// and must repeat the first one's coin through the frame.
	twice := circuit.NewWithClbits(2, 3)
	twice.H(0)
	twice.CX(0, 1)
	twice.Measure(0, 0)
	twice.Measure(0, 1)
	twice.Measure(1, 2)
	shapes["measured twice"] = twice

	// Two measurements into one clbit: the later one wins.
	shared := circuit.NewWithClbits(2, 1)
	shared.H(0)
	shared.X(1)
	shared.Measure(0, 0)
	shared.Measure(1, 0)
	shapes["two measurements, one clbit"] = shared

	// Resets of qubits whose reference outcome is 1 (deterministic) and of
	// one whose outcome is a coin, each used again afterwards.
	reset := circuit.NewWithClbits(3, 3)
	reset.X(0)
	reset.Reset(0)
	reset.H(0)
	reset.H(1)
	reset.Reset(1)
	reset.CX(0, 1)
	reset.X(2)
	reset.CX(2, 1)
	reset.Reset(2)
	reset.CX(1, 2)
	reset.Measure(0, 0)
	reset.Measure(1, 1)
	reset.Measure(2, 2)
	shapes["reset after outcome 1"] = reset

	// A 70-qubit GHZ: the first measurement is random and its pivot row,
	// X on every qubit, spans both words of the frame.
	ghz := circuit.New(70)
	ghz.H(0)
	for q := 0; q < 69; q++ {
		ghz.CX(q, q+1)
	}
	shapes["pivot row across two words"] = ghz

	// More than 64 clbits, so every mask spans two words; each qubit's last
	// gate is followed straight by its error site and its measurement.
	wide := circuit.NewWithClbits(70, 72)
	for q := 0; q < 70; q += 3 {
		wide.H(q)
	}
	for q := 0; q+1 < 70; q += 2 {
		wide.CX(q, q+1)
	}
	for q := 0; q < 70; q++ {
		wide.Measure(q, (5*q+1)%72)
	}
	shapes["72 clbits"] = wide

	// Clbit 0 is written first by a random measurement, then by a
	// deterministic one, which alone decides it.
	overwrite := circuit.NewWithClbits(2, 2)
	overwrite.H(0)
	overwrite.Measure(0, 0)
	overwrite.X(1)
	overwrite.Measure(1, 0)
	overwrite.CX(0, 1)
	overwrite.Measure(1, 1)
	shapes["random then deterministic writer"] = overwrite

	// Resets right after a coin: of the measured qubit and of its partner,
	// both deterministic in the reference, then a fresh coin on each.
	coinReset := circuit.NewWithClbits(2, 2)
	coinReset.H(0)
	coinReset.CX(0, 1)
	coinReset.Measure(0, 0)
	coinReset.Reset(0)
	coinReset.Reset(1)
	coinReset.H(1)
	coinReset.CX(1, 0)
	coinReset.Measure(0, 1)
	shapes["reset after a coin"] = coinReset
	return shapes
}

// TestEngineIdenticalToOracle is the identity property the faster engines
// were built under: for seeded random circuits, noiseless and noisy, and for
// the kernel-specific shapes, Counts equal the old interpreter's exactly and
// OutcomeProbability agrees.
func TestEngineIdenticalToOracle(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 33, 64, 65, 100, 130}
	for _, n := range sizes {
		for variant := 0; variant < 8; variant++ {
			rng := rand.New(rand.NewSource(int64(1000*n + variant)))
			mid, measured, noisy := variant&1 != 0, variant&2 != 0, variant&4 != 0
			gates, shots := 12*n+8, 200
			if n > 12 { // the oracle is slow on wide registers
				gates, shots = 3*n, 12
			}
			c := identityCircuit(rng, n, gates, mid, measured)
			var model *noise.Model
			if noisy {
				model = identityModel(rng, n)
			}
			name := fmt.Sprintf("n=%d/mid=%t/measured=%t/noisy=%t", n, mid, measured, noisy)
			checkAgainstOracle(t, name, rng, c, model, shots, rng.Int63())
		}
	}
	for name, c := range kernelShapes() {
		rng := rand.New(rand.NewSource(int64(len(name))))
		shots := 200
		if c.NumQubits > 12 {
			shots = 12
		}
		checkAgainstOracle(t, name, rng, c, nil, shots, rng.Int63())
		checkAgainstOracle(t, name+"/noisy", rng, c, identityModel(rng, c.NumQubits), shots, rng.Int63())
		// Zero-probability noise fires nothing, yet every draw is consumed.
		checkAgainstOracle(t, name+"/zero noise", rng, c, noise.Uniform(c.NumQubits, 0, 0, 0), shots, rng.Int63())
	}
}

// FuzzFrameMatchesOracle: any seed's random circuit, model and run seed
// give the oracle's counts.
func FuzzFrameMatchesOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		if rng.Intn(8) == 0 {
			n = 60 + rng.Intn(12) // either side of one-word masks
		}
		c := identityCircuit(rng, n, 4*n+rng.Intn(8*n), rng.Intn(2) == 0, rng.Intn(2) == 0)
		var model *noise.Model
		if rng.Intn(3) > 0 {
			model = identityModel(rng, n)
		}
		checkAgainstOracle(t, fmt.Sprintf("seed=%d", seed), rng, c, model, 16, rng.Int63())
	})
}

// TestTableauPrimitivesMatchOracle drives the exported Tableau methods
// (the API the runner no longer goes through gate by gate) against the
// oracle's, comparing the rendered stabilizer group after every step.
func TestTableauPrimitivesMatchOracle(t *testing.T) {
	for _, n := range []int{1, 3, 8, 70} {
		rng := rand.New(rand.NewSource(int64(n)))
		got, want := stabilizer.New(n), newOracle(n)
		coinsGot, coinsWant := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		for step := 0; step < 60*n; step++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(max(n-1, 1))) % n
			switch k := rng.Intn(12); {
			case k == 0:
				got.H(a)
				want.H(a)
			case k == 1:
				got.S(a)
				want.S(a)
			case k == 2:
				got.Sdg(a)
				want.Sdg(a)
			case k == 3:
				got.SX(a)
				want.SX(a)
			case k == 4:
				got.Y(a)
				want.Y(a)
			case k == 5 && a != b:
				got.CZ(a, b)
				want.CZ(a, b)
			case k == 6 && a != b:
				got.Swap(a, b)
				want.Swap(a, b)
			case k == 7:
				if g, w := got.Measure(a, coinsGot), want.Measure(a, coinsWant); g != w {
					t.Fatalf("n=%d step %d: Measure(%d) = %d, oracle %d", n, step, a, g, w)
				}
			case k == 8:
				out := rng.Intn(2)
				if g, w := got.ForcedMeasure(a, out), want.ForcedMeasure(a, out); g != w {
					t.Fatalf("n=%d step %d: ForcedMeasure(%d,%d) = %v, oracle %v", n, step, a, out, g, w)
				}
			case k == 9:
				got.Reset(a, coinsGot)
				want.Reset(a, coinsWant)
			case a != b:
				got.CX(a, b)
				want.CX(a, b)
			}
			if n <= 8 || step%n == 0 {
				if g, w := got.Copy().String(), want.String(); g != w {
					t.Fatalf("n=%d step %d: stabilizers differ\n%s\noracle\n%s", n, step, g, w)
				}
			}
		}
	}
}

// TestSampleGateErrorMatchesOracle: noise.DrawOneQubit and DrawTwoQubit —
// the reference noise.Stream.Draw reproduces for both engines — return
// what the interpreters' allocating sampler, kept in the oracle, returns,
// from the same stream: one draw after a one-qubit gate, one per qubit pair
// i<j after a wider one.
func TestSampleGateErrorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := identityModel(rng, 6)
	got, want := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		qubits := rng.Perm(6)[:rng.Intn(4)]
		var g []oracleError
		add := func(q int, p noise.Pauli) {
			if p != noise.PauliNone {
				g = append(g, oracleError{Qubit: q, Pauli: p})
			}
		}
		if len(qubits) == 1 {
			add(qubits[0], noise.DrawOneQubit(m.OneQubitProb(qubits[0]), got))
		} else {
			for j, a := range qubits {
				for _, b := range qubits[j+1:] {
					pa, pb := noise.DrawTwoQubit(m.TwoQubitProb(a, b), got)
					add(a, pa)
					add(b, pb)
				}
			}
		}
		w := oracleSampleGateError(m, qubits, want)
		if len(g) != len(w) {
			t.Fatalf("draw %d on %v: %v, oracle %v", i, qubits, g, w)
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("draw %d on %v: %v, oracle %v", i, qubits, g, w)
			}
		}
	}
	if got.Int63() != want.Int63() {
		t.Fatal("streams diverged")
	}
}
