package stabilizer

import (
	"math/rand"
	"slices"
	"testing"

	"qrio/internal/quantum/noise"
)

// randomOps draws a noisy program over every opcode, mid-circuit
// measurements and resets included.
func randomOps(rng *rand.Rand, n, length int) []op {
	var ops []op
	for i := 0; i < length; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(max(n-1, 1))) % n
		o := op{code: opcode(rng.Intn(int(opReset) + 1)), a: a, b: b, p: rng.Float64() * 0.5}
		if n == 1 && (o.code == opCX || o.code == opNoise2) {
			o.code = opH
		}
		ops = append(ops, o)
	}
	return ops
}

// tableauStep advances a whole-tableau shot by one op, drawing as a shot
// draws: the engine this package ran before shots became Pauli frames.
func tableauStep(t *Tableau, o op, rng *rand.Rand) {
	pauli := func(q int, e noise.Pauli) {
		switch e {
		case noise.PauliX:
			t.X(q)
		case noise.PauliY:
			t.Y(q)
		case noise.PauliZ:
			t.Z(q)
		}
	}
	switch o.code {
	case opNoise1:
		pauli(o.a, noise.DrawOneQubit(o.p, rng))
	case opNoise2:
		pa, pb := noise.DrawTwoQubit(o.p, rng)
		pauli(o.a, pa)
		pauli(o.b, pb)
	case opMeasure:
		t.Measure(o.a, rng)
		rng.Float64()
	case opReset:
		t.Reset(o.a, rng)
	default:
		t.apply(o)
	}
}

// TestTableauXZIsShotIndependent is the lemma the frame engine rests on:
// two shots of one program under different seeds — different errors,
// different coins — hold the same X/Z words after every op; only signs
// differ. A Tableau change that lets a sign or a coin reach the X/Z half
// (a different pivot rule, say) must fail here, not in a score golden.
func TestTableauXZIsShotIndependent(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 64, 70} {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(100*n + trial)))
			ops := randomOps(rng, n, 40+12*n)
			a, b := New(n), New(n)
			rngA, rngB := rand.New(rand.NewSource(rng.Int63())), rand.New(rand.NewSource(rng.Int63()))
			signsDiffered := false
			for i, o := range ops {
				tableauStep(a, o, rngA)
				tableauStep(b, o, rngB)
				if !slices.Equal(a.x, b.x) || !slices.Equal(a.z, b.z) {
					t.Fatalf("n=%d trial %d: X/Z words differ after op %d (%+v)", n, trial, i, o)
				}
				signsDiffered = signsDiffered || !slices.Equal(a.r, b.r)
			}
			if !signsDiffered {
				t.Fatalf("n=%d trial %d: the two shots never differed, the test shows nothing", n, trial)
			}
		}
	}
}
