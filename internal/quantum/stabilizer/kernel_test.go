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
// draws — the engine this package ran before shots became draw kernels —
// and records a measurement's outcome, readout flip included, as bit o.b of
// out (when out is not nil).
func tableauStep(t *Tableau, o op, rng *rand.Rand, out []uint64) {
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
		bit := uint64(t.Measure(o.a, rng))
		if rng.Float64() < o.p {
			bit ^= 1
		}
		if out != nil {
			w, sh := o.b>>6, uint(o.b&63)
			out[w] = out[w]&^(1<<sh) | bit<<sh
		}
	case opReset:
		t.Reset(o.a, rng)
	default:
		t.apply(o)
	}
}

// TestTableauXZIsShotIndependent is the lemma the kernel rests on: two
// shots of one program under different seeds — different errors, different
// coins — hold the same X/Z words after every op; only signs differ. A
// Tableau change that lets a sign or a coin reach the X/Z half (a different
// pivot rule, say) must fail here, not in a score golden.
func TestTableauXZIsShotIndependent(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 64, 70} {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(100*n + trial)))
			ops := randomOps(rng, n, 40+12*n)
			a, b := New(n), New(n)
			rngA, rngB := rand.New(rand.NewSource(rng.Int63())), rand.New(rand.NewSource(rng.Int63()))
			signsDiffered := false
			for i, o := range ops {
				tableauStep(a, o, rngA, nil)
				tableauStep(b, o, rngB, nil)
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

// TestKernelMatchesTableauShots holds every kernel shot of random noisy
// programs — mid-circuit measurements and resets included — to a
// whole-tableau shot drawing from rand.New(rand.NewSource(seed)), through
// several of the stream's block refills: the masks select what the tableau
// computes. noise's TestDrawRarePaths covers the draws no seed reaches in a
// test's time.
func TestKernelMatchesTableauShots(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(6)
		p := &program{ops: randomOps(rng, n, 10+rng.Intn(40)), nq: n, nbits: n, noisy: true}
		for _, o := range p.ops {
			if o.code == opMeasure || o.code == opReset {
				p.nmeas++
			}
		}
		var k kernel
		p.kernel(&k)
		seed := rng.Int63()
		var s noise.Stream
		s.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		exp := make([]uint64, k.words)
		for shot := 0; shot < 400; shot++ {
			k.shot(&s)
			tab := New(n)
			for _, o := range p.ops {
				tableauStep(tab, o, want, exp)
			}
			if !slices.Equal(k.out, exp) {
				t.Fatalf("trial %d shot %d: kernel %b, tableau %b", trial, shot, k.out, exp)
			}
		}
		if got, next := s.Float64(), want.Float64(); got != next {
			t.Fatalf("trial %d: streams diverged after the shots: %v, %v", trial, got, next)
		}
	}
}
