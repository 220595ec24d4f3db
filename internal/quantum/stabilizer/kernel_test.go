package stabilizer

import (
	"math"
	"math/rand"
	"slices"
	"sync"
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

// TestStreamIsMathRand: for seeds negative, zero and large, a seeded stream
// answers every kind of draw a shot makes with rand.New(rand.NewSource(seed))'s
// value, across many block refills. Four goroutines walk the seeds in
// different orders, so the seed memo is missed, hit and evicted
// concurrently; the first checks 10^5 draws a seed, the others 10^3.
func TestStreamIsMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, -2, 42, 7919, -7919, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 2 * (1<<31 - 1),
		89482311, 1 << 40, -1 << 40, 1 << 62, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(5))
	for len(seeds) < 44 {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			draws := 1000
			if g == 0 {
				draws = 100000
			}
			var s stream
			for j := range seeds {
				seed := seeds[j*(2*g+1)%len(seeds)]
				s.seed(seed)
				want, kind := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed^0x5bd1))
				for d := 0; d < draws; d++ {
					var got, exp float64
					switch k := kind.Intn(5); k {
					case 0:
						got, exp = s.float64(), want.Float64()
					case 4:
						got, exp = float64(s.int63()), float64(want.Int63())
					default:
						n := []int32{2, 3, 15}[k-1]
						got, exp = float64(s.intn(n)), float64(want.Intn(int(n)))
					}
					if got != exp {
						t.Errorf("goroutine %d, seed %d, draw %d: stream %v, math/rand %v", g, seed, d, got, exp)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// fibSource is math/rand's generator recurrence run from arbitrary first
// outputs: the rand.Source64 behind a stream started from the same ones.
type fibSource struct {
	out []uint64
	i   int
}

func (f *fibSource) Uint64() uint64 {
	if f.i == len(f.out) {
		f.out = append(f.out, f.out[f.i-rngLen]+f.out[f.i-rngTap])
	}
	f.i++
	return f.out[f.i-1]
}

func (f *fibSource) Int63() int64 { return int64(f.Uint64() & mask63) }
func (f *fibSource) Seed(int64)   { panic("fibSource cannot be seeded") }

// craftedOutputs draws first outputs that reach what no seed reaches in a
// test's time: draws that fire at any p, Float64s that round to 1.0 (2^-53
// a draw from a seed) and Int31s at or above Intn(3)'s and Intn(15)'s redraw
// bounds (~2^-30), each with a random top bit, which Int63 drops.
func craftedOutputs(rng *rand.Rand) []uint64 {
	out := make([]uint64, rngLen)
	for j := range out {
		top := rng.Uint64() & (1 << 63)
		switch rng.Intn(4) {
		case 0:
			out[j] = top | rng.Uint64()>>12
		case 1:
			out[j] = top | (mask63 - uint64(rng.Intn(512)))
		case 2:
			const redraw15 = 1<<31 - 1 - (1<<31)%15 // Intn(3)'s bound is 6 above
			out[j] = top | uint64(redraw15-3+rng.Intn(12))<<32 | uint64(rng.Uint32())
		default:
			out[j] = rng.Uint64()
		}
	}
	return out
}

// TestKernelRarePaths drives the kernel from crafted first outputs and
// holds every shot to a whole-tableau shot drawing from rand.New over a
// source that yields the same values: the kernel's draws consume the stream
// as rand.Rand does, redraws included, through several block refills.
func TestKernelRarePaths(t *testing.T) {
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
		first := craftedOutputs(rng)
		s := stream{buf: append(make([]uint64, 0, blockLen), first...)}
		want := rand.New(&fibSource{out: slices.Clone(first)})
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
		if got, exp := s.int63(), want.Int63(); got != exp {
			t.Fatalf("trial %d: streams diverged after the shots: %d, %d", trial, got, exp)
		}
	}
}
