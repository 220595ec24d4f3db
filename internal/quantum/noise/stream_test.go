package noise

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"qrio/internal/quantum/circuit"
)

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
			var s Stream
			defer s.Release()
			for j := range seeds {
				seed := seeds[j*(2*g+1)%len(seeds)]
				s.Seed(seed)
				want, kind := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed^0x5bd1))
				for d := 0; d < draws; d++ {
					var got, exp float64
					switch k := kind.Intn(5); k {
					case 0:
						got, exp = s.Float64(), want.Float64()
					case 4:
						got, exp = float64(s.int63()), float64(want.Int63())
					default:
						n := []int{2, 3, 15}[k-1]
						got, exp = float64(s.Intn(n)), float64(want.Intn(n))
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

// TestReseedRestartsTheStream pins what lets Stream.Seed recycle the
// source its memo seeds from: Seed(s) on a used generator leaves it where
// rand.New(rand.NewSource(s)) starts, for every kind of draw a shot makes.
func TestReseedRestartsTheStream(t *testing.T) {
	used := rand.New(rand.NewSource(99))
	for _, seed := range []int64{0, 1, -5, 7919, 1 << 50} {
		for i := 0; i < 1000; i++ { // leave it mid-stream
			used.Float64()
			used.Intn(15)
		}
		used.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if used.Float64() != fresh.Float64() || used.Intn(2) != fresh.Intn(2) ||
				used.Intn(3) != fresh.Intn(3) || used.Intn(15) != fresh.Intn(15) {
				t.Fatalf("seed %d: streams differ at draw %d", seed, i)
			}
		}
	}
}

// digit is a Pauli's base-4 digit, as Stream.Draw numbers it.
func digit(p Pauli) int { return slices.Index(paulis[:], p) }

// TestDrawRarePaths drives Draw, DrawAt and Quiet from crafted first
// outputs and holds every selection to the rand.Rand calls it stands for —
// a coin's Intn(2), a readout's Float64, DrawOneQubit, DrawTwoQubit — on
// rand.New over a source that yields the same values: each consumes the
// stream as rand.Rand does, redraws included, through several block
// refills. Some probabilities are the Float64 of the next output itself,
// or a float either side of it, so a threshold lands exactly on an output.
func TestDrawRarePaths(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		first := craftedOutputs(rng)
		s := Stream{buf: append(make([]uint64, 0, blockLen), first...)}
		want := rand.New(&fibSource{out: slices.Clone(first)})
		draw := func(k Kind, p float64) int { // rand.Rand's draw of kind k
			switch k {
			case Coin:
				return want.Intn(2)
			case Readout:
				if want.Float64() < p {
					return 1
				}
				return 0
			case OneQubitError:
				return digit(DrawOneQubit(p, want))
			}
			pa, pb := DrawTwoQubit(p, want)
			return digit(pa) + 4*digit(pb)
		}
		prob := func() float64 {
			switch rng.Intn(8) {
			case 0:
				return float64(rng.Intn(2)) // never fires, always fires
			case 1, 2: // on the next output, or an ulp either side of it
				if s.i == len(s.buf) {
					s.refill()
				}
				p := float64(s.buf[s.i]&mask63) / (1 << 63)
				return []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 1)}[rng.Intn(3)]
			}
			return rng.Float64()
		}
		for d := 0; d < 20000; d++ {
			k, p := Kind(rng.Intn(4)), prob()
			switch form := rng.Intn(3); {
			case form == 2 && k != Coin: // a run of draws, quiet while none fires
				ks, ps, ts := []Kind{k}, []float64{p}, []Threshold{ThresholdOf(p)}
				for len(ts) < 1+rng.Intn(12) {
					k, p := Kind(1+rng.Intn(3)), prob()
					ks, ps, ts = append(ks, k), append(ps, p), append(ts, ThresholdOf(p))
				}
				n := s.Quiet(ts)
				for j := 0; j < n; j++ {
					if exp := draw(ks[j], ps[j]); exp != 0 {
						t.Fatalf("trial %d draw %d: Quiet passed draw %d of %d, rand.Rand selects %d", trial, d, j, len(ts), exp)
					}
				}
				if n < len(ts) {
					if s.i == len(s.buf) {
						s.refill()
					}
					if x := s.buf[s.i] & mask63; quiet(x, ts[n]) {
						t.Fatalf("trial %d draw %d: Quiet stopped at %d of %d on a quiet output %d (threshold %d)", trial, d, n, len(ts), x, ts[n])
					}
					if got, exp := s.DrawAt(ks[n], ts[n]), draw(ks[n], ps[n]); got != exp {
						t.Fatalf("trial %d draw %d: DrawAt after Quiet = %d, rand.Rand %d", trial, d, got, exp)
					}
				}
			case form == 1:
				if got, exp := s.DrawAt(k, ThresholdOf(p)), draw(k, p); got != exp {
					t.Fatalf("trial %d draw %d: DrawAt(%d, ThresholdOf(%v)) = %d, rand.Rand %d", trial, d, k, p, got, exp)
				}
			default:
				if got, exp := s.Draw(k, p), draw(k, p); got != exp {
					t.Fatalf("trial %d draw %d: Draw(%d, %v) = %d, rand.Rand %d", trial, d, k, p, got, exp)
				}
			}
		}
		if got, exp := s.int63(), want.Int63(); got != exp {
			t.Fatalf("trial %d: streams diverged after the draws: %d, %d", trial, got, exp)
		}
	}
}

// TestThresholdOf holds ThresholdOf(p) to its definition, the least 63-bit
// output whose Float64 is at least p (roundsToOne when none is), at the
// boundaries — p of zero and one, the smallest subnormal, the largest float
// below one, p·2^63 past 2^53 where outputs round — and against a binary
// search of the definition on random p.
func TestThresholdOf(t *testing.T) {
	float := func(x uint64) float64 { return float64(x) / (1 << 63) }
	search := func(p float64) Threshold {
		return Threshold(sort.Search(roundsToOne, func(x int) bool { return float(uint64(x)) >= p }))
	}
	for _, tc := range []struct {
		p    float64
		want Threshold
	}{
		{0, 0},
		{-0.5, 0},
		{1, roundsToOne},
		{1.5, roundsToOne},
		{math.NaN(), roundsToOne}, // Float64() >= NaN never holds: every draw fires
		{math.SmallestNonzeroFloat64, 1},
		{math.Nextafter(1, 0), 1<<63 - 1535},
		{0.75, 3<<61 - 1<<9},                        // the midpoint below rounds to the even 3·2^61
		{math.Nextafter(0.75, 1), 3<<61 + 1<<9 + 1}, // the midpoint below rounds down, to even
	} {
		if got := ThresholdOf(tc.p); got != tc.want || got != search(tc.p) {
			t.Errorf("ThresholdOf(%v) = %d, want %d (search %d)", tc.p, got, tc.want, search(tc.p))
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		p := rng.Float64() * math.Pow(2, -float64(rng.Intn(70)))
		got := ThresholdOf(p)
		if got != search(p) {
			t.Fatalf("ThresholdOf(%v) = %d, search %d", p, got, search(p))
		}
		if float(uint64(got)) < p || got > 0 && float(uint64(got)-1) >= p {
			t.Fatalf("ThresholdOf(%v) = %d is not the least output at or above p", p, got)
		}
	}
}

// TestSitesMatchSampleGateError pins the one site lowering to the
// composition the interpreters drew through: a gate's Sites, each drawn
// with Stream.Draw, yield sampleGateError's errors from the same seed and
// leave the stream where it leaves rand.Rand; id, barrier, measure, reset
// and a nil model yield no site at all. The vocabulary has no 4-qubit gate
// yet; the rule for one is the 3-qubit rule.
func TestSitesMatchSampleGateError(t *testing.T) {
	m := &Model{NumQubits: 4, OneQubit: []float64{0.3, 0.6, 0, 0.9},
		TwoQubit: map[[2]int]float64{{0, 1}: 0.5, {1, 2}: 0.7, {0, 3}: 0}, TwoQubitDefault: 0.4}
	for _, tc := range []struct {
		name  string
		model *Model
		g     circuit.Gate
		sites int
	}{
		{"1q", m, circuit.Gate{Name: circuit.GateH, Qubits: []int{3}}, 1},
		{"2q", m, circuit.Gate{Name: circuit.GateCX, Qubits: []int{2, 1}}, 1},
		{"3q", m, circuit.Gate{Name: circuit.GateCCX, Qubits: []int{3, 0, 1}}, 3},
		{"4q", m, circuit.Gate{Name: "c3x", Qubits: []int{2, 0, 3, 1}}, 6},
		{"id", m, circuit.Gate{Name: circuit.GateID, Qubits: []int{0}}, 0},
		{"barrier", m, circuit.Gate{Name: circuit.GateBarrier, Qubits: []int{0, 1, 2}}, 0},
		{"measure", m, circuit.Gate{Name: circuit.GateMeasure, Qubits: []int{1}, Clbits: []int{0}}, 0},
		{"reset", m, circuit.Gate{Name: circuit.GateReset, Qubits: []int{1}}, 0},
		{"nil model", nil, circuit.Gate{Name: circuit.GateCX, Qubits: []int{0, 1}}, 0},
	} {
		var sites []Site
		tc.model.Sites(tc.g, func(s Site) { sites = append(sites, s) })
		if len(sites) != tc.sites {
			t.Fatalf("%s: %d sites %v, want %d", tc.name, len(sites), sites, tc.sites)
		}
		if tc.sites == 0 {
			continue
		}
		var s Stream
		s.Seed(int64(len(tc.name)))
		want := rand.New(rand.NewSource(int64(len(tc.name))))
		for trial := 0; trial < 2000; trial++ {
			var got []pauliError
			for _, site := range sites {
				d := s.Draw(site.Kind, site.P)
				if p := paulis[d%4]; p != PauliNone {
					got = append(got, pauliError{Qubit: site.A, Pauli: p})
				}
				if p := paulis[d/4]; p != PauliNone {
					got = append(got, pauliError{Qubit: site.B, Pauli: p})
				}
			}
			if exp := sampleGateError(tc.model, tc.g.Qubits, want); !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s trial %d: sites drew %v, sampleGateError %v", tc.name, trial, got, exp)
			}
		}
		if got, exp := s.int63(), want.Int63(); got != exp {
			t.Fatalf("%s: streams diverged: %d, %d", tc.name, got, exp)
		}
		s.Release()
	}
}
