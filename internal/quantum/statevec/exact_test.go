package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// enumerated is the distribution the trajectories sample, by brute force:
// every combination of the program's error draws, replayed with its
// Paulis injected and weighted by its probability, then every combination
// of readout flips, each keyed as a shot keys it.
func enumerated(p *program) map[int]float64 {
	dist := map[int]float64{}
	var walk func(site int, pat []uint64, w float64)
	walk = func(site int, pat []uint64, w float64) {
		if w == 0 {
			return
		}
		if site < len(p.sites) {
			k := 4
			if p.errs.kind[site] == noise.TwoQubitError {
				k = 16
			}
			pr := p.errs.p[site]
			walk(site+1, pat, w*(1-pr))
			for d := 1; d < k; d++ {
				walk(site+1, append(pat[:len(pat):len(pat)], uint64(site)<<4|uint64(d)), w*pr/float64(k-1))
			}
			return
		}
		s, _ := New(p.nq)
		from := 0
		for _, h := range pat {
			at := p.sites[h>>4]
			p.advance(s, from, at)
			s.inject(&p.ops[at], int(h&15))
			from = at + 1
		}
		p.advance(s, from, len(p.ops))
		for idx, pr := range s.Probabilities() {
			for fired := 0; fired < 1<<len(p.measures); fired++ {
				wf := pr * w
				var flips []uint64
				for j := range p.measures {
					e := 0.0
					if len(p.reads.p) > 0 {
						e = p.reads.p[j]
					}
					if fired>>j&1 != 0 {
						wf *= e
						flips = append(flips, uint64(j)<<4|1)
					} else {
						wf *= 1 - e
					}
				}
				dist[p.key(idx, flips)] += wf
			}
		}
	}
	walk(0, nil, 1)
	return dist
}

// TestExactMatchesEnumeration holds the density-matrix evolution to the
// model it stands in for: on seeded random circuits (two- and three-qubit
// gates, partial and repeated measurements, unwritten clbits) under every
// noise regime, each outcome's probability equals the sum over every
// error pattern the trajectories could draw, to 1e-10 (the enumeration's
// own rounding over up to 65,536 patterns reaches about 1e-11).
func TestExactMatchesEnumeration(t *testing.T) {
	checked := 0
	for n := 1; n <= 3; n++ {
		for variant := 0; variant < 12; variant++ {
			rng := rand.New(rand.NewSource(int64(50*n + variant)))
			c := identityCircuit(rng, n, 1+rng.Intn(4), false, variant&1 != 0)
			for regime, model := range identityModels(rng, n) {
				p, err := compile(c, model)
				if err != nil {
					t.Fatal(err)
				}
				branches := 1.0
				for _, k := range p.errs.kind {
					branches *= map[noise.Kind]float64{noise.OneQubitError: 4, noise.TwoQubitError: 16}[k]
				}
				if branches > 1<<16 {
					continue
				}
				name := fmt.Sprintf("n=%d/variant=%d/%s", n, variant, regime)
				d, err := Exact(c, model)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := enumerated(p)
				got := d.Probabilities()
				for key, pr := range want {
					if bits := FormatBits(key, p.nbits); math.Abs(got[bits]-pr) > 1e-10 {
						t.Fatalf("%s: outcome %s has probability %v, enumeration %v", name, bits, got[bits], pr)
					}
					delete(got, FormatBits(key, p.nbits))
				}
				for bits, pr := range got {
					if pr > 1e-10 {
						t.Fatalf("%s: outcome %s of probability %v, enumeration none", name, bits, pr)
					}
				}
				ideal, err := IdealDistribution(c)
				if err != nil {
					t.Fatal(err)
				}
				for key := range 1 << p.nbits {
					bits := FormatBits(key, p.nbits)
					if pr, _ := d.IdealProb(bits); math.Abs(pr-ideal[bits]) > 1e-12 {
						t.Fatalf("%s: ideal probability of %s is %v, IdealDistribution %v", name, bits, pr, ideal[bits])
					}
				}
				checked++
			}
		}
	}
	if checked < 60 {
		t.Fatalf("only %d (circuit, model) pairs small enough to enumerate", checked)
	}
}

// TestExactable: a reset, a ninth qubit or a ninth measurement leaves a
// circuit to the trajectories, and Exact refuses it.
func TestExactable(t *testing.T) {
	reset := circuit.New(2)
	reset.H(0)
	reset.Reset(0)
	wide := circuit.New(ExactQubits + 1)
	remeasured := circuit.New(2)
	for i := 0; i <= ExactQubits; i++ {
		remeasured.Measure(i%2, i%2)
	}
	for name, c := range map[string]*circuit.Circuit{"reset": reset, "wide": wide, "remeasured": remeasured} {
		if Exactable(c) {
			t.Fatalf("%s: Exactable", name)
		}
		if _, err := Exact(c, nil); err == nil {
			t.Fatalf("%s: Exact accepted it", name)
		}
	}
	if !Exactable(circuit.New(ExactQubits)) {
		t.Fatalf("%d qubits not Exactable", ExactQubits)
	}
}

// TestSampleDrawsOneFloat64AShot: a shot is one Float64 off the seeded
// stream, looked up in the running sums — so a sample is a function of
// (distribution, shots, seed), and a noiseless GHZ state splits its shots
// between its two outcomes.
func TestSampleDrawsOneFloat64AShot(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.MeasureAll()
	d, err := Exact(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := d.Sample(1000, 9)
	var st noise.Stream
	st.Seed(9)
	defer st.Release()
	want := map[string]int{}
	for range 1000 {
		if st.Float64() < 0.5 {
			want["000"]++
		} else {
			want["111"]++
		}
	}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("counts %v, want %v", counts, want)
	}
}
