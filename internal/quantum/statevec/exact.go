package statevec

import (
	"fmt"
	"math/cmplx"
	"slices"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// ExactQubits is the widest register Exact evolves, and the most
// measurements it reads: the density matrix of 8 qubits is 4⁸ amplitudes,
// 1 MiB, the trajectories' sweepBytes.
const ExactQubits = 8

// Exactable reports whether Exact takes c: no reset, and at most
// ExactQubits qubits and measurements (a circuit without measurements
// measures every qubit).
func Exactable(c *circuit.Circuit) bool {
	if c.NumQubits > ExactQubits {
		return false
	}
	measures := 0
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateReset:
			return false
		case circuit.GateMeasure:
			measures++
		}
	}
	return measures <= ExactQubits
}

// Distribution is a circuit's exact outcome distribution under a noise
// model, with its noiseless distribution beside it. Both are held over the
// measurement outcomes v — bit j of v is what measurement j read — and map
// to the classical register's keys only when a job's counts are formed. It
// is immutable: one value serves any number of jobs.
type Distribution struct {
	nbits    int
	cmasks   []int     // measurement j writes classical bit cmasks[j]
	distinct bool      // no two measurements write one bit: v ↦ key is one to one
	sums     []float64 // running sums of v's probability, readout included
	ideal    []float64 // v's noiseless probability
}

// Exact returns the distribution Noisy samples from — the same compiled
// program, the same depolarizing and readout channels — computed in one
// pass instead of shot by shot. It holds the density matrix ρ as a 4ⁿ
// vector, the row index in the low n bits: a gate applies U to the row
// qubit and U* to the column qubit, and an error site applies the
// depolarizing channel its draw realises. Readout is a confusion map over
// the outcome distribution, one pass per measurement. The result is a
// function of (c, model) alone.
func Exact(c *circuit.Circuit, model *noise.Model) (*Distribution, error) {
	if !Exactable(c) {
		return nil, fmt.Errorf("statevec: Exact takes reset-free circuits of at most %d qubits and measurements", ExactQubits)
	}
	p, err := compile(c, model)
	if err != nil {
		return nil, err
	}
	n := p.nq
	rho := &State{n: 2 * n, amps: make([]complex128, 1<<(2*n))}
	rho.amps[0] = 1
	site := 0
	for i := range p.ops {
		o := p.ops[i]
		if o.code == opNoise {
			qs := []int{o.a, o.b}
			if p.errs.kind[site] == noise.OneQubitError {
				qs = qs[:1]
			}
			rho.depolarize(n, qs, p.errs.p[site])
			site++
			continue
		}
		rho.apply(&o)
		o.a, o.b = o.a+n, o.b+n
		o.m = circuit.Matrix2{{cmplx.Conj(o.m[0][0]), cmplx.Conj(o.m[0][1])}, {cmplx.Conj(o.m[1][0]), cmplx.Conj(o.m[1][1])}}
		rho.apply(&o)
	}
	s, err := New(n)
	if err != nil {
		return nil, err
	}
	p.runFrom(s, 0, nil)

	d := &Distribution{nbits: p.nbits, ideal: make([]float64, 1<<len(p.measures))}
	written := 0
	d.distinct = true
	for _, m := range p.measures {
		d.cmasks = append(d.cmasks, m.cmask)
		d.distinct = d.distinct && written&m.cmask == 0
		written |= m.cmask
	}
	probs := make([]float64, len(d.ideal))
	for i, a := range s.amps {
		v := 0
		for j, m := range p.measures {
			if i&m.qmask != 0 {
				v |= 1 << j
			}
		}
		probs[v] += real(rho.amps[i|i<<n])
		// As IdealDistribution sums them, so each v of a register whose
		// measurements write distinct bits holds its key's probability.
		if pr := real(a)*real(a) + imag(a)*imag(a); pr > 1e-15 {
			d.ideal[v] += pr
		}
	}
	for j, e := range p.reads.p {
		for v := range probs {
			if w := v | 1<<j; v != w {
				probs[v], probs[w] = (1-e)*probs[v]+e*probs[w], (1-e)*probs[w]+e*probs[v]
			}
		}
	}
	acc := 0.0
	for v, pr := range probs {
		acc += max(pr, 0) // rounding can leave an impossible outcome at -1e-17
		probs[v] = acc
	}
	d.sums = probs
	return d, nil
}

// key is the classical register value that measurement outcome v writes.
func (d *Distribution) key(v int) int {
	key := 0
	for j, cmask := range d.cmasks {
		if v>>j&1 != 0 {
			key |= cmask
		}
	}
	return key
}

// Sample draws shots outcomes, one Float64 each from a noise.Stream seeded
// with seed, and returns their histogram: a function of (distribution,
// shots, seed) alone.
func (d *Distribution) Sample(shots int, seed int64) map[string]int {
	var st noise.Stream
	st.Seed(seed)
	defer st.Release()
	tally := make([]int, len(d.sums))
	for range shots {
		tally[sampleSums(d.sums, st.Float64())]++
	}
	counts := make(map[string]int)
	for v, n := range tally {
		if n > 0 {
			counts[FormatBits(d.key(v), d.nbits)] += n
		}
	}
	return counts
}

// Probabilities returns the probability of each outcome that has one.
func (d *Distribution) Probabilities() map[string]float64 {
	out := make(map[string]float64)
	prev := 0.0
	for v, sum := range d.sums {
		if sum > prev {
			out[FormatBits(d.key(v), d.nbits)] += sum - prev
		}
		prev = sum
	}
	return out
}

// IdealProb returns the noiseless probability of the outcome bits (a
// Qiskit-style bitstring over the classical register): what
// IdealDistribution gives it, or zero where that has no entry.
func (d *Distribution) IdealProb(bits string) (float64, error) {
	if len(bits) != d.nbits {
		return 0, fmt.Errorf("statevec: outcome %q is not %d bits", bits, d.nbits)
	}
	key := 0
	for i := range bits {
		if bits[d.nbits-1-i] == '1' {
			key |= 1 << i
		}
	}
	if d.distinct { // the one v that could write key
		v := 0
		for j, cmask := range d.cmasks {
			if key&cmask != 0 {
				v |= 1 << j
			}
		}
		if d.key(v) != key {
			return 0, nil
		}
		return d.ideal[v], nil
	}
	p := 0.0
	for v, pr := range d.ideal {
		if pr > 0 && d.key(v) == key {
			p += pr
		}
	}
	return p, nil
}

// depolarize applies the error draw of a site on qs (one qubit or two) of
// the n-qubit density matrix held in s: with probability p one of the
// 4^k−1 non-identity Paulis, each equally likely — noise.Stream.Draw's
// one- and two-qubit draws. Since the average over all 4^k Paulis is the
// full twirl T, ρ → (1−λ)·ρ + λ·T(ρ) with λ = p·4^k/(4^k−1); T averages
// the entries diagonal in every qubit of qs and zeroes the rest.
func (s *State) depolarize(n int, qs []int, p float64) {
	var bits []int
	var diag, off []int // offsets from a base index with every bit of qs clear
	for m := 0; m < 1<<(2*len(qs)); m++ {
		x, same := 0, true
		for j, q := range qs {
			row, col := m>>(2*j)&1, m>>(2*j+1)&1
			x |= row<<q | col<<(q+n)
			same = same && row == col
		}
		if same {
			diag = append(diag, x)
		} else {
			off = append(off, x)
		}
	}
	for _, q := range qs {
		bits = append(bits, q, q+n)
	}
	slices.Sort(bits)
	k := float64(len(diag) * len(diag))
	lambda := p * k / (k - 1)
	keep, share := complex(1-lambda, 0), complex(lambda/float64(len(diag)), 0)
	for base := range len(s.amps) >> len(bits) {
		i := base
		for _, b := range bits {
			i = i>>b<<(b+1) | i&(1<<b-1)
		}
		var sum complex128
		for _, x := range diag {
			sum += s.amps[i|x]
		}
		for _, x := range diag {
			s.amps[i|x] = keep*s.amps[i|x] + share*sum
		}
		for _, x := range off {
			s.amps[i|x] *= keep
		}
	}
}
