package stabilizer

import (
	"math/bits"
	"slices"

	"qrio/internal/quantum/noise"
)

// A shot never replays the tableau. Pauli errors and measurement coins only
// flip signs: which stabilizer anticommutes with a measured Z, and what
// collapse does to every generator's X/Z bits, read neither the signs nor
// the coin. So the X/Z half of the tableau — which measurements are random,
// which pivot row each one takes, every deterministic outcome up to a sign
// — is the same for every shot of a program, and one noiseless reference
// pass computes it. A shot's state differs from the reference state by a
// Pauli frame, and every step of that frame is linear over GF(2): H swaps
// a qubit's two bits, S and CX XOR them, a deterministic measurement reads
// ref ^ X_a, a random one reports its coin and adds its pivot row when the
// coin contradicts X_a, a reset clears X_a. So the shot's outcome is the
// reference outcome XOR one mask per random event, chosen by what that
// event drew. One backward pass over the program computes every mask; a
// shot is then its draws alone.

// event is one random event of a shot, in program order.
type event struct {
	p    float64
	mask int32 // kernel.masks[mask:] holds the event's masks, words apiece
	kind noise.Kind
}

// kernel is a program compiled down to its draws.
type kernel struct {
	words  int      // words in a packed outcome (clbit i is bit i&63 of word i>>6)
	base   []uint64 // the reference run's outcome
	out    []uint64 // the last shot's outcome
	events []event
	masks  []uint64 // per event, per selection, the clbits it flips; selection 0 flips none
	slab   []uint64 // holds base, out, masks and both passes' scratch
}

// kernel makes the reference pass and the backward pass into k, reusing
// its slab and events.
func (p *program) kernel(k *kernel) {
	t := New(p.nq)
	qw, wb := t.half, (p.nbits+63)/64
	nev, nmask := 0, 0 // counting every measurement and reset as random
	for _, o := range p.ops {
		switch o.code {
		case opNoise1:
			nev, nmask = nev+1, nmask+4
		case opNoise2:
			nev, nmask = nev+1, nmask+16
		case opMeasure, opReset:
			nev, nmask = nev+1, nmask+2
			if o.code == opMeasure && p.noisy {
				nev, nmask = nev+1, nmask+2
			}
		}
	}
	size := nmask*wb + p.nmeas*2*qw + (2*p.nq+4)*wb
	k.slab = slices.Grow(k.slab[:0], size)[:size]
	clear(k.slab)
	k.events = slices.Grow(k.events[:0], nev)[:nev]
	k.words = wb
	slab := k.slab
	k.masks, slab = slab[:nmask*wb], slab[nmask*wb:]
	pivots, slab := slab[:p.nmeas*2*qw], slab[p.nmeas*2*qw:]
	sens, slab := slab[:2*p.nq*wb], slab[2*p.nq*wb:]
	k.base, k.out, slab = slab[:wb], slab[wb:2*wb], slab[2*wb:]
	written, acc := slab[:wb], slab[wb:]

	// The reference pass, every random outcome forced to 0: each measure and
	// reset op learns its outcome or, when random, its pivot stabilizer row
	// (X mask then Z mask, read before the collapse).
	npiv := 0
	for j := range p.ops {
		o := &p.ops[j]
		switch o.code {
		case opMeasure, opReset:
			if row := t.anticommutingStabilizer(o.a); row < 0 {
				o.ref, o.pivot = uint8(t.deterministicOutcome(o.a)), -1
			} else {
				o.pivot = int32(npiv * 2 * qw)
				npiv++
				piv := pivots[o.pivot:]
				w, sh := row>>6, uint(row&63)
				for q := 0; q < p.nq; q++ {
					x, z := t.col(q)
					piv[q>>6] |= (x[w] >> sh & 1) << uint(q&63)
					piv[qw+q>>6] |= (z[w] >> sh & 1) << uint(q&63)
				}
				t.collapse(o.a, row, 0)
			}
			if o.code == opReset && o.ref == 1 {
				t.X(o.a)
			}
		case opNoise1, opNoise2:
		default:
			t.apply(*o)
		}
	}

	// The backward pass: sens holds, per frame component (X_q at q, Z_q at
	// nq+q), the clbits it would flip if toggled at the current op.
	comp := func(c int) []uint64 { return sens[c*wb : (c+1)*wb] }
	e, m := nev, nmask*wb
	table := func(kind noise.Kind, prob float64, n int) []uint64 {
		e, m = e-1, m-n*wb
		k.events[e] = event{p: prob, mask: int32(m), kind: kind}
		return k.masks[m : m+n*wb]
	}
	for j := len(p.ops) - 1; j >= 0; j-- {
		o := &p.ops[j]
		xa, za := comp(o.a), comp(p.nq+o.a)
		switch o.code {
		case opH:
			for w := range xa {
				xa[w], za[w] = za[w], xa[w]
			}
		case opS:
			xorInto(xa, za)
		case opCX:
			xorInto(xa, comp(o.b))
			xorInto(comp(p.nq+o.b), za)
		case opNoise1:
			tab := table(noise.OneQubitError, o.p, 4)
			for d := 1; d < 4; d++ {
				addPauli(tab[d*wb:(d+1)*wb], xa, za, d)
			}
		case opNoise2:
			tab := table(noise.TwoQubitError, o.p, 16)
			for d := 1; d < 16; d++ {
				addPauli(tab[d*wb:(d+1)*wb], xa, za, d%4)
				addPauli(tab[d*wb:(d+1)*wb], comp(o.b), comp(p.nq+o.b), d/4)
			}
		case opMeasure, opReset:
			// bit is the measured clbit in word w when this measurement is
			// its last writer, else 0 (a reset writes none).
			w, bit := o.b>>6, uint64(0)
			if o.code == opMeasure {
				if written[w]>>uint(o.b&63)&1 == 0 {
					bit = 1 << uint(o.b&63)
					written[w] |= bit
				}
				if p.noisy {
					table(noise.Readout, o.p, 2)[wb+w] = bit
				}
			} else {
				clear(xa)
			}
			if o.pivot < 0 { // the outcome is ref ^ X_a
				xa[w] ^= bit
				k.base[w] |= bit * uint64(o.ref)
				continue
			}
			// A coin against X_a's prediction adds the pivot row to the
			// frame; so does toggling X_a before the measurement.
			clear(acc)
			for i, word := range pivots[o.pivot : int(o.pivot)+2*qw] {
				for ; word != 0; word &= word - 1 {
					q := i%qw*64 + bits.TrailingZeros64(word)
					xorInto(acc, comp(i/qw*p.nq+q))
				}
			}
			xorInto(xa, acc)
			tab := table(noise.Coin, 0, 2)[wb:]
			copy(tab, acc)
			tab[w] ^= bit
		}
	}
	k.events = k.events[:copy(k.events, k.events[e:])]
}

// xorInto XORs src into dst.
func xorInto(dst, src []uint64) {
	for w := range dst {
		dst[w] ^= src[w]
	}
}

// addPauli XORs into dst the masks of the Pauli with base-4 digit d (0 I,
// 1 X, 2 Y, 3 Z, as noise.Stream.Draw numbers them) on a qubit whose X
// and Z components have masks x and z.
func addPauli(dst, x, z []uint64, d int) {
	if d == 1 || d == 2 {
		xorInto(dst, x)
	}
	if d == 2 || d == 3 {
		xorInto(dst, z)
	}
}

// shot draws one shot and leaves its outcome in k.out: the reference
// outcome XOR, per event, the mask its draw selects.
func (k *kernel) shot(s *noise.Stream) {
	copy(k.out, k.base)
	for e := range k.events {
		ev := &k.events[e]
		tab := k.masks[int(ev.mask)+s.Draw(ev.kind, ev.p)*len(k.out):]
		for w := range k.out {
			k.out[w] ^= tab[w]
		}
	}
}
