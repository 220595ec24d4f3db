package stabilizer

import (
	"math/rand"

	"qrio/internal/quantum/noise"
)

// A shot never replays the tableau. Pauli errors and measurement coins only
// flip signs: which stabilizer anticommutes with a measured Z, and what
// collapse does to every generator's X/Z bits, read neither the signs nor
// the coin. So the X/Z half of the tableau — which measurements are random,
// which pivot row each one takes, every deterministic outcome up to a sign
// — is the same for every shot of a program. One noiseless reference pass
// computes it; a shot then carries only its Pauli frame, the 2n bits (fx,
// fz) of the Pauli by which its state differs from the reference state.

// reference makes the one tableau pass, every random outcome forced to 0,
// and writes what it learns into each measure and reset op: the reference
// outcome and, for a random measurement, the pivot stabilizer row, read
// before the collapse. The program's own X, Y and Z move the reference's
// signs and no frame, so they are dropped from p.ops: what is left is what
// a shot runs. It returns the frame the shots run on (fx then fz, p.words
// each), cut from the allocation that holds the pivot rows.
func (p *program) reference() (frame []uint64) {
	t := New(p.nq)
	p.words = t.half
	size := 2 * p.words
	buf := make([]uint64, size*(1+p.nmeas))
	frame, p.pivots = buf[:size:size], buf[size:size]
	shot := p.ops[:0]
	for _, o := range p.ops {
		switch o.code {
		case opX, opY, opZ:
			t.apply(o)
			continue
		case opMeasure, opReset:
			if row := t.anticommutingStabilizer(o.a); row < 0 {
				o.ref, o.pivot = uint8(t.deterministicOutcome(o.a)), -1
			} else {
				o.pivot = int32(len(p.pivots))
				p.pivots = p.pivots[:len(p.pivots)+size]
				mask := p.pivots[o.pivot:]
				w, sh := row>>6, uint(row&63)
				for q := 0; q < p.nq; q++ {
					x, z := t.col(q)
					mask[q>>6] |= (x[w] >> sh & 1) << uint(q&63)
					mask[p.words+q>>6] |= (z[w] >> sh & 1) << uint(q&63)
				}
				t.collapse(o.a, row, 0)
			}
			if o.code == opReset && o.ref == 1 {
				t.X(o.a)
			}
		case opNoise1, opNoise2:
		default:
			t.apply(o)
		}
		shot = append(shot, o)
	}
	p.ops = shot
	return frame
}

// frameShot runs one trajectory as a frame over the reference run, writing
// outcome bits into key (bit i at position len(key)-1-i). Conjugating the
// frame through a gate drops its sign, so H swaps a qubit's two bits and S
// and CX are the tableau's own X/Z updates on one row. The random stream is
// consumed exactly as a tableau shot consumed it: an error draw per noise
// op, one Intn(2) per measurement that is random (a property of the
// program, not of the shot), then its readout Float64.
func (p *program) frameShot(frame []uint64, rng *rand.Rand, key []byte) {
	clear(frame)
	fx, fz := frame[:p.words], frame[p.words:]
	for i := range p.ops {
		o := &p.ops[i]
		wa, sa := o.a>>6, uint(o.a&63)
		switch o.code {
		case opH:
			d := (fx[wa] ^ fz[wa]) & (1 << sa)
			fx[wa] ^= d
			fz[wa] ^= d
		case opS:
			fz[wa] ^= fx[wa] & (1 << sa)
		case opCX:
			wb, sb := o.b>>6, uint(o.b&63)
			fx[wb] ^= (fx[wa] >> sa & 1) << sb
			fz[wa] ^= (fz[wb] >> sb & 1) << sa
		case opNoise1:
			xorPauli(fx, fz, o.a, noise.DrawOneQubit(o.p, rng))
		case opNoise2:
			pa, pb := noise.DrawTwoQubit(o.p, rng)
			xorPauli(fx, fz, o.a, pa)
			xorPauli(fx, fz, o.b, pb)
		case opMeasure, opReset:
			// The frame anticommutes with Z_a exactly where it has X on a.
			out := int(o.ref) ^ int(fx[wa]>>sa&1)
			if o.pivot >= 0 {
				// Both outcomes are possible; the coin is the outcome, as
				// on the tableau. Had the reference collapsed the other
				// way its state would differ by the pivot row (which
				// stabilized it before and anticommutes with Z_a), so a
				// coin against the frame's prediction moves that row into
				// the frame.
				coin := rng.Intn(2)
				if coin != out {
					for w, mask := range p.pivots[o.pivot : int(o.pivot)+len(frame)] {
						frame[w] ^= mask
					}
				}
				out = coin
			}
			if o.code == opReset {
				// Reference and shot both leave a in |0>: each applied X
				// iff its own outcome was 1, which cancels the frame's X
				// on a (now out^ref).
				fx[wa] &^= 1 << sa
				continue
			}
			if p.noisy && rng.Float64() < o.p {
				out ^= 1
			}
			key[len(key)-1-o.b] = '0' + byte(out)
		}
	}
}

// xorPauli multiplies a drawn Pauli error on qubit q into the frame
// (PauliNone does nothing).
func xorPauli(fx, fz []uint64, q int, p noise.Pauli) {
	w, bit := q>>6, uint64(1)<<uint(q&63)
	switch p {
	case noise.PauliX:
		fx[w] ^= bit
	case noise.PauliY:
		fx[w] ^= bit
		fz[w] ^= bit
	case noise.PauliZ:
		fz[w] ^= bit
	}
}
