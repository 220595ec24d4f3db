// Package stabilizer implements the Aaronson–Gottesman CHP tableau
// simulator for Clifford circuits (Gottesman–Knill theorem). It is the
// engine behind QRIO's fidelity-ranking strategy (§3.4.1): Clifford
// "canary" versions of user circuits are simulated here in polynomial time
// — both noiselessly (for the reference distribution) and under sampled
// Pauli noise (for the per-device canary fidelity) — even at the fleet's
// 100-qubit device sizes where dense simulation is impossible.
package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Tableau is the stabilizer tableau of an n-qubit state: n destabilizer
// and n stabilizer generators (Aaronson & Gottesman, PRA 70, 052328).
//
// Storage is column-major: for every qubit q the X bits and the Z bits of
// all 2n generators are one bitset each, and so are the signs. A gate on q
// reads and writes only q's columns, so it updates every generator with a
// handful of word operations instead of a bit-at-a-time loop over rows. A
// bitset is `stride` words: the first half holds the destabilizers (bit i
// = generator i), the second half the stabilizers, so "the stabilizer
// paired with destabilizer i" is the same bit one half further on. Bits
// past n in either half stay zero under every operation.
type Tableau struct {
	n      int
	half   int      // words per half: ceil(n/64), at least 1
	stride int      // words per bitset: 2*half
	x, z   []uint64 // n columns of stride words each
	r      []uint64 // sign bits (0 = +, 1 = -), stride words
	// Measurement scratch, stride words each: the rows being multiplied
	// and the low/high bits of their mod-4 phase counters.
	rows, lo, hi []uint64
}

// New returns the tableau of |0...0>: destabilizers X_i, stabilizers Z_i.
func New(n int) *Tableau {
	if n < 0 {
		panic("stabilizer: negative qubit count")
	}
	half := (n + 63) / 64
	if half == 0 {
		half = 1
	}
	stride := 2 * half
	// One backing array: x, z, then the four stride-sized bitsets.
	buf := make([]uint64, 2*n*stride+4*stride)
	t := &Tableau{n: n, half: half, stride: stride}
	t.x, buf = buf[:n*stride:n*stride], buf[n*stride:]
	t.z, buf = buf[:n*stride:n*stride], buf[n*stride:]
	t.r, buf = buf[:stride:stride], buf[stride:]
	t.rows, buf = buf[:stride:stride], buf[stride:]
	t.lo, t.hi = buf[:stride:stride], buf[stride:]
	for q := 0; q < n; q++ {
		w, bit := q>>6, uint64(1)<<uint(q&63)
		t.x[q*stride+w] = bit      // destabilizer q = X_q
		t.z[q*stride+half+w] = bit // stabilizer q = Z_q
	}
	return t
}

// NumQubits returns the register size.
func (t *Tableau) NumQubits() int { return t.n }

// Copy returns a deep copy of the tableau.
func (t *Tableau) Copy() *Tableau {
	c := New(t.n)
	copy(c.x, t.x)
	copy(c.z, t.z)
	copy(c.r, t.r)
	return c
}

// col returns qubit a's X and Z columns.
func (t *Tableau) col(a int) (x, z []uint64) {
	o := a * t.stride
	return t.x[o : o+t.stride : o+t.stride], t.z[o : o+t.stride : o+t.stride]
}

// H applies a Hadamard on qubit a.
func (t *Tableau) H(a int) {
	x, z := t.col(a)
	for w, xw := range x {
		zw := z[w]
		t.r[w] ^= xw & zw
		x[w], z[w] = zw, xw
	}
}

// S applies the phase gate diag(1, i) on qubit a.
func (t *Tableau) S(a int) {
	x, z := t.col(a)
	for w, xw := range x {
		t.r[w] ^= xw & z[w]
		z[w] ^= xw
	}
}

// Sdg applies S† = diag(1, -i) on qubit a.
func (t *Tableau) Sdg(a int) {
	t.Z(a)
	t.S(a)
}

// X applies a Pauli X on qubit a.
func (t *Tableau) X(a int) {
	_, z := t.col(a)
	for w, zw := range z {
		t.r[w] ^= zw
	}
}

// Z applies a Pauli Z on qubit a.
func (t *Tableau) Z(a int) {
	x, _ := t.col(a)
	for w, xw := range x {
		t.r[w] ^= xw
	}
}

// Y applies a Pauli Y on qubit a.
func (t *Tableau) Y(a int) {
	x, z := t.col(a)
	for w, xw := range x {
		t.r[w] ^= xw ^ z[w]
	}
}

// CX applies controlled-X with control a and target b.
func (t *Tableau) CX(a, b int) {
	xa, za := t.col(a)
	xb, zb := t.col(b)
	for w := range xa {
		t.r[w] ^= xa[w] & zb[w] &^ (xb[w] ^ za[w])
		xb[w] ^= xa[w]
		za[w] ^= zb[w]
	}
}

// CZ applies controlled-Z on the pair (a, b).
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CX(a, b)
	t.H(b)
}

// Swap exchanges qubits a and b.
func (t *Tableau) Swap(a, b int) {
	t.CX(a, b)
	t.CX(b, a)
	t.CX(a, b)
}

// SX applies sqrt(X) (equal to H·S·H up to global phase).
func (t *Tableau) SX(a int) {
	t.H(a)
	t.S(a)
	t.H(a)
}

// anticommutingStabilizer returns the first stabilizer whose X part has
// bit a set — as its bit position within a bitset, so in the stabilizer
// half — or -1 when the measurement of Z_a is deterministic.
func (t *Tableau) anticommutingStabilizer(a int) int {
	x, _ := t.col(a)
	for w := t.half; w < t.stride; w++ {
		if x[w] != 0 {
			return w<<6 + bits.TrailingZeros64(x[w])
		}
	}
	return -1
}

// Measure performs a Z-basis measurement of qubit a, collapsing the state.
// rng supplies the coin for random outcomes (one rng.Intn(2), drawn only
// when the outcome is random).
func (t *Tableau) Measure(a int, rng *rand.Rand) int {
	p := t.anticommutingStabilizer(a)
	if p < 0 {
		return t.deterministicOutcome(a)
	}
	out := rng.Intn(2)
	t.collapse(a, p, out)
	return out
}

// ForcedMeasure measures qubit a forcing the given outcome. It returns the
// probability of that outcome (1, 0.5 or 0); on probability 0 the state is
// left untouched.
func (t *Tableau) ForcedMeasure(a, outcome int) float64 {
	p := t.anticommutingStabilizer(a)
	if p < 0 {
		if t.deterministicOutcome(a) == outcome {
			return 1
		}
		return 0
	}
	t.collapse(a, p, outcome)
	return 0.5
}

// pauliPhase returns, for every generator at once, where multiplying the
// single-qubit Pauli (x1,z1) into (x2,z2) contributes +1 and where −1 to
// the product's phase exponent (Aaronson & Gottesman's g function); all
// four arguments are one word of a column.
func pauliPhase(x1, z1, x2, z2 uint64) (plus, minus uint64) {
	y1, x1only, z1only := x1&z1, x1&^z1, z1&^x1
	plus = y1&z2&^x2 | x1only&x2&z2 | z1only&x2&^z2
	minus = y1&x2&^z2 | x1only&z2&^x2 | z1only&x2&z2
	return plus, minus
}

// deterministicOutcome computes the determined measurement value of Z_a:
// the sign of the product, in ascending order, of the stabilizers paired
// with the destabilizers that have X on a. Column by column, an exclusive
// prefix-XOR over the selected rows gives the running product each factor
// is multiplied into, so the whole phase is a few popcounts per column.
func (t *Tableau) deterministicOutcome(a int) int {
	xa, _ := t.col(a)
	sel := xa[:t.half] // destabilizer half selects the paired stabilizers
	phase := 0
	for w, s := range sel {
		phase += 2 * bits.OnesCount64(t.r[t.half+w]&s)
	}
	for q := 0; q < t.n; q++ {
		x, z := t.col(q)
		var carryX, carryZ uint64 // all-ones when the product so far has the bit
		for w, s := range sel {
			x1, z1 := x[t.half+w]&s, z[t.half+w]&s
			x2, cx := prefixXor(x1, carryX)
			z2, cz := prefixXor(z1, carryZ)
			plus, minus := pauliPhase(x1, z1, x2, z2)
			phase += bits.OnesCount64(plus) - bits.OnesCount64(minus)
			carryX, carryZ = cx, cz
		}
	}
	// Stabilizers commute, so the phase is 0 or 2 (mod 4).
	if phase&3 != 0 {
		return 1
	}
	return 0
}

// prefixXor returns the exclusive prefix XOR of v's bits (bit k of the
// result is the parity of v's bits below k, XOR carry) and the carry into
// the next word; carries are 0 or all-ones.
func prefixXor(v, carry uint64) (excl, carryOut uint64) {
	v ^= v << 1
	v ^= v << 2
	v ^= v << 4
	v ^= v << 8
	v ^= v << 16
	v ^= v << 32
	return v<<1 ^ carry, carry ^ -(v >> 63)
}

// collapse performs the random-outcome measurement update: p is the bit
// position of an anticommuting stabilizer and out the chosen outcome bit.
// Every other generator with X on a is multiplied by row p — all of them
// at once, their mod-4 phase exponents kept bit-sliced in (lo, hi).
func (t *Tableau) collapse(a, p, out int) {
	pw, pbit := p>>6, uint64(1)<<uint(p&63)
	xa, _ := t.col(a)
	copy(t.rows, xa)
	t.rows[pw] &^= pbit
	clear(t.lo)
	clear(t.hi)
	for q := 0; q < t.n; q++ {
		x, z := t.col(q)
		// Row p's Pauli on q, broadcast to every row.
		x1, z1 := -(x[pw] >> uint(p&63) & 1), -(z[pw] >> uint(p&63) & 1)
		if x1|z1 == 0 {
			continue
		}
		for w, rows := range t.rows {
			plus, minus := pauliPhase(x1, z1, x[w], z[w])
			plus, minus = plus&rows, minus&rows
			t.hi[w] ^= t.lo[w]&plus | minus&^t.lo[w]
			t.lo[w] ^= plus | minus
			x[w] ^= x1 & rows
			z[w] ^= z1 & rows
		}
	}
	// Phase exponent = 2·r_h + 2·r_p + Σg; the new sign is "exponent ≠ 0".
	rp := -(t.r[pw] >> uint(p&63) & 1)
	for w, rows := range t.rows {
		sign := t.lo[w] | (t.hi[w] ^ t.r[w] ^ rp)
		t.r[w] = t.r[w]&^rows | sign&rows
	}
	// Destabilizer p-n becomes the old stabilizer row p, and stabilizer p
	// becomes ±Z_a with the measured sign.
	dw := pw - t.half
	for q := 0; q < t.n; q++ {
		x, z := t.col(q)
		x[dw] = x[dw]&^pbit | x[pw]&pbit
		z[dw] = z[dw]&^pbit | z[pw]&pbit
		x[pw] &^= pbit
		z[pw] &^= pbit
	}
	t.r[dw] = t.r[dw]&^pbit | t.r[pw]&pbit
	_, za := t.col(a)
	za[pw] |= pbit
	t.r[pw] = t.r[pw]&^pbit | -uint64(out)&pbit
}

// Reset measures qubit a and flips it to |0> when the outcome was 1.
func (t *Tableau) Reset(a int, rng *rand.Rand) {
	if t.Measure(a, rng) == 1 {
		t.X(a)
	}
}

// String renders the stabilizer generators for debugging.
func (t *Tableau) String() string {
	var out strings.Builder
	for i := 0; i < t.n; i++ {
		w, sh := t.half+i>>6, uint(i&63)
		if t.r[w]>>sh&1 == 1 {
			out.WriteByte('-')
		} else {
			out.WriteByte('+')
		}
		for q := 0; q < t.n; q++ {
			x, z := t.col(q)
			out.WriteByte("IXZY"[x[w]>>sh&1|z[w]>>sh&1<<1])
		}
		out.WriteByte('\n')
	}
	return out.String()
}

var errNotClifford = fmt.Errorf("stabilizer: gate is not Clifford")
