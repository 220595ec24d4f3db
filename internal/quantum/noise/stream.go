package noise

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// math/rand's rngSource is the lagged Fibonacci generator x_k = x_{k-607} +
// x_{k-273} (mod 2^64): once a seeded source has produced its first rngLen
// Uint64s, every later output is that recurrence over the outputs before it.
// A Stream keeps them in one flat buffer and extends it a block at a time,
// so a draw is a load, not a call through rand.Source.
const (
	rngLen   = 607
	rngTap   = 273
	blockLen = 4096 // words in a stream's buffer
	mask63   = 1<<63 - 1
)

// Stream yields exactly the values rand.New(rand.NewSource(seed)) yields.
// The zero value is ready to seed; Release lends its buffer to the next
// stream seeded.
type Stream struct {
	buf []uint64 // every output generated so far that is unread or a lag of the next
	i   int      // buf[i] is the next output
}

// blocks recycles released streams' buffers.
var blocks = sync.Pool{New: func() any { return new([blockLen]uint64) }}

// Seed restarts the stream where rand.NewSource(seed) starts.
func (s *Stream) Seed(seed int64) {
	if s.buf == nil {
		s.buf = blocks.Get().(*[blockLen]uint64)[:0]
	}
	s.buf, s.i = slices.Grow(s.buf[:0], blockLen)[:rngLen], 0
	memo.Lock()
	defer memo.Unlock()
	sl := &memo.slots[0] // the seed's slot, else the least recently used
	for k := range memo.slots {
		if memo.slots[k].used != 0 && memo.slots[k].seed == seed {
			sl = &memo.slots[k]
			break
		}
		if memo.slots[k].used < sl.used {
			sl = &memo.slots[k]
		}
	}
	if sl.used == 0 || sl.seed != seed {
		memo.src.Seed(seed)
		for j := range sl.out {
			sl.out[j] = memo.src.Uint64()
		}
		sl.seed = seed
	}
	memo.tick++
	sl.used = memo.tick
	copy(s.buf, sl.out[:])
}

// Release hands the stream's buffer back for another stream's Seed. The
// stream must be seeded again before its next draw.
func (s *Stream) Release() {
	if cap(s.buf) == blockLen {
		blocks.Put((*[blockLen]uint64)(s.buf[:blockLen]))
	}
	s.buf = nil
}

// memo keeps the first rngLen outputs of the last seeds seen: a sweep seeds
// member k with the same Seed + 7919·k on every device, and seeding costs
// 1,841 Schrage steps. Recency-evicted, so one-off seeds pass through.
var memo = struct {
	sync.Mutex
	src   rand.Source64
	tick  uint64
	slots [16]struct {
		seed int64
		used uint64 // tick of the last use; 0 = empty
		out  [rngLen]uint64
	}
}{src: rand.NewSource(0).(rand.Source64)}

// refill keeps the last rngLen outputs, the lags of the next, and
// generates the rest of a block after them.
func (s *Stream) refill() {
	lags := s.buf[len(s.buf)-rngLen:]
	s.buf = s.buf[:blockLen]
	copy(s.buf, lags)
	s.i = rngLen
	for j := rngLen; j < blockLen; j++ {
		s.buf[j] = s.buf[j-rngLen] + s.buf[j-rngTap]
	}
}

// The draws below are rand.Rand's methods of the same name, one output at a
// time.

func (s *Stream) uint64() uint64 {
	if s.i == len(s.buf) {
		s.refill()
	}
	s.i++
	return s.buf[s.i-1]
}

func (s *Stream) int63() int64 { return int64(s.uint64() & mask63) }

// Float64 is rand.Rand.Float64.
func (s *Stream) Float64() float64 {
	for {
		// As rand.Float64: an Int63 that rounds to 1.0 is drawn again.
		if f := float64(s.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn for 0 < n < 2^31 (Int31n: a mask for a power of
// two, else a redraw above the largest multiple of n).
func (s *Stream) Intn(n int) int {
	m := int32(n)
	v := int32(s.int63() >> 32)
	if m&(m-1) == 0 {
		return int(v & (m - 1))
	}
	for v > 1<<31-1-int32((1<<31)%uint32(m)) {
		v = int32(s.int63() >> 32)
	}
	return int(v % m)
}

// Kind is what a draw decides, and so which rand.Rand calls it makes.
type Kind uint8

const (
	Coin          Kind = iota // a random measurement's or reset's outcome: Intn(2)
	Readout                   // a readout flip: one Float64, which fires below p
	OneQubitError             // DrawOneQubit's draws: a Float64, then Intn(3) when it fires
	TwoQubitError             // DrawTwoQubit's: a Float64, then Intn(15) when it fires
)

// Draw makes one draw of kind k with probability p (a Coin ignores p) and
// returns its selection: the coin's outcome; otherwise 0 when nothing
// fires, 1 for a readout flip, and for an error the base-4 Pauli digits
// DrawOneQubit and DrawTwoQubit number — d%4 on the gate's first qubit, d/4
// on its second (0 I, 1 X, 2 Y, 3 Z).
//
// This is the RNG-order contract behind reproducible counts, for both
// simulators. A run's counts are a function of (circuit, model, shots,
// seed) alone: one Stream seeded with the run's seed, read as rand.Rand
// reads rand.NewSource(seed), per shot in program order. After each
// unitary gate come its Sites, one error draw each — drawn even at p = 0.
// A noise model adds one Readout per measurement: every qubit in qubit
// order for a circuit without measurements, else each measurement where
// it stands. The stabilizer engine (stabilizer.Runner.Counts) draws a Coin
// at each measurement or reset whose outcome is random, before its
// Readout. The dense trajectories (statevec.Noisy.Counts) measure only at
// the end: a reset draws one Float64 where it stands, and after the body
// one Float64 picks the outcome, before the readouts. Engines may change
// how they honour this order, never the order: each engine's oracle test
// holds its counts to an interpreter drawing from a real rand.Rand. The
// exact dense engine draws none of these: its shot is one Float64 on the
// exact distribution of outcomes these draws produce
// (statevec.Distribution.Sample).
func (s *Stream) Draw(k Kind, p float64) int {
	switch {
	case k == Coin:
		return s.Intn(2)
	case s.Float64() >= p:
		return 0
	case k == OneQubitError:
		return 1 + s.Intn(3)
	case k == TwoQubitError:
		return 1 + s.Intn(15)
	}
	return 1
}

// Threshold is a probability as the draws see it: the least 63-bit output
// whose Float64 is at least p. An output below it fires; one at or above
// roundsToOne is a Float64 of 1.0, which rand.Float64 draws again.
type Threshold uint64

const roundsToOne = 1<<63 - 1<<9 // the least 63-bit x with float64(x) == 2^63

// ThresholdOf returns p's Threshold: 0 when p ≤ 0, roundsToOne when p ≥ 1
// (or NaN — every draw fires, as Float64() >= p never holds).
func ThresholdOf(p float64) Threshold {
	switch q := p * (1 << 63); { // exact: a power-of-two scaling
	case !(p < 1):
		return roundsToOne
	case p <= 0:
		return 0
	case q <= 1<<53: // every integer here is a float64, so float64(x) ≥ q is x ≥ q
		return Threshold(math.Ceil(q))
	default:
		// q is an integer float; below it float64(x) rounds to q from the
		// midpoint to the next float down, and at that midpoint to whichever
		// of the two is even.
		mid := uint64(q) - uint64(q-math.Nextafter(q, 0))/2
		if float64(mid) < q {
			mid++
		}
		return Threshold(mid)
	}
}

// quiet reports whether the 63-bit output x neither fires at t nor rounds
// to one: t ≤ x < roundsToOne, in one unsigned compare.
func quiet(x uint64, t Threshold) bool {
	return x-uint64(t) < roundsToOne-uint64(t)
}

// DrawAt returns what Draw(k, p) returns for t = ThresholdOf(p), reading
// the same outputs (see Draw for the contract they follow).
func (s *Stream) DrawAt(k Kind, t Threshold) int {
	if k == Coin {
		return s.Intn(2)
	}
	for {
		x := uint64(s.int63())
		if quiet(x, t) {
			return 0
		}
		if x < uint64(t) {
			break
		}
	}
	switch k {
	case OneQubitError:
		return 1 + s.Intn(3)
	case TwoQubitError:
		return 1 + s.Intn(15)
	}
	return 1
}

// Quiet makes the draws at ts in order while none fires and returns how
// many it made: len(ts), or the index of the first that would fire or
// round to one, left unread for DrawAt. Every draw it makes selects 0, as
// Draw's would (see Draw for the order they follow).
func (s *Stream) Quiet(ts []Threshold) int {
	n := 0
	for n < len(ts) {
		if s.i == len(s.buf) {
			s.refill()
		}
		next := s.buf[s.i:min(len(s.buf), s.i+len(ts)-n)]
		at := ts[n : n+len(next)]
		for j, x := range next {
			if !quiet(x&mask63, at[j]) {
				s.i += j
				return n + j
			}
		}
		s.i += len(next)
		n += len(next)
	}
	return n
}
