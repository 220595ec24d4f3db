package stabilizer

import (
	"math/rand"
	"slices"
	"sync"
)

// math/rand's rngSource is the lagged Fibonacci generator x_k = x_{k-607} +
// x_{k-273} (mod 2^64): once a seeded source has produced its first rngLen
// Uint64s, every later output is that recurrence over the outputs before it.
// A stream keeps them in one flat buffer and extends it a block at a time,
// so a draw is a load, not a call through rand.Source.
const (
	rngLen   = 607
	rngTap   = 273
	blockLen = 4096 // words in a stream's buffer
	mask63   = 1<<63 - 1
)

// stream yields exactly the values rand.New(rand.NewSource(seed)) yields.
// The zero value is ready to seed.
type stream struct {
	buf []uint64 // every output generated so far that is unread or a lag of the next
	i   int      // buf[i] is the next output
}

// seed restarts the stream where rand.NewSource(seed) starts.
func (s *stream) seed(seed int64) {
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
func (s *stream) refill() {
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

func (s *stream) uint64() uint64 {
	if s.i == len(s.buf) {
		s.refill()
	}
	s.i++
	return s.buf[s.i-1]
}

func (s *stream) int63() int64 { return int64(s.uint64() & mask63) }

func (s *stream) float64() float64 {
	for {
		// As rand.Float64: an Int63 that rounds to 1.0 is drawn again.
		if f := float64(s.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// intn is rand.Intn for 0 < n < 2^31 (Int31n: a mask for a power of two,
// else a redraw above the largest multiple of n).
func (s *stream) intn(n int32) int {
	v := int32(s.int63() >> 32)
	if n&(n-1) == 0 {
		return int(v & (n - 1))
	}
	for v > 1<<31-1-int32((1<<31)%uint32(n)) {
		v = int32(s.int63() >> 32)
	}
	return int(v % n)
}
