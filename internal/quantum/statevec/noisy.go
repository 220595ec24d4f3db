package statevec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// Noisy executes circuits shot by shot under a Pauli + readout noise model
// (Monte-Carlo trajectories): each shot draws its Pauli errors and readout
// flips and is simulated, or sampled, with them. Exact computes the
// distribution these shots sample in one pass, for the reset-free circuits
// of at most ExactQubits it takes; fidelity.Estimator runs those there and
// everything wider here.
type Noisy struct {
	Model *noise.Model // nil means noiseless
	Shots int          // number of trajectories; must be > 0
	Seed  int64        // RNG seed; runs are reproducible per seed
	// Context, when set, is checked between shot blocks: once it is done
	// the run stops and returns its error. Nil means never cancelled.
	Context context.Context
}

// shotBlock is how many shots a run draws before it simulates any: the
// errored shots of a block are sorted by their errors, so each distinct
// error pattern among them is simulated once.
const shotBlock = 1024

// sweepBytes bounds the one state a run keeps beside its own: the
// noiseless state swept forward to each errored shot's first error. Past
// it shots replay from gate 0.
const sweepBytes = 1 << 20

// Counts runs the circuit and returns a histogram over classical bitstrings
// (or over all qubits when the circuit has no measurements).
//
// The circuit is compiled once and all shots run on one state. Counts are a
// function of (circuit, model, Shots, Seed) alone: the draws follow the
// order noise.Stream.Draw sets out, which never changes. A shot's draws do
// not depend on the quantum state, so a block of shots is drawn before
// anything is simulated; a shot that drew no gate error is sampled from the
// noiseless final state instead of being simulated, and each distinct set
// of errors the others drew is simulated once, from the noiseless state at
// its first error. Circuits with a reset, whose draw does depend on the
// state, run gate by gate.
func (r Noisy) Counts(c *circuit.Circuit) (map[string]int, error) {
	counts, _, err := r.run(c, false)
	return counts, err
}

// CountsAndIdeal returns what Counts returns and what IdealDistribution
// returns, the second read off the noiseless pass the first makes anyway.
func (r Noisy) CountsAndIdeal(c *circuit.Circuit) (map[string]int, map[string]float64, error) {
	return r.run(c, true)
}

func (r Noisy) run(c *circuit.Circuit, wantIdeal bool) (map[string]int, map[string]float64, error) {
	if r.Shots <= 0 {
		return nil, nil, fmt.Errorf("statevec: Shots must be positive, got %d", r.Shots)
	}
	prog, err := compile(c, r.Model)
	if err != nil {
		return nil, nil, err
	}
	if wantIdeal && prog.hasReset {
		return nil, nil, errIdealReset
	}
	s, err := New(prog.nq)
	if err != nil {
		return nil, nil, err
	}
	var st noise.Stream
	st.Seed(r.Seed)
	defer st.Release()
	ws := getWorkspace()
	defer putWorkspace(ws)
	// Integer keys: a bitstring is formatted once per distinct outcome.
	tally := make(map[int]int)
	var ideal map[string]float64
	var e *trajectories
	if !prog.hasReset {
		prog.runFrom(s, 0, nil)
		e = &trajectories{p: prog, s: s, sums: s.runningSums(), workspace: ws}
		if len(s.amps)*16 <= sweepBytes {
			ws.sweep = slices.Grow(ws.sweep[:0], len(s.amps))[:len(s.amps)]
			e.sweep = &State{n: s.n, amps: ws.sweep}
		}
		if wantIdeal {
			ideal = prog.distribution(s)
		}
	}
	for done := 0; done < r.Shots; done += shotBlock {
		if r.Context != nil {
			if err := r.Context.Err(); err != nil {
				return nil, nil, err
			}
		}
		n := min(shotBlock, r.Shots-done)
		if e != nil {
			e.block(&st, n, tally)
			continue
		}
		for ; n > 0; n-- {
			s.reset()
			prog.runShot(s, &st)
			u := st.Float64()
			ws.buf = prog.reads.fire(&st, ws.buf[:0])
			tally[prog.key(s.SampleIndex(u), ws.buf)]++
		}
	}
	counts := make(map[string]int, len(tally))
	for key, n := range tally {
		counts[FormatBits(key, prog.nbits)] = n
	}
	return counts, ideal, nil
}

// workspace is the scratch a run borrows and hands on to the next.
type workspace struct {
	sweep []complex128 // trajectories' swept noiseless state
	buf   []uint64     // a block's fired draws: per errored shot its hits, then its readout flips
	shots []errored
}

// workspaces keeps finished runs' scratch, at most one per processor. Not a
// sync.Pool: that drops items at random under the race detector and at each
// GC, so what a run allocates would depend on luck, not on its inputs.
var workspaces struct {
	sync.Mutex
	free []*workspace
}

func getWorkspace() *workspace {
	workspaces.Lock()
	defer workspaces.Unlock()
	n := len(workspaces.free)
	if n == 0 {
		return new(workspace)
	}
	ws := workspaces.free[n-1]
	workspaces.free = workspaces.free[:n-1]
	return ws
}

func putWorkspace(ws *workspace) {
	workspaces.Lock()
	defer workspaces.Unlock()
	if len(workspaces.free) < runtime.GOMAXPROCS(0) {
		workspaces.free = append(workspaces.free, ws)
	}
}

// errored is one shot of a block that drew a gate error: its hits (the
// errs entries that fired, i<<4 | d, in site order) are buf[lo:mid], its
// readout flips buf[mid:hi], and u is the draw that samples it.
type errored struct {
	u           float64
	lo, mid, hi int32
}

// trajectories runs the shots of a reset-free program.
type trajectories struct {
	p     *program
	s     *State
	sums  []float64 // the noiseless final state's running sums
	sweep *State    // the noiseless state on its way through a block's first hits; nil past sweepBytes
	*workspace
}

// block runs n shots: it makes all their draws, in shot order, tallies the
// shots that drew no gate error off the noiseless sums, and sorts the rest
// by their hits — by first hit, then by the rest — so one noiseless sweep
// through the circuit reaches every first hit in order, and equal patterns
// sit side by side and are simulated once.
func (e *trajectories) block(st *noise.Stream, n int, tally map[int]int) {
	e.buf, e.shots = e.buf[:0], e.shots[:0]
	for ; n > 0; n-- {
		lo := len(e.buf)
		e.buf = e.p.errs.fire(st, e.buf)
		mid := len(e.buf)
		u := st.Float64()
		e.buf = e.p.reads.fire(st, e.buf)
		if mid == lo {
			tally[e.p.key(sampleSums(e.sums, u), e.buf[mid:])]++
			e.buf = e.buf[:lo]
			continue
		}
		e.shots = append(e.shots, errored{u: u, lo: int32(lo), mid: int32(mid), hi: int32(len(e.buf))})
	}
	hits := func(sh errored) []uint64 { return e.buf[sh.lo:sh.mid] }
	slices.SortFunc(e.shots, func(a, b errored) int { return slices.Compare(hits(a), hits(b)) })
	at := 0 // the sweep holds the noiseless state on arrival at ops[at]
	if e.sweep != nil {
		e.sweep.reset()
	}
	for i, sh := range e.shots {
		if i == 0 || !slices.Equal(hits(sh), hits(e.shots[i-1])) {
			if e.sweep == nil {
				e.s.reset()
				e.p.runFrom(e.s, 0, hits(sh))
			} else {
				first := e.p.sites[hits(sh)[0]>>4]
				e.p.advance(e.sweep, at, first)
				at = first
				copy(e.s.amps, e.sweep.amps)
				e.p.runFrom(e.s, first, hits(sh))
			}
		}
		tally[e.p.key(e.s.SampleIndex(sh.u), e.buf[sh.mid:sh.hi])]++
	}
}

// runFrom executes a reset-free program's ops from ops[from] on, with hits
// injected (errs entries that fired, i<<4 | d, in site order, none before
// from), leaving the final state in s.
func (p *program) runFrom(s *State, from int, hits []uint64) {
	for _, h := range hits {
		at := p.sites[h>>4]
		p.advance(s, from, at)
		s.inject(&p.ops[at], int(h&15))
		from = at + 1
	}
	p.advance(s, from, len(p.ops))
}

// runningSums returns the state's cumulative outcome probabilities,
// accumulated exactly as SampleIndex accumulates them.
func (s *State) runningSums() []float64 {
	sums := make([]float64, len(s.amps))
	acc := 0.0
	for i, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		sums[i] = acc
	}
	return sums
}

// sampleSums returns the index SampleIndex returns for the draw r on the
// state the sums were taken from: the first whose running sum exceeds r,
// or the last index when none does.
func sampleSums(sums []float64, r float64) int {
	lo, hi := 0, len(sums)-1
	for lo < hi {
		if mid := (lo + hi) / 2; r < sums[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
