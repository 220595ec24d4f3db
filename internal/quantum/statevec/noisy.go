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

// Noisy executes circuits shot-by-shot under a Pauli + readout noise model
// (Monte-Carlo trajectories), which is exact for Pauli channels.
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

// checkpointBytes bounds the states a run keeps: the noiseless state on
// arrival at each noise site, so a shot resumes at its first error instead
// of at gate 0, and in what is left the states the last simulated error
// pattern passed, so the next resumes where the two part. Past the budget
// shots replay from the start.
const checkpointBytes = 1 << 20

// Counts runs the circuit and returns a histogram over classical bitstrings
// (or over all qubits when the circuit has no measurements).
//
// The circuit is compiled once and all shots run on one state. Counts are a
// function of (circuit, model, Shots, Seed) alone: the draws follow the
// order noise.Stream.Draw sets out, which never changes. A shot's draws do
// not depend on the quantum state, so a block of shots is drawn before
// anything is simulated; a shot that drew no gate error is sampled from the
// noiseless final state instead of being simulated, and each distinct set
// of errors the others drew is simulated once, with its errors injected.
// Circuits with a reset, whose draw does depend on the state, run gate by
// gate.
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
		ncp, nsaved := prog.layout(len(s.amps))
		e = newTrajectories(prog, s, ws, ncp, nsaved)
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
	states []complex128 // trajectories' checkpoints, then their saved states
	buf    []uint64     // a block's fired draws: per errored shot its hits, then its readout flips
	shots  []errored
	order  []uint64 // the block's errored shots in pattern order
	path   []uint64 // the last error pattern simulated
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

// trajectories runs the shots of a reset-free program. An error pattern's
// final state is the noiseless circuit with its hits injected; on the way
// it passes S_j, the state arriving at its j-th hit with the hits before
// it injected. S_0 is the noiseless checkpoint at the first hit.
type trajectories struct {
	p    *program
	s    *State
	sums []float64 // the noiseless final state's running sums
	size int
	cp   []complex128 // the noiseless state on arrival at each site, or nil
	// saved holds the path's S_low … S_top, back to back: S_0 too when no
	// checkpoint stands in for it.
	saved    []complex128
	low, top int
	*workspace
}

// newTrajectories runs the program noiselessly, leaving its final state in
// s and taking its running sums, and lays the workspace's states out as
// layout sizes them: ncp checkpoints, then nsaved pattern states.
func newTrajectories(p *program, s *State, ws *workspace, ncp, nsaved int) *trajectories {
	e := &trajectories{p: p, s: s, size: len(s.amps), workspace: ws}
	ws.states = slices.Grow(ws.states[:0], (ncp+nsaved)*e.size)[:(ncp+nsaved)*e.size]
	e.saved = ws.states[ncp*e.size:]
	if ncp > 0 {
		e.cp, e.low = ws.states[:ncp*e.size], 1
	}
	e.top = e.low + nsaved - 1
	p.runNoiseless(s, e.cp)
	e.sums = s.runningSums()
	ws.path = ws.path[:0]
	return e
}

// layout returns how many noiseless checkpoints (every site's or none) and
// how many pattern states a run keeps for a state of size amplitudes.
func (p *program) layout(size int) (checkpoints, saved int) {
	budget := checkpointBytes / 16 / size
	low := 0
	if 0 < len(p.sites) && len(p.sites) <= budget {
		checkpoints, low = len(p.sites), 1
	}
	// A pattern hits each site at most once: it has no S_j for j ≥ len(sites).
	return checkpoints, max(0, min(budget-checkpoints, len(p.sites)-low))
}

// runNoiseless executes a reset-free program with no error injected,
// leaving the noiseless final state in s. Given room for them it fills
// checkpoints with the state on arrival at each noise site, back to back in
// site order.
func (p *program) runNoiseless(s *State, checkpoints []complex128) {
	from := 0
	for site, at := range p.sites {
		p.advance(s, from, at)
		if checkpoints != nil {
			copy(checkpoints[site*len(s.amps):], s.amps)
		}
		from = at + 1
	}
	p.advance(s, from, len(p.ops))
}

// block runs n shots: it makes all their draws, in shot order, tallies the
// shots that drew no gate error off the noiseless sums, and sorts the rest
// by their hits to simulate each distinct pattern once and sample its
// shots off it.
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
	// Sort by first hit with an integer sort (key first<<32 | shot), then
	// each run that shares a first hit by the rest. Any order gives the same
	// counts; this one puts equal patterns and shared prefixes side by side.
	e.order = e.order[:0]
	for i, sh := range e.shots {
		e.order = append(e.order, e.buf[sh.lo]<<32|uint64(i))
	}
	slices.Sort(e.order)
	rest := func(a, b uint64) int {
		x, y := e.shots[uint32(a)], e.shots[uint32(b)]
		return slices.Compare(e.buf[x.lo+1:x.mid], e.buf[y.lo+1:y.mid])
	}
	for lo := 0; lo < len(e.order); {
		hi := lo + 1
		for hi < len(e.order) && e.order[hi]>>32 == e.order[lo]>>32 {
			hi++
		}
		slices.SortFunc(e.order[lo:hi], rest)
		lo = hi
	}
	for _, k := range e.order {
		sh := e.shots[uint32(k)]
		if hits := e.buf[sh.lo:sh.mid]; !slices.Equal(hits, e.path) {
			e.simulate(hits)
		}
		tally[e.p.key(e.s.SampleIndex(sh.u), e.buf[sh.mid:sh.hi])]++
	}
}

// simulate leaves pat's final state in s and makes pat the path. It
// resumes from the deepest kept state pat passes — the path's S_j, else the
// checkpoint at pat's first hit, else gate 0 — and keeps the S_j it passes.
func (e *trajectories) simulate(pat []uint64) {
	j := min(passes(e.path, pat), e.top)
	i, from := 0, 0 // S_i, or a state pat passes before it, is in s on arrival at ops[from]
	switch {
	case j >= e.low:
		i, from = j, e.p.sites[e.path[j]>>4]
		copy(e.s.amps, e.state(j))
	case e.cp != nil:
		site := int(pat[0] >> 4)
		from = e.p.sites[site]
		copy(e.s.amps, e.cp[site*e.size:(site+1)*e.size])
	default:
		e.s.reset()
	}
	for start := i; i < len(pat); i++ {
		at := e.p.sites[pat[i]>>4]
		fresh := i > start || from < at
		e.p.advance(e.s, from, at)
		if fresh && e.low <= i && i <= e.top {
			copy(e.state(i), e.s.amps)
		}
		e.s.inject(&e.p.ops[at], int(pat[i]&15))
		from = at + 1
	}
	e.p.advance(e.s, from, len(e.p.ops))
	e.path = append(e.path[:0], pat...)
}

// state is the saved S_j, low ≤ j ≤ top.
func (e *trajectories) state(j int) []complex128 {
	return e.saved[(j-e.low)*e.size : (j-e.low+1)*e.size]
}

// passes returns the deepest j at which pattern p passes pattern q's S_j —
// p injects the hits q injects before its j-th and no other before that
// hit's site — or -1 when p's first hit comes before q's.
func passes(q, p []uint64) int {
	m := 0
	for m < len(p) && m < len(q) && p[m] == q[m] {
		m++
	}
	if m < len(q) && (m == len(p) || p[m]>>4 >= q[m]>>4) {
		return m
	}
	return m - 1
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
