package statevec

import (
	"fmt"
	"math/rand"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// Noisy executes circuits shot-by-shot under a Pauli + readout noise model
// (Monte-Carlo trajectories), which is exact for Pauli channels.
type Noisy struct {
	Model *noise.Model // nil means noiseless
	Shots int          // number of trajectories; must be > 0
	Seed  int64        // RNG seed; runs are reproducible per seed
}

// checkpointBytes bounds the noiseless prefix states a run may keep (one
// per noise site) so a shot that drew an error resumes at its first error
// instead of at gate 0. Past the budget shots replay from the start.
const checkpointBytes = 1 << 20

// Counts runs the circuit and returns a histogram over classical bitstrings
// (or over all qubits when the circuit has no measurements).
//
// The circuit is compiled once and all shots run on one state. Counts are a
// function of (circuit, model, Shots, Seed) alone: one rand.Rand seeded
// with Seed is consumed in the order noise.DrawOneQubit documents, and
// that order never changes. A shot's gate errors do not depend on the
// quantum state, so they are drawn before anything is simulated; a shot
// that drew none is sampled from the noiseless final state instead of
// being simulated, and one that did replays with its errors injected.
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
	rng := rand.New(rand.NewSource(r.Seed))
	// Integer keys: a bitstring is formatted once per distinct outcome.
	tally := make(map[int]int)
	var ideal map[string]float64
	if prog.hasReset {
		for shot := 0; shot < r.Shots; shot++ {
			if shot > 0 {
				s.reset()
			}
			prog.runShot(s, rng)
			tally[prog.readout(s.SampleIndex(rng), rng)]++
		}
	} else {
		checkpoints := prog.runNoiseless(s)
		if wantIdeal {
			ideal = prog.distribution(s)
		}
		sums := s.runningSums()
		size := len(s.amps)
		hits := make([]hit, 0, len(prog.sites))
		for shot := 0; shot < r.Shots; shot++ {
			hits = prog.drawErrors(rng, hits[:0])
			if len(hits) == 0 {
				tally[prog.readout(sampleSums(sums, rng.Float64()), rng)]++
				continue
			}
			from := 0
			if checkpoints != nil {
				first := hits[0].site
				from = prog.sites[first]
				copy(s.amps, checkpoints[first*size:(first+1)*size])
			} else {
				s.reset()
			}
			prog.replay(s, from, hits)
			tally[prog.readout(s.SampleIndex(rng), rng)]++
		}
	}
	counts := make(map[string]int, len(tally))
	for key, n := range tally {
		counts[FormatBits(key, prog.nbits)] = n
	}
	return counts, ideal, nil
}

// runNoiseless executes a reset-free program with no error injected,
// leaving the noiseless final state in s. While they fit checkpointBytes
// it also returns the state on arrival at each noise site, back to back in
// site order.
func (p *program) runNoiseless(s *State) (checkpoints []complex128) {
	size := len(s.amps)
	if len(p.sites) > 0 && len(p.sites)*size*16 <= checkpointBytes {
		checkpoints = make([]complex128, 0, len(p.sites)*size)
	}
	for i := range p.ops {
		switch o := &p.ops[i]; o.code {
		case opNoise1, opNoise2:
			if checkpoints != nil {
				checkpoints = append(checkpoints, s.amps...)
			}
		default:
			s.apply(o)
		}
	}
	return checkpoints
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
