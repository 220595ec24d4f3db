// Package fidelity estimates how faithfully a device executes a circuit.
// It implements the three device-scoring strategies of the paper's
// evaluation (§4.3):
//
//   - Canary: the deployable estimator (§3.4.1) — transpile, cliffordize,
//     simulate the Clifford canary both noiselessly and under the device's
//     noise model with the polynomial-time stabilizer engine, and compare.
//   - Oracle: the ground truth — exact ideal distribution of the original
//     circuit (dense simulation) against its noisy execution. Unusable in a
//     real scheduler (it requires knowing the correct answer) but the
//     natural upper bound.
//   - Analytic: the "simplistic" product-of-success-rates estimate the
//     paper argues degrades with circuit complexity; kept for ablations.
//
// All comparisons use the Hellinger fidelity (Σ√(p·q))², Qiskit's
// convention for distribution fidelity.
package fidelity

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"

	"qrio/internal/device"
	"qrio/internal/mapomatic"
	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/clifford"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/stabilizer"
	"qrio/internal/quantum/statevec"
	"qrio/internal/transpile"
)

// Hellinger returns the Hellinger fidelity (Σ_s √(p(s)·q(s)))² between two
// distributions given as probability maps over bitstrings.
func Hellinger(p, q map[string]float64) float64 {
	s := 0.0
	for _, k := range sortedKeys(p) {
		if pv, qv := p[k], q[k]; pv > 0 && qv > 0 {
			s += math.Sqrt(pv * qv)
		}
	}
	return s * s
}

// sortedKeys returns m's keys in ascending order. Every float sum over a
// distribution in this package runs over sorted keys: float addition is
// not associative, so summing in map-iteration order made the last bits of
// a fidelity differ from run to run.
func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}

// HellingerCounts compares an exact distribution with an empirical
// histogram.
func HellingerCounts(ideal map[string]float64, counts map[string]int) float64 {
	f, _ := hellingerExact(counts, func(bits string) (float64, error) { return ideal[bits], nil })
	return f
}

// TVD returns the total variation distance between two distributions.
func TVD(p, q map[string]float64) float64 {
	seen := map[string]bool{}
	d := 0.0
	for k, pv := range p {
		d += math.Abs(pv - q[k])
		seen[k] = true
	}
	for k, qv := range q {
		if !seen[k] {
			d += qv
		}
	}
	return d / 2
}

// Estimator configures fidelity evaluation. The zero value is invalid; use
// NewEstimator or set Shots explicitly.
type Estimator struct {
	Shots     int
	Seed      int64
	Transpile transpile.Options
	// MaxDenseQubits caps dense (state-vector) simulation below the hard
	// limit of statevec.MaxQubits; 0 means the hard limit. Fleet-scale
	// experiments lower this so a routed circuit that wanders across a
	// sparse device fails fast instead of grinding through 2^20+ amplitude
	// simulations.
	MaxDenseQubits int
	// CanaryEnsemble is the number of randomised-rounding canary variants
	// averaged by CanaryFidelity (0 = 5; 1 = single deterministic canary).
	// See clifford.Ensemble for why a single canary can be blind.
	CanaryEnsemble int
	// Context, when set, cancels an execution's shots: the trajectories
	// (statevec.Noisy) and the tableau (stabilizer.Runner) check it between
	// shot blocks. Nil means never cancelled. An exact distribution is at
	// most 8 qubits and is not checked.
	Context context.Context
}

// canarySize resolves the canary ensemble size.
func (e Estimator) canarySize() int {
	if e.CanaryEnsemble <= 0 {
		return 5
	}
	return e.CanaryEnsemble
}

// denseLimit resolves the effective dense-simulation qubit cap.
func (e Estimator) denseLimit() int {
	if e.MaxDenseQubits > 0 && e.MaxDenseQubits < statevec.MaxQubits {
		return e.MaxDenseQubits
	}
	return statevec.MaxQubits
}

// NewEstimator returns an estimator with sensible defaults.
func NewEstimator(seed int64) Estimator {
	return Estimator{Shots: 256, Seed: seed}
}

// CanaryFingerprint digests everything that determines a CanaryFidelity
// result except the backend: the circuit source and the estimator's canary
// configuration. Two calls with equal fingerprints against the same
// backend calibration are guaranteed to return the same fidelity, which is
// what lets the Meta Server memoise canary simulation across jobs.
func (e Estimator) CanaryFingerprint(qasmSrc string) string {
	h := sha256.New()
	fmt.Fprintf(h, "canary|shots=%d|seed=%d|dense=%d|ensemble=%d|tr=%+v|",
		e.Shots, e.Seed, e.MaxDenseQubits, e.CanaryEnsemble, e.Transpile)
	io.WriteString(h, qasmSrc)
	return hex.EncodeToString(h.Sum(nil))
}

// ensureMeasured returns c itself when it measures, or a copy measuring
// every qubit.
func ensureMeasured(c *circuit.Circuit) *circuit.Circuit {
	if c.HasMeasurements() {
		return c
	}
	m := c.Copy()
	m.MeasureAll()
	return m
}

// prepare transpiles the circuit for the backend and deflates the physical
// circuit to its active qubits: the one preparation path of Execute,
// OracleFidelity and the canaries. It returns the record of that (the
// transpiled circuit, its active qubits and added swaps) and the compact
// circuit, which runs under compactModel(b, ActiveQubits).
func (e Estimator) prepare(c *circuit.Circuit, b *device.Backend) (*Execution, *circuit.Circuit, error) {
	tr, err := transpile.Transpile(ensureMeasured(c), b, e.Transpile)
	if err != nil {
		return nil, nil, err
	}
	compact, active, err := mapomatic.Deflate(tr.Circuit)
	if err != nil {
		return nil, nil, err
	}
	return &Execution{Transpiled: tr.Circuit, ActiveQubits: active, AddedSwaps: tr.AddedSwaps}, compact, nil
}

// compactModel restricts a backend's noise model to the given physical
// qubits, reindexed 0..len(active)-1.
func compactModel(b *device.Backend, active []int) *noise.Model {
	idx := make(map[int]int, len(active))
	for i, p := range active {
		idx[p] = i
	}
	m := &noise.Model{
		NumQubits:       len(active),
		OneQubit:        make([]float64, len(active)),
		Readout:         make([]float64, len(active)),
		TwoQubit:        map[[2]int]float64{},
		TwoQubitDefault: 0.99,
	}
	for i, p := range active {
		m.OneQubit[i] = b.OneQubitErr[p]
		m.Readout[i] = b.ReadoutErr[p]
	}
	for e2, err := range b.TwoQubitErr {
		a, ok1 := idx[e2[0]]
		c, ok2 := idx[e2[1]]
		if ok1 && ok2 {
			m.TwoQubit[noise.NormPair(a, c)] = err
		}
	}
	return m
}

// Canaries is the device-independent half of a canary estimate, prepared
// once per circuit and shared — concurrently — by the estimates for every
// device: the selected Clifford ensemble, and per member a memo of the exact
// ideal outcome probabilities looked up so far. What remains per (circuit,
// device) is transpiling each member to the device and running its noisy
// shots; see CanaryFidelityOn.
type Canaries struct {
	members []*canaryMember
}

// canaryMember is one ensemble member. The ideal distribution over
// classical bits is device-independent (and exact: stabilizer states have
// dyadic outcome probabilities), so it is evaluated on the logical member
// and remembered across devices, which mostly observe the same outcomes.
type canaryMember struct {
	circuit *circuit.Circuit
	ideal   *stabilizer.Ideal
	memo    *memo.Bounded[string, float64] // ideal.Probability by outcome
}

// maxIdealMemo caps one member's memo: a wide circuit on noisy devices can
// observe a new outcome on nearly every shot.
const maxIdealMemo = 4096

// idealProb returns the exact probability that the member's noiseless run
// produces bits.
func (m *canaryMember) idealProb(bits string) (float64, error) {
	return m.memo.Load(bits, func() (float64, error) { return m.ideal.Probability(bits) })
}

// PrepareCanaries builds the canary ensemble for c. The ensemble is built
// from the *logical* circuit, so every device is scored against the same
// reference canaries; each member is transpiled to the device under test
// later (cliffordizing after transpilation would hand every device a
// structurally different canary and make cross-device fidelities
// incomparable).
func (e Estimator) PrepareCanaries(c *circuit.Circuit) (*Canaries, error) {
	measured := ensureMeasured(c).Decompose()
	cs := &Canaries{}
	for _, member := range selectCanaries(measured, e.canarySize()) {
		ideal, err := stabilizer.NewIdeal(member)
		if err != nil {
			return nil, err
		}
		cs.members = append(cs.members, &canaryMember{circuit: member, ideal: ideal, memo: memo.New[string, float64](maxIdealMemo)})
	}
	return cs, nil
}

// CanaryFidelity estimates the fidelity circuit c would achieve on backend
// b using the Clifford canary method, averaging over a randomised-rounding
// canary ensemble (clifford.Ensemble). It is computable for any device
// size — the whole point of the strategy (§3.4.1). Callers scoring one
// circuit on many devices should PrepareCanaries once and call
// CanaryFidelityOn per device; the result is the same.
func (e Estimator) CanaryFidelity(c *circuit.Circuit, b *device.Backend) (float64, error) {
	cs, err := e.PrepareCanaries(c)
	if err != nil {
		return 0, err
	}
	return e.CanaryFidelityOn(cs, b)
}

// CanaryFidelityOn is the per-(circuit, device) half of CanaryFidelity:
// each prepared member is transpiled to b, run under b's noise model and
// compared against its exact ideal distribution; the member fidelities are
// averaged. Members share a skeleton and so, mostly, their active qubits: a
// member whose active set equals the previous member's reuses its compact
// noise model.
func (e Estimator) CanaryFidelityOn(cs *Canaries, b *device.Backend) (float64, error) {
	if e.Shots <= 0 {
		return 0, fmt.Errorf("fidelity: estimator needs positive Shots")
	}
	shots := e.Shots / len(cs.members)
	if shots < 128 {
		shots = 128 // member estimates need enough shots to separate the
		// best devices, whose fidelities differ by a few percent
	}
	var active []int
	var model *noise.Model
	sum := 0.0
	for k, member := range cs.members {
		ex, compact, err := e.prepare(member.circuit, b)
		if err != nil {
			return 0, err
		}
		if model == nil || !slices.Equal(ex.ActiveQubits, active) {
			active, model = ex.ActiveQubits, compactModel(b, ex.ActiveQubits)
		}
		noisy, err := stabilizer.Runner{Model: model, Shots: shots, Seed: e.Seed + int64(k)*7919}.Counts(compact)
		if err != nil {
			return 0, err
		}
		f, err := hellingerExact(noisy, member.idealProb)
		if err != nil {
			return 0, err
		}
		sum += f
	}
	return sum / float64(len(cs.members)), nil
}

// selectCanaries picks the canary ensemble for a (decomposed, measured)
// logical circuit. Candidates come from clifford.Ensemble with a seed
// derived from the circuit itself — NOT from the estimator seed — so every
// device is judged against identical reference canaries. From an
// oversampled candidate pool it keeps the members whose ideal output
// distributions are most concentrated: a canary whose ideal distribution is
// (near-)uniform is blind to noise under the Hellinger metric, so
// preferring concentrated members maximises ranking signal (the
// canary-sensitivity selection of Quancorde [24]).
func selectCanaries(measured *circuit.Circuit, size int) []*circuit.Circuit {
	seed := circuitSeed(measured)
	candidates := clifford.Ensemble(measured, 3*size, seed)
	type scored struct {
		c    *circuit.Circuit
		conc float64
		idx  int
	}
	items := make([]scored, 0, len(candidates))
	for i, cand := range candidates {
		items = append(items, scored{c: cand, conc: concentration(cand, seed), idx: i})
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].conc > items[b].conc })
	if len(items) > size {
		items = items[:size]
	}
	out := make([]*circuit.Circuit, len(items))
	for i, it := range items {
		out[i] = it.c
	}
	return out
}

// concentration estimates the probability of a canary's most likely ideal
// outcome: sample a few noiseless shots, then evaluate the modal outcome's
// exact probability.
func concentration(c *circuit.Circuit, seed int64) float64 {
	counts, err := stabilizer.Runner{Shots: 96, Seed: seed}.Counts(c)
	if err != nil {
		return 0
	}
	mode, best := "", 0
	for bits, n := range counts {
		if n > best || (n == best && bits < mode) {
			mode, best = bits, n
		}
	}
	p, err := stabilizer.OutcomeProbability(c, mode)
	if err != nil {
		return 0
	}
	return p
}

// circuitSeed derives a stable seed from a circuit's structure so canary
// ensembles are identical across devices and processes.
func circuitSeed(c *circuit.Circuit) int64 {
	h := int64(1469598103934665603)
	mix := func(v int64) {
		h ^= v
		h *= 1099511628211
	}
	mix(int64(c.NumQubits))
	for _, g := range c.Gates {
		for _, b := range []byte(g.Name) {
			mix(int64(b))
		}
		for _, q := range g.Qubits {
			mix(int64(q))
		}
		for _, p := range g.Params {
			mix(int64(math.Float64bits(p)))
		}
	}
	return h
}

// hellingerExact compares an ideal distribution, given as a function
// evaluated only on the observed outcomes (the form that works when the
// register is too wide to enumerate), with an empirical histogram.
func hellingerExact(counts map[string]int, ideal func(bits string) (float64, error)) (float64, error) {
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0, nil
	}
	s := 0.0
	for _, bits := range sortedKeys(counts) {
		p, err := ideal(bits)
		if err != nil {
			return 0, err
		}
		if p > 0 {
			s += math.Sqrt(p * float64(counts[bits]) / float64(total))
		}
	}
	return s * s, nil
}

// OracleFidelity computes the achieved fidelity of the actual circuit on
// the backend: exact ideal distribution vs the counts of its noisy
// execution on a dense engine (see Execute).
// It fails when the circuit (after routing) touches more qubits than dense
// simulation allows.
func (e Estimator) OracleFidelity(c *circuit.Circuit, b *device.Backend) (float64, error) {
	if e.Shots <= 0 {
		return 0, fmt.Errorf("fidelity: estimator needs positive Shots")
	}
	ex, compact, err := e.prepare(c, b)
	if err != nil {
		return 0, err
	}
	if compact.NumQubits > e.denseLimit() {
		return 0, fmt.Errorf("fidelity: oracle needs %d qubits (> %d) on %s",
			compact.NumQubits, e.denseLimit(), b.Name)
	}
	_, f, _, err := e.dense(compact, compactModel(b, ex.ActiveQubits))
	return f, err
}

// AnalyticFidelity is the simplistic estimate Π(1−e_i) over the transpiled
// circuit's gates and readouts (no simulation). Kept as an ablation
// baseline for the canary method.
func (e Estimator) AnalyticFidelity(c *circuit.Circuit, b *device.Backend) (float64, error) {
	tr, err := transpile.Transpile(ensureMeasured(c), b, e.Transpile)
	if err != nil {
		return 0, err
	}
	cost := mapomatic.PhysicalCost(tr.Circuit, b)
	return math.Exp(-cost), nil
}
