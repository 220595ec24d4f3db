package fidelity

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"weak"

	"qrio/internal/device"
	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/qasm"
	"qrio/internal/quantum/stabilizer"
	"qrio/internal/transpile"
)

// Execution is the record of actually running a circuit on a (simulated)
// device — what a QRIO node produces for the job logs (Fig. 5).
type Execution struct {
	// Counts is the measured histogram over the classical register.
	Counts map[string]int
	// Fidelity is the Hellinger fidelity against the ideal distribution.
	Fidelity float64
	// TranspiledQASM is the full device-sized executable that ran, as
	// qasm.Dump writes it (empty if it would not dump).
	TranspiledQASM string
	// Gates, CX and Depth are the executable's size (barriers excluded),
	// its cx count and its depth.
	Gates, CX, Depth int
	// AddedSwaps is the routing overhead.
	AddedSwaps int
	// Method names the simulation engine used: MethodDensityMatrix for a
	// compact circuit statevec.Exactable takes (its exact distribution,
	// then a draw of the shots), MethodStatevector for the wider ones dense
	// simulation still holds (Monte-Carlo trajectories), "stabilizer" for
	// Clifford circuits too wide for either.
	Method string
}

// Execute transpiles and runs the circuit on the backend under its noise
// model. Dense simulation is used whenever the routed circuit's active
// footprint fits (see dense for which of its two engines runs);
// all-Clifford circuits fall back to the tableau engine at
// any width. Non-Clifford circuits wider than dense limits are rejected —
// exactly the regime where the paper's canary method is the only option.
//
// What precedes the shots is memoised (see prepared), so a warm execution
// is a memo read and a draw. Execute reads b as immutable — a recalibrated
// device is a new *device.Backend, as the cluster state decodes new bytes
// into one — and b must be heap-allocated, as every backend built at run
// time is.
func (e Estimator) Execute(c *circuit.Circuit, b *device.Backend) (*Execution, error) {
	if e.Shots <= 0 {
		return nil, fmt.Errorf("fidelity: Execute needs positive Shots")
	}
	p, err := e.prepared(c, b)
	if err != nil {
		return nil, err
	}
	ex := &Execution{
		TranspiledQASM: qasm.Named(p.qasm, c.Name),
		Gates:          p.gates,
		CX:             p.cx,
		Depth:          p.depth,
		AddedSwaps:     p.swaps,
	}
	compact, model := p.compact, p.model
	switch {
	case compact.NumQubits <= e.denseLimit():
		if ex.Counts, ex.Fidelity, ex.Method, err = e.dense(compact, model); err != nil {
			return nil, err
		}
	case compact.IsClifford():
		ex.Method = "stabilizer"
		if ex.Counts, err = (stabilizer.Runner{Model: model, Shots: e.Shots, Seed: e.Seed, Context: e.Context}).Counts(compact); err != nil {
			return nil, err
		}
		ideal, err := stabilizer.NewIdeal(compact)
		if err != nil {
			return nil, err
		}
		if ex.Fidelity, err = hellingerExact(ex.Counts, ideal.Probability); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf(
			"fidelity: circuit touches %d qubits after routing — too wide for dense simulation and not Clifford",
			compact.NumQubits)
	}
	return ex, nil
}

// prepared is what Execute derives from a (circuit, device, transpiler
// options) before it draws: the compact circuit and its noise model, and
// the figures the record reports of the transpiled circuit, which itself
// is dumped and dropped. It is shared and read-only.
type prepared struct {
	compact *circuit.Circuit
	model   *noise.Model

	// The transpiled circuit as qasm.Dump writes it unnamed, and its figures.
	qasm                    string
	gates, cx, depth, swaps int
}

// preparedKey names a preparation. The device is held weakly, so the memo
// never keeps a replaced device alive: a new device is a new key, and the
// dead one's entry ages out.
type preparedKey struct {
	circuit [sha256.Size]byte // exactDigest(c, nil): the content, not the name
	device  weak.Pointer[device.Backend]
	options transpile.Options
}

// maxPrepared bounds the memo. An entry holds a compact circuit and the
// text of the transpiled one, a few KB for a light job. The steady-warm
// benchmark's six families on its fleet make 43 distinct keys in a run;
// a cold job's key never recurs, so a larger cap only holds more of those.
const maxPrepared = 64

// preparations memoises prepared across calls and goroutines. No result
// depends on what it holds, so one memo serves the process.
var preparations = memo.NewShared[preparedKey, *prepared]("fidelity.prepared", maxPrepared)

// prepared returns c's preparation for b, from the memo when it holds one.
// The circuit's name is left out of it, so every job of one circuit shares
// it; Execute names the transpiled text.
func (e Estimator) prepared(c *circuit.Circuit, b *device.Backend) (*prepared, error) {
	key := preparedKey{exactDigest(c, nil), weak.Make(b), e.Transpile}
	return preparations.Load(key, func() (*prepared, error) {
		unnamed := *c
		unnamed.Name = ""
		tr, compact, active, err := e.prepare(&unnamed, b)
		if err != nil {
			return nil, err
		}
		// A circuit that will not dump still runs; its record carries no text.
		text, _ := qasm.Dump(tr.Circuit)
		return &prepared{
			compact: compact,
			model:   compactModel(b, active),
			qasm:    text,
			gates:   tr.Circuit.Size(),
			cx:      tr.Circuit.CountOps()[circuit.GateCX],
			depth:   tr.Circuit.Depth(),
			swaps:   tr.AddedSwaps,
		}, nil
	})
}

// TopCounts returns the n most frequent outcomes as "bits:count" strings,
// ties broken lexicographically — for compact log lines.
func TopCounts(counts map[string]int, n int) []string {
	type kv struct {
		bits string
		n    int
	}
	all := make([]kv, 0, len(counts))
	for b, c := range counts {
		all = append(all, kv{b, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].bits < all[j].bits
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = fmt.Sprintf("%s:%d", e.bits, e.n)
	}
	return out
}
