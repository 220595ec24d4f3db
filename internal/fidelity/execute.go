package fidelity

import (
	"fmt"
	"sort"

	"qrio/internal/device"
	"qrio/internal/mapomatic"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/stabilizer"
	"qrio/internal/quantum/statevec"
	"qrio/internal/transpile"
)

// Execution is the record of actually running a circuit on a (simulated)
// device — what a QRIO node produces for the job logs (Fig. 5).
type Execution struct {
	// Counts is the measured histogram over the classical register.
	Counts map[string]int
	// Fidelity is the Hellinger fidelity against the ideal distribution.
	Fidelity float64
	// Transpiled is the full device-sized executable that ran.
	Transpiled *circuit.Circuit
	// ActiveQubits lists the physical qubits the executable touched.
	ActiveQubits []int
	// AddedSwaps is the routing overhead.
	AddedSwaps int
	// Method names the simulation engine used: "statevector" for dense
	// simulation, "stabilizer" for Clifford circuits too wide for it.
	Method string
}

// Execute transpiles and runs the circuit on the backend under its noise
// model. Dense simulation is used whenever the routed circuit's active
// footprint fits; all-Clifford circuits fall back to the tableau engine at
// any width. Non-Clifford circuits wider than dense limits are rejected —
// exactly the regime where the paper's canary method is the only option.
func (e Estimator) Execute(c *circuit.Circuit, b *device.Backend) (*Execution, error) {
	if e.Shots <= 0 {
		return nil, fmt.Errorf("fidelity: Execute needs positive Shots")
	}
	tr, err := transpile.Transpile(ensureMeasured(c), b, e.Transpile)
	if err != nil {
		return nil, err
	}
	compact, active, err := mapomatic.Deflate(tr.Circuit)
	if err != nil {
		return nil, err
	}
	model := compactModel(b, active)
	ex := &Execution{
		Transpiled:   tr.Circuit,
		ActiveQubits: active,
		AddedSwaps:   tr.AddedSwaps,
	}
	switch {
	case compact.NumQubits <= e.denseLimit():
		ex.Method = "statevector"
		counts, ideal, err := statevec.Noisy{Model: model, Shots: e.Shots, Seed: e.Seed}.CountsAndIdeal(compact)
		if err != nil {
			return nil, err
		}
		ex.Counts = counts
		ex.Fidelity = HellingerCounts(ideal, counts)
	case compact.IsClifford():
		ex.Method = "stabilizer"
		counts, err := stabilizer.Runner{Model: model, Shots: e.Shots, Seed: e.Seed}.Counts(compact)
		if err != nil {
			return nil, err
		}
		ex.Counts = counts
		ideal, err := stabilizer.NewIdeal(compact)
		if err != nil {
			return nil, err
		}
		if ex.Fidelity, err = hellingerExact(counts, ideal.Probability); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf(
			"fidelity: circuit touches %d qubits after routing — too wide for dense simulation and not Clifford",
			compact.NumQubits)
	}
	return ex, nil
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
