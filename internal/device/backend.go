// Package device models quantum backends: the calibration surface a QRIO
// vendor must publish for every cluster node (paper §3.1 — the backend.py
// analogue, serialised here as JSON), aggregate labels used by the
// scheduler's filtering phase, and the Table 2 fleet generator used
// throughout the paper's evaluation.
package device

import (
	"encoding/json"
	"fmt"
	"sort"

	"qrio/internal/graph"
	"qrio/internal/quantum/noise"
)

// Backend describes one quantum device (real or simulated). It carries the
// mandatory vendor-supplied calibration of §3.1: coupling map, two-qubit
// and single-qubit error rates, readout error and length, T1/T2 times and
// basis gates — plus the node's classical capacity used for scheduling.
type Backend struct {
	Name      string
	NumQubits int

	Coupling *graph.Graph

	// TwoQubitErr maps each coupling edge (low, high) to its gate error.
	TwoQubitErr map[[2]int]float64
	// OneQubitErr, ReadoutErr, ReadoutLenNS, T1us and T2us are per qubit.
	OneQubitErr  []float64
	ReadoutErr   []float64
	ReadoutLenNS []float64
	T1us         []float64
	T2us         []float64

	BasisGates []string

	// Classical co-resources of the hosting node.
	CPUMillis int64 // CPU capacity in millicores
	MemoryMB  int64
}

// DefaultBasis is the paper's basis gate set (Table 2).
var DefaultBasis = []string{"u1", "u2", "u3", "cx"}

// Validate checks structural consistency.
func (b *Backend) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("device: backend has no name")
	}
	if b.NumQubits <= 0 {
		return fmt.Errorf("device %s: non-positive qubit count", b.Name)
	}
	if b.Coupling == nil || b.Coupling.NumVertices() != b.NumQubits {
		return fmt.Errorf("device %s: coupling map size mismatch", b.Name)
	}
	// Every transpile validates its backend, so the edges are walked where
	// they lie rather than through Edges()'s sorted copy.
	for a := 0; a < b.NumQubits; a++ {
		for _, c := range b.Coupling.Neighbors(a) {
			if a > c {
				continue
			}
			if _, ok := b.TwoQubitErr[[2]int{a, c}]; !ok {
				return fmt.Errorf("device %s: edge %v has no two-qubit error", b.Name, [2]int{a, c})
			}
		}
	}
	names := [...]string{"one-qubit error", "readout error", "readout length", "T1", "T2"}
	for i, s := range [...][]float64{b.OneQubitErr, b.ReadoutErr, b.ReadoutLenNS, b.T1us, b.T2us} {
		if len(s) != b.NumQubits {
			return fmt.Errorf("device %s: %s has %d entries, want %d", b.Name, names[i], len(s), b.NumQubits)
		}
	}
	for e, p := range b.TwoQubitErr {
		if p < 0 || p >= 1 {
			return fmt.Errorf("device %s: edge %v error %g out of [0,1)", b.Name, e, p)
		}
	}
	if len(b.BasisGates) == 0 {
		return fmt.Errorf("device %s: empty basis gate set", b.Name)
	}
	return nil
}

// EdgeError returns the two-qubit error of the (a, b) coupling edge and
// whether the edge exists.
func (b *Backend) EdgeError(a, c int) (float64, bool) {
	e, ok := b.TwoQubitErr[noise.NormPair(a, c)]
	return e, ok
}

// AvgTwoQubitErr is the mean two-qubit error over coupling edges; this is
// the headline label the scheduler filters on (Fig. 10). Edges are summed
// in sorted order so the value is bit-for-bit deterministic.
func (b *Backend) AvgTwoQubitErr() float64 {
	edges := b.Coupling.Edges()
	if len(edges) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range edges {
		s += b.TwoQubitErr[e]
	}
	return s / float64(len(edges))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// AvgOneQubitErr is the mean single-qubit gate error.
func (b *Backend) AvgOneQubitErr() float64 { return mean(b.OneQubitErr) }

// AvgReadoutErr is the mean readout error.
func (b *Backend) AvgReadoutErr() float64 { return mean(b.ReadoutErr) }

// AvgT1us is the mean T1 in microseconds.
func (b *Backend) AvgT1us() float64 { return mean(b.T1us) }

// AvgT2us is the mean T2 in microseconds.
func (b *Backend) AvgT2us() float64 { return mean(b.T2us) }

// NoiseModel converts the calibration into the simulators' noise model.
func (b *Backend) NoiseModel() *noise.Model {
	m := &noise.Model{
		NumQubits:       b.NumQubits,
		OneQubit:        append([]float64(nil), b.OneQubitErr...),
		Readout:         append([]float64(nil), b.ReadoutErr...),
		TwoQubit:        make(map[[2]int]float64, len(b.TwoQubitErr)),
		TwoQubitDefault: 0.99, // off-coupling 2q gates should never happen; make them fatal to fidelity
	}
	for e, p := range b.TwoQubitErr {
		m.TwoQubit[e] = p
	}
	return m
}

// backendJSON is the serialised form — the repo's stand-in for the vendor
// backend.py file that each node and the Meta Server keep (§3.1).
type backendJSON struct {
	Name         string    `json:"name"`
	NumQubits    int       `json:"num_qubits"`
	CouplingMap  [][2]int  `json:"coupling_map"`
	TwoQubitErr  []edgeErr `json:"two_qubit_error"`
	OneQubitErr  []float64 `json:"one_qubit_error"`
	ReadoutErr   []float64 `json:"readout_error"`
	ReadoutLenNS []float64 `json:"readout_length_ns"`
	T1us         []float64 `json:"t1_us"`
	T2us         []float64 `json:"t2_us"`
	BasisGates   []string  `json:"basis_gates"`
	CPUMillis    int64     `json:"cpu_millis"`
	MemoryMB     int64     `json:"memory_mb"`
}

type edgeErr struct {
	A   int     `json:"a"`
	B   int     `json:"b"`
	Err float64 `json:"err"`
}

// MarshalJSON implements json.Marshaler.
func (b *Backend) MarshalJSON() ([]byte, error) {
	j := backendJSON{
		Name:         b.Name,
		NumQubits:    b.NumQubits,
		CouplingMap:  b.Coupling.Edges(),
		OneQubitErr:  b.OneQubitErr,
		ReadoutErr:   b.ReadoutErr,
		ReadoutLenNS: b.ReadoutLenNS,
		T1us:         b.T1us,
		T2us:         b.T2us,
		BasisGates:   b.BasisGates,
		CPUMillis:    b.CPUMillis,
		MemoryMB:     b.MemoryMB,
	}
	edges := make([]edgeErr, 0, len(b.TwoQubitErr))
	for e, p := range b.TwoQubitErr {
		edges = append(edges, edgeErr{A: e[0], B: e[1], Err: p})
	}
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].A != edges[k].A {
			return edges[i].A < edges[k].A
		}
		return edges[i].B < edges[k].B
	})
	j.TwoQubitErr = edges
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Backend) UnmarshalJSON(data []byte) error {
	var j backendJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	g := graph.New(j.NumQubits)
	for _, e := range j.CouplingMap {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return fmt.Errorf("device %s: %w", j.Name, err)
		}
	}
	b.Name = j.Name
	b.NumQubits = j.NumQubits
	b.Coupling = g
	b.TwoQubitErr = make(map[[2]int]float64, len(j.TwoQubitErr))
	for _, e := range j.TwoQubitErr {
		b.TwoQubitErr[noise.NormPair(e.A, e.B)] = e.Err
	}
	b.OneQubitErr = j.OneQubitErr
	b.ReadoutErr = j.ReadoutErr
	b.ReadoutLenNS = j.ReadoutLenNS
	b.T1us = j.T1us
	b.T2us = j.T2us
	b.BasisGates = j.BasisGates
	b.CPUMillis = j.CPUMillis
	b.MemoryMB = j.MemoryMB
	return b.Validate()
}

// String summarises the backend.
func (b *Backend) String() string {
	return fmt.Sprintf("Backend(%s: %dq, %d edges, avg2q=%.3f)",
		b.Name, b.NumQubits, b.Coupling.NumEdges(), b.AvgTwoQubitErr())
}
