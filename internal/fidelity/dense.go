package fidelity

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/statevec"
)

// The dense engines, as Execution.Method names them.
const (
	MethodDensityMatrix = "density_matrix" // statevec.Exact's distribution, then a draw
	MethodStatevector   = "statevector"    // statevec.Noisy's Monte-Carlo trajectories
)

// dense runs a compact circuit under model on a dense engine and returns
// its counts, their Hellinger fidelity to its ideal distribution and the
// engine's name. A circuit statevec.Exactable takes is one exact
// distribution, memoised per (circuit, model), and a draw of the shots;
// the rest run as trajectories. The choice reads the circuit alone, so
// counts stay a function of (circuit, model, Shots, Seed) whatever the
// memo holds.
func (e Estimator) dense(c *circuit.Circuit, model *noise.Model) (map[string]int, float64, string, error) {
	if statevec.Exactable(c) {
		d, err := exacts.Load(exactDigest(c, model), func() (*statevec.Distribution, error) { return statevec.Exact(c, model) })
		if err != nil {
			return nil, 0, "", err
		}
		counts := d.Sample(e.Shots, e.Seed)
		f, err := hellingerExact(counts, d.IdealProb)
		return counts, f, MethodDensityMatrix, err
	}
	counts, ideal, err := statevec.Noisy{Model: model, Shots: e.Shots, Seed: e.Seed, Context: e.Context}.CountsAndIdeal(c)
	if err != nil {
		return nil, 0, "", err
	}
	return counts, HellingerCounts(ideal, counts), MethodStatevector, nil
}

// maxExacts bounds the memo. A distribution is at most 4 KiB (two floats
// per outcome of at most 8 measurements, a 5-qubit one 0.6 KiB), so a full
// memo is at most a megabyte; the steady-warm families need a few dozen,
// and a cold job's key never recurs.
const maxExacts = 256

// exacts memoises exact distributions, keyed by the digest of everything
// they read, across calls and goroutines. No result depends on what it
// holds, so one memo serves the process.
var exacts = memo.NewShared[[sha256.Size]byte, *statevec.Distribution]("fidelity.exacts", maxExacts)

// exactDigest digests what statevec.Exact reads: c's register sizes and
// every gate's name, operands and angles — not the circuit's name, which a
// kubelet sets to the job's — and every rate of the model, its pairs in
// sorted order. With a nil model it digests the circuit alone.
func exactDigest(c *circuit.Circuit, m *noise.Model) [sha256.Size]byte {
	buf := make([]byte, 0, 1024)
	ints := func(vs ...int) {
		buf = binary.AppendUvarint(buf, uint64(len(vs)))
		for _, v := range vs {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	floats := func(fs ...float64) {
		buf = binary.AppendUvarint(buf, uint64(len(fs)))
		for _, f := range fs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	ints(c.NumQubits, c.NumClbits)
	for _, g := range c.Gates {
		buf = append(append(buf, g.Name...), 0)
		ints(g.Qubits...)
		ints(g.Clbits...)
		floats(g.Params...)
	}
	if m != nil {
		ints(m.NumQubits)
		floats(m.OneQubit...)
		floats(m.Readout...)
		floats(m.TwoQubitDefault)
		for _, pair := range slices.SortedFunc(maps.Keys(m.TwoQubit), func(a, b [2]int) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		}) {
			ints(pair[:]...)
			floats(m.TwoQubit[pair])
		}
	}
	return sha256.Sum256(buf)
}
