// Package transpile rewrites logical circuits into executables that respect
// a device's qubit connectivity and native gate set — the six broad stages
// the paper attributes to the Qiskit transpiler (§2.3): gate decomposition,
// placement on physical qubits, routing on the restricted topology,
// translation to basis gates, and physical-circuit optimisation.
//
// Placement and routing read only the circuit's two-qubit skeleton (its
// register size and the ordered pairs of its two-qubit gates), the coupling
// graph and the Options — never an error rate. So route builds a plan (the
// layout and the swaps before each two-qubit gate) once per (skeleton,
// coupling digest, Options), kept in a bounded memo, and replay is the one
// code path that emits routed gates. Canary members share a skeleton, and a
// recalibrated backend keeps its coupling map, so they share plans.
package transpile

import (
	"fmt"
	"slices"

	"qrio/internal/device"
	"qrio/internal/quantum/circuit"
)

// Options tunes the pipeline. The zero value gives the default pipeline.
type Options struct {
	// DisableVF2Layout skips the perfect-embedding layout search
	// (ablation: greedy placement only).
	DisableVF2Layout bool
	// SkipOptimize disables the peephole optimisation stage.
	SkipOptimize bool
}

// Result is a transpiled circuit plus its qubit mappings.
type Result struct {
	// Circuit acts on the device's physical qubits and uses only the
	// {u1, u2, u3, cx} basis plus measure/barrier/reset.
	Circuit *circuit.Circuit
	// InitialLayout[l] is the physical qubit initially holding logical l.
	InitialLayout []int
	// FinalLayout[l] is the physical qubit holding logical l after routing.
	FinalLayout []int
	// AddedSwaps counts routing swaps inserted (3 cx each).
	AddedSwaps int
	// PerfectLayout reports whether the interaction graph embedded into
	// the coupling map without any routing.
	PerfectLayout bool
}

// Transpile runs the full pipeline for a backend.
func Transpile(c *circuit.Circuit, b *device.Backend, opts Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("transpile: input circuit invalid: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("transpile: backend invalid: %w", err)
	}
	if c.NumQubits > b.NumQubits {
		return nil, fmt.Errorf("transpile: circuit needs %d qubits, device %s has %d",
			c.NumQubits, b.Name, b.NumQubits)
	}
	if !supportsBasis(b) {
		return nil, fmt.Errorf("transpile: device %s basis %v lacks {u1,u2,u3,cx}",
			b.Name, b.BasisGates)
	}

	// Stage 1-2: 3+ qubit gate decomposition, when some gate needs it (the
	// stages below only read c, so a flat c is not copied).
	flat := c
	if slices.ContainsFunc(c.Gates, circuit.Gate.Decomposes) {
		flat = c.Decompose()
	}

	// Stages 3-4: placement and routing, planned once per skeleton and
	// coupling map, replayed here.
	p, err := planFor(flat, b, opts)
	if err != nil {
		return nil, err
	}
	routed, finalLayout, err := p.replay(flat, b)
	if err != nil {
		return nil, err
	}

	// Stage 5: translation to basis gates.
	translated, err := translate(routed)
	if err != nil {
		return nil, err
	}

	// Stage 6: physical circuit optimisation.
	if !opts.SkipOptimize {
		translated = optimize(translated)
	}
	if err := translated.Validate(); err != nil {
		return nil, fmt.Errorf("transpile: produced invalid circuit: %w", err)
	}
	return &Result{
		Circuit:       translated,
		InitialLayout: slices.Clone(p.layout),
		FinalLayout:   finalLayout,
		AddedSwaps:    len(p.swaps),
		PerfectLayout: p.perfect,
	}, nil
}

func supportsBasis(b *device.Backend) bool {
	for _, want := range [...]string{"u1", "u2", "u3", "cx"} {
		if !slices.Contains(b.BasisGates, want) {
			return false
		}
	}
	return true
}
