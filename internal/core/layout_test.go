package core_test

import (
	"testing"

	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/quantum/qasm"
	"qrio/internal/simload"
)

// TestMetaAndKubeletRouteAlike: on every device of the default fleet, each
// steady-warm family transpiles on the Meta Server's device (what its
// ranking scores) to the text the node's kubelet records for the device it
// decodes from the node object (what it executes): the same layout and the
// same routing.
func TestMetaAndKubeletRouteAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("transpiles six circuits on 100 devices twice")
	}
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(core.Config{Backends: fleet})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := simload.DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	est := fidelity.Estimator{Shots: 1}
	for _, family := range []string{"ghz", "hsp", "rep", "qft", "grover", "circ"} {
		c, err := qasm.Parse(lib[family].QASM)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range fleet {
			if b.NumQubits < c.NumQubits {
				continue
			}
			scored, err := q.Meta.Backend(b.Name)
			if err != nil {
				t.Fatal(err)
			}
			run, err := q.State.Backend(b.Name)
			if err != nil {
				t.Fatal(err)
			}
			meta, err := est.Execute(c, scored)
			if err != nil {
				t.Fatal(err)
			}
			kubelet, err := est.Execute(c, run)
			if err != nil {
				t.Fatal(err)
			}
			if meta.TranspiledQASM != kubelet.TranspiledQASM {
				t.Fatalf("%s on %s: Meta's device transpiles to\n%s\nthe kubelet's to\n%s",
					family, b.Name, meta.TranspiledQASM, kubelet.TranspiledQASM)
			}
		}
	}
}
