package qasm

import (
	"fmt"
	"strings"

	"qrio/internal/quantum/circuit"
)

// header opens every text Dump writes.
const header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"

// nameLine is the comment naming a circuit that Dump writes after header,
// empty for a circuit without a name.
func nameLine(name string) string {
	if name == "" {
		return ""
	}
	return "// circuit: " + strings.ReplaceAll(name, "\n", " ") + "\n"
}

// Named returns what Dump writes for a circuit named name, given what it
// wrote for the same circuit without a name — so one dump serves every
// name. Any other text comes back as it is.
func Named(unnamed, name string) string {
	rest, ok := strings.CutPrefix(unnamed, header)
	if !ok || name == "" {
		return unnamed
	}
	return header + nameLine(name) + rest
}

// Dump renders a circuit as OpenQASM 2.0 source with a single quantum
// register q and classical register c. The output round-trips through Parse.
func Dump(c *circuit.Circuit) (string, error) {
	if err := c.Validate(); err != nil {
		return "", fmt.Errorf("qasm: cannot dump invalid circuit: %w", err)
	}
	var b strings.Builder
	b.WriteString(header)
	b.WriteString(nameLine(c.Name))
	if c.NumQubits > 0 {
		fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	}
	if c.NumClbits > 0 {
		fmt.Fprintf(&b, "creg c[%d];\n", c.NumClbits)
	}
	for _, g := range c.Gates {
		line, err := dumpGate(g)
		if err != nil {
			return "", err
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func dumpGate(g circuit.Gate) (string, error) {
	switch g.Name {
	case circuit.GateMeasure:
		return fmt.Sprintf("measure q[%d] -> c[%d];", g.Qubits[0], g.Clbits[0]), nil
	case circuit.GateBarrier:
		if len(g.Qubits) == 0 {
			return "barrier q;", nil
		}
		parts := make([]string, len(g.Qubits))
		for i, q := range g.Qubits {
			parts[i] = fmt.Sprintf("q[%d]", q)
		}
		return "barrier " + strings.Join(parts, ",") + ";", nil
	case circuit.GateReset:
		return fmt.Sprintf("reset q[%d];", g.Qubits[0]), nil
	}
	if !circuit.KnownGate(g.Name) {
		return "", fmt.Errorf("qasm: cannot dump unknown gate %q", g.Name)
	}
	var b strings.Builder
	b.WriteString(g.Name)
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.17g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	b.WriteByte(';')
	return b.String(), nil
}
