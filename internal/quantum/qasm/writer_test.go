package qasm

import (
	"strings"
	"testing"

	"qrio/internal/quantum/circuit"
)

func TestDumpRejectsInvalidCircuit(t *testing.T) {
	c := &circuit.Circuit{NumQubits: 1}
	c.Gates = append(c.Gates, circuit.Gate{Name: "h", Qubits: []int{5}})
	if _, err := Dump(c); err == nil {
		t.Fatal("invalid circuit dumped")
	}
}

func TestDumpEmptyCircuit(t *testing.T) {
	c := &circuit.Circuit{}
	s, err := Dump(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "OPENQASM 2.0;") {
		t.Fatalf("header missing:\n%s", s)
	}
	if strings.Contains(s, "qreg") {
		t.Fatalf("zero-qubit circuit declared a register:\n%s", s)
	}
	if _, err := Parse(s); err != nil {
		t.Fatalf("empty dump does not re-parse: %v", err)
	}
}

func TestDumpIncludesNameComment(t *testing.T) {
	c := circuit.New(1)
	c.Name = "my-job\ninjected"
	c.H(0)
	s, err := Dump(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "// circuit: my-job injected") {
		t.Fatalf("name comment missing or newline not sanitised:\n%s", s)
	}
	if _, err := Parse(s); err != nil {
		t.Fatalf("named dump does not re-parse: %v", err)
	}
}

func TestDumpResetAndMeasure(t *testing.T) {
	c := circuit.New(2)
	c.Reset(0)
	c.H(0)
	c.Measure(0, 1)
	s, err := Dump(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "reset q[0];") {
		t.Errorf("reset missing:\n%s", s)
	}
	if !strings.Contains(s, "measure q[0] -> c[1];") {
		t.Errorf("measure mapping missing:\n%s", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	qs, cs := back.MeasuredQubits()
	if len(qs) != 1 || qs[0] != 0 || cs[0] != 1 {
		t.Fatalf("measure mapping lost: %v -> %v", qs, cs)
	}
}

func TestDumpIdempotent(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.U3(1, 0.1, 0.2, 0.3)
	c.CX(0, 2)
	c.MeasureAll()
	s1, err := Dump(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Dump(back)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("dump not idempotent:\n%s\nvs\n%s", s1, s2)
	}
}

func TestLexerScientificAndStrings(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[2];
u1(1.5e+2) q[0];
u1(2E-3) q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Params[0] != 150 {
		t.Errorf("1.5e+2 = %v", c.Gates[0].Params[0])
	}
	if c.Gates[1].Params[0] != 0.002 {
		t.Errorf("2E-3 = %v", c.Gates[1].Params[0])
	}
	if _, err := Parse("OPENQASM 2.0;\ninclude \"unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Parse("OPENQASM 2.0;\nqreg q[1];\nh q[0]; @"); err == nil {
		t.Error("stray character accepted")
	}
}
