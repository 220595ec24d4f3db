package transpile_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"testing"

	"qrio/internal/device"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/clifford"
	"qrio/internal/quantum/qasm"
	"qrio/internal/simload"
	"qrio/internal/transpile"
	"qrio/internal/workload"
)

// transpileGoldenSHA256 is the digest of every Transpile result — both
// layouts, the swap count, PerfectLayout and every output gate's %#v, or the
// error text — for the circuits of goldenCircuits on every device of the
// default 100-device fleet under three option sets, each transpiled twice
// (the second call replays a memoised route plan). It was generated at the
// commit before route plans were memoised, when every call routed afresh,
// so it pins "a replayed plan emits exactly what routing did".
const transpileGoldenSHA256 = "aa216bda57c5c9c84b18f397d5c28cd486ccbcadf1a95210cf2049ccade13cb2"

// goldenCircuits: the six steady-warm families parsed from their QASM as a
// kubelet does, QFT-8, BV-10 and canary members of three QAOA rings.
func goldenCircuits(t *testing.T) []*circuit.Circuit {
	lib, err := simload.DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	var cs []*circuit.Circuit
	for _, name := range []string{"ghz", "hsp", "rep", "qft", "grover", "circ"} {
		fam, ok := lib[name]
		if !ok {
			t.Fatalf("family %q missing from simload.DefaultLibrary", name)
		}
		c, err := qasm.Parse(fam.QASM)
		if err != nil {
			t.Fatal(err)
		}
		c.Name = "warm-" + name
		cs = append(cs, c)
	}
	cs = append(cs, workload.QFT(8), workload.BernsteinVazirani(10, 0b101101101))
	for seed := int64(1); seed <= 3; seed++ {
		for k, m := range clifford.Ensemble(workload.QAOARing(5, 1, seed).Decompose(), 5, seed) {
			m.Name = fmt.Sprintf("qaoa-%d-canary-%d", seed, k)
			cs = append(cs, m)
		}
	}
	return cs
}

// writeResult renders one Transpile outcome in full.
func writeResult(w io.Writer, res *transpile.Result, err error) {
	if err != nil {
		fmt.Fprintf(w, " error: %v\n", err)
		return
	}
	c := res.Circuit
	fmt.Fprintf(w, " %q %d %d init=%v final=%v swaps=%d perfect=%t\n", c.Name, c.NumQubits, c.NumClbits,
		res.InitialLayout, res.FinalLayout, res.AddedSwaps, res.PerfectLayout)
	for _, g := range c.Gates {
		fmt.Fprintf(w, "  %#v\n", g)
	}
}

// TestTranspileGolden: Transpile over the default fleet is byte-identical
// to the committed golden, on a first call and on a repeat. Set
// QRIO_GOLDEN_DUMP to a file path to write every result for diffing two
// commits.
func TestTranspileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("transpiles 23 circuits on 100 devices, six times each")
	}
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var w io.Writer = h
	if path := os.Getenv("QRIO_GOLDEN_DUMP"); path != "" {
		dump, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer dump.Close()
		w = io.MultiWriter(h, dump)
	}
	opts := []transpile.Options{{}, {SkipOptimize: true}, {DisableVF2Layout: true}}
	ok := 0
	for _, c := range goldenCircuits(t) {
		for _, b := range fleet {
			for o, opt := range opts {
				for pass := 0; pass < 2; pass++ {
					fmt.Fprintf(w, "%s %s opts=%d pass=%d", c.Name, b.Name, o, pass)
					res, err := transpile.Transpile(c, b, opt)
					if err == nil {
						ok++
					}
					writeResult(w, res, err)
				}
			}
		}
	}
	if ok < 10000 {
		t.Fatalf("only %d transpiles succeeded — the golden would pin error strings, not routing", ok)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != transpileGoldenSHA256 {
		t.Fatalf("transpile digest = %s, want %s", got, transpileGoldenSHA256)
	}
}
