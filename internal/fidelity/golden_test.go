package fidelity_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/qasm"
	"qrio/internal/simload"
	"qrio/internal/workload"
)

// executeGoldenSHA256 is the digest of every execution — the fidelity as
// math.Float64bits and the full sorted histogram, so not one shot may land
// elsewhere — of the six steady-warm circuit families and meta's nine
// golden circuits on every device of the default 100-device fleet wide
// enough to hold them. 1,369 of its 1,500 lines are exact distributions and
// a draw (statevec.Exact, which TestExactAgreesWithTrajectories holds to
// the trajectories); the 131 on trajectories — paper-bv, and circ's widest
// routings — are the per-shot interpreter's counts, bit for bit.
const executeGoldenSHA256 = "668fd52d1b45afc17f9764b01af2e20e28c8f4bd59c8a4ced9c31f3d74646272"

// goldenJob is one circuit with the shot count its jobs carry.
type goldenJob struct {
	name  string
	c     *circuit.Circuit
	shots int
}

func goldenJobs(t *testing.T) []goldenJob {
	lib, err := simload.DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	var jobs []goldenJob
	// The steady-warm families, parsed from their QASM as a kubelet does.
	for _, name := range []string{"ghz", "hsp", "rep", "qft", "grover", "circ"} {
		fam, ok := lib[name]
		if !ok {
			t.Fatalf("family %q missing from simload.DefaultLibrary", name)
		}
		c, err := qasm.Parse(fam.QASM)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, goldenJob{"warm-" + name, c, fam.Shots})
	}
	// meta's goldenCircuits(): the six paper circuits, three QAOA rings. Few
	// shots: routed bv spreads over a dozen qubits, and on the fleet's
	// noisy devices every shot of it is a full replay.
	for _, pc := range workload.PaperCircuits() {
		jobs = append(jobs, goldenJob{"paper-" + pc.Name, pc.Circuit, 128})
	}
	for seed := int64(1); seed <= 3; seed++ {
		jobs = append(jobs, goldenJob{fmt.Sprintf("qaoa-%d", seed), workload.QAOARing(5, 1, seed), 128})
	}
	return jobs
}

// TestExecuteGolden: Estimator.Execute over the default fleet is
// bit-identical to the committed golden. Set QRIO_GOLDEN_DUMP to a file
// path to write every (circuit, device, fidelity bits, counts) line for
// diffing two commits.
func TestExecuteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("executes 15 circuits on up to 100 devices each")
	}
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var dump *os.File
	if path := os.Getenv("QRIO_GOLDEN_DUMP"); path != "" {
		if dump, err = os.Create(path); err != nil {
			t.Fatal(err)
		}
		defer dump.Close()
	}
	executed := 0
	for i, job := range goldenJobs(t) {
		for d, b := range fleet {
			if b.NumQubits < job.c.NumQubits {
				continue
			}
			// A kubelet seeds by node and job; any spread of seeds will do.
			est := fidelity.Estimator{Shots: job.shots, Seed: int64(1000*i + d)}
			line := fmt.Sprintf("%s %s", job.name, b.Name)
			ex, err := est.Execute(job.c, b)
			if err != nil {
				line += " error: " + err.Error()
			} else {
				executed++
				keys := make([]string, 0, len(ex.Counts))
				for k, n := range ex.Counts {
					keys = append(keys, fmt.Sprintf("%s:%d", k, n))
				}
				slices.Sort(keys)
				line += fmt.Sprintf(" %s %016x %s", ex.Method, math.Float64bits(ex.Fidelity), strings.Join(keys, ","))
			}
			line += "\n"
			h.Write([]byte(line))
			if dump != nil {
				dump.WriteString(line)
			}
		}
	}
	if executed < 1000 {
		t.Fatalf("only %d executions succeeded — the golden would pin error strings, not engines", executed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != executeGoldenSHA256 {
		t.Fatalf("execution digest = %s, want %s", got, executeGoldenSHA256)
	}
}
