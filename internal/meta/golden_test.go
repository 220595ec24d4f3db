package meta_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/meta"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

// fleetGoldenSHA256 is the digest of every canary score — as
// math.Float64bits, so not one ulp may move — of the six paper circuits and
// three QAOARing(5,1,·) instances over the default 100-device fleet. It was
// generated at the commit before the compiled tableau engine and the
// per-fingerprint preparation landed (with only the two determinism fixes
// applied: sorted interaction-graph edges, sorted-key float sums), so it
// pins "the faster engine scores exactly what the old one did".
const fleetGoldenSHA256 = "0f94db6a6a3d7787a974ebd0d518602cdb2f2d8834741a6f02f5edb3e54b2217"

func goldenCircuits() []*circuit.Circuit {
	var out []*circuit.Circuit
	for _, pc := range workload.PaperCircuits() {
		out = append(out, pc.Circuit)
	}
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out, workload.QAOARing(5, 1, seed))
	}
	return out
}

// TestFleetScoreGolden: ScoreBatch over the default fleet is bit-identical
// to the committed golden. Set QRIO_GOLDEN_DUMP to a file path to write
// every (circuit, device, score bits) line for diffing two commits.
func TestFleetScoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 9 circuits over 100 devices")
	}
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := meta.NewServer(meta.Options{})
	names := make([]string, len(fleet))
	for i, b := range fleet {
		if err := s.RegisterBackend(b); err != nil {
			t.Fatal(err)
		}
		names[i] = b.Name
	}
	h := sha256.New()
	var dump *os.File
	if path := os.Getenv("QRIO_GOLDEN_DUMP"); path != "" {
		if dump, err = os.Create(path); err != nil {
			t.Fatal(err)
		}
		defer dump.Close()
	}
	for i, c := range goldenCircuits() {
		src, err := qasm.Dump(c)
		if err != nil {
			t.Fatal(err)
		}
		job := fmt.Sprintf("golden-%d", i)
		if err := s.PutJobMeta(meta.JobMeta{JobName: job, Strategy: api.StrategyFidelity,
			TargetFidelity: 1, CircuitQASM: src}); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.ScoreBatch(job, names, 0) {
			line := fmt.Sprintf("%d %s %016x %s\n", i, r.Backend, math.Float64bits(r.Score), r.Error)
			h.Write([]byte(line))
			if dump != nil {
				dump.WriteString(line)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetGoldenSHA256 {
		t.Fatalf("fleet score digest = %s, want %s", got, fleetGoldenSHA256)
	}
}
