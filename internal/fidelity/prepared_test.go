package fidelity_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/memo"
	"qrio/internal/quantum/qasm"
	"qrio/internal/transpile"
)

// preparedLen reads how many preparations the memo holds.
func preparedLen(t *testing.T) int {
	t.Helper()
	for _, s := range memo.Sizes() {
		if s.Name == "fidelity.prepared" {
			return s.Len
		}
	}
	t.Fatal("fidelity.prepared is not a shared memo")
	return 0
}

// TestPreparedHitMatchesMiss: for every steady-warm family on the fleet's
// cleanest and noisiest device, an execution served from the memo of
// preparations — under the same job name or another — records what one
// that missed it records, and its transpiled text is what qasm.Dump writes
// for the freshly transpiled circuit under the job's name.
func TestPreparedHitMatchesMiss(t *testing.T) {
	for i, job := range goldenJobs(t)[:6] {
		for _, b := range extremeDevices(t) {
			est := fidelity.Estimator{Shots: job.shots, Seed: int64(i)}
			named := func(name string) (*fidelity.Execution, string) {
				t.Helper()
				c := *job.c
				c.Name = name
				ex, err := est.Execute(&c, b)
				if err != nil {
					t.Fatal(err)
				}
				m := c.Copy()
				if !m.HasMeasurements() {
					m.MeasureAll()
				}
				tr, err := transpile.Transpile(m, b, est.Transpile)
				if err != nil {
					t.Fatal(err)
				}
				want, err := qasm.Dump(tr.Circuit)
				if err != nil {
					t.Fatal(err)
				}
				return ex, want
			}
			memo.Empty()
			miss, want := named(job.name)
			if miss.TranspiledQASM != want {
				t.Fatalf("%s on %s: the recorded text is not the dump of the transpiled circuit", job.name, b.Name)
			}
			hit, _ := named(job.name)
			if n := preparedLen(t); n != 1 {
				t.Fatalf("%s on %s: the memo holds %d preparations after two runs, want 1", job.name, b.Name, n)
			}
			if !reflect.DeepEqual(hit, miss) {
				t.Fatalf("%s on %s: a hit records\n%+v\na miss\n%+v", job.name, b.Name, hit, miss)
			}
			renamed, want := named("another-" + job.name)
			if renamed.TranspiledQASM != want || renamed.Gates != miss.Gates || renamed.Depth != miss.Depth {
				t.Fatalf("%s on %s: a hit under another name does not record its own", job.name, b.Name)
			}
			if n := preparedLen(t); n != 1 {
				t.Fatalf("%s on %s: a new name missed the memo", job.name, b.Name)
			}
		}
	}
}

// TestNewBackendMissesPrepared: a device decoded from bytes — a node's
// re-registration or recalibration — is a new key, even when the bytes are
// equal; a recalibrated one executes as it does from an empty memo.
func TestNewBackendMissesPrepared(t *testing.T) {
	job := goldenJobs(t)[0]
	b := extremeDevices(t)[0]
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(scale float64) *device.Backend {
		t.Helper()
		var d device.Backend
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatal(err)
		}
		for q := range d.OneQubitErr {
			d.OneQubitErr[q] *= scale
			d.ReadoutErr[q] *= scale
		}
		return &d
	}
	est := fidelity.Estimator{Shots: job.shots, Seed: 9}
	execute := func(d *device.Backend) string {
		t.Helper()
		ex, err := est.Execute(job.c, d)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %v", ex.Fidelity, ex.Counts)
	}
	memo.Empty()
	before := execute(decode(1))
	if same := execute(decode(1)); same != before || preparedLen(t) != 2 {
		t.Fatalf("equal bytes decoded anew: %q (memo %d), want %q from a second preparation", same, preparedLen(t), before)
	}
	recalibrated := decode(3)
	warm := execute(recalibrated)
	memo.Empty()
	if cold := execute(recalibrated); warm != cold || warm == before {
		t.Fatalf("recalibrated device: %q with the memo full, %q from empty, %q before", warm, cold, before)
	}
}

// TestPreparedResultsShareNothingMutable: two executions served from one
// preparation hand out their own counts — writing one record leaves the
// next untouched.
func TestPreparedResultsShareNothingMutable(t *testing.T) {
	job := goldenJobs(t)[1]
	b := extremeDevices(t)[0]
	est := fidelity.Estimator{Shots: job.shots, Seed: 4}
	first, err := est.Execute(job.c, b)
	if err != nil {
		t.Fatal(err)
	}
	counts := fmt.Sprint(first.Counts)
	for k := range first.Counts {
		first.Counts[k] = -1
	}
	first.Counts["tampered"] = 1
	second, err := est.Execute(job.c, b)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(second.Counts) != counts {
		t.Fatalf("a write to one record reached the next: counts %v", second.Counts)
	}
}
