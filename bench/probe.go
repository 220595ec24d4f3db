package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/wal"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/mapomatic"
	"qrio/internal/master"
	"qrio/internal/meta"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/clifford"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/qasm"
	"qrio/internal/quantum/stabilizer"
	"qrio/internal/quantum/statevec"
	"qrio/internal/registry"
	"qrio/internal/sched"
	"qrio/internal/transpile"
	"qrio/internal/workload"
)

// The probe phase of the traced run calls each layer's exported functions
// directly on a sample of the workload's own inputs. Cheap calls are made
// probeCalls times; calls that cost milliseconds are made until probeSlice
// has elapsed (at least probeMin times), so the whole phase stays inside
// the run's time budget. Every probe reports the median call.
const (
	probeCalls = 200
	probeMin   = 2
	probeSlice = 200 * time.Millisecond
)

// timeCalls reports the median duration of fn over n calls (i is the call
// index), stopping early — but not before probeMin calls — once slice has
// elapsed.
func timeCalls(n int, slice time.Duration, fn func(i int) error) (time.Duration, error) {
	samples := make([]float64, 0, n)
	began := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0)))
		if i+1 >= probeMin && time.Since(began) > slice {
			break
		}
	}
	return time.Duration(median(samples)), nil
}

// probeInputs is the sample of the workload the probes run on.
type probeInputs struct {
	reqs     []client.SubmitRequest // window requests, in order
	circuits []*circuit.Circuit     // parsed, aligned with reqs
	fleet    []*device.Backend
}

func newProbeInputs(p *plan) (*probeInputs, error) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		return nil, err
	}
	in := &probeInputs{fleet: fleet}
	for i := 0; i < len(p.Window) && i < probeCalls; i++ {
		c, err := qasm.Parse(p.Window[i].Req.QASM)
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, p.Window[i].Req)
		in.circuits = append(in.circuits, c)
	}
	if len(in.reqs) == 0 {
		return nil, fmt.Errorf("workload has no window requests to probe with")
	}
	return in, nil
}

// hostFor picks a backend wide enough for request i, rotating through the
// fleet so probes do not all land on one calibration.
func (in *probeInputs) hostFor(i int) *device.Backend {
	need := in.circuits[i%len(in.circuits)].NumQubits
	for k := 0; k < len(in.fleet); k++ {
		b := in.fleet[(i+k)%len(in.fleet)]
		if b.NumQubits >= need {
			return b
		}
	}
	return in.fleet[len(in.fleet)-1]
}

// renamed returns request i under a fresh job name.
func (in *probeInputs) renamed(i int, prefix string) client.SubmitRequest {
	r := in.reqs[i%len(in.reqs)]
	r.JobName = fmt.Sprintf("%s-%05d", prefix, i)
	return r
}

// runProbes measures every probe-sourced per-layer metric.
func runProbes(p *plan, scratch string) (map[string]metric, error) {
	in, err := newProbeInputs(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metric)
	put := func(name, unit string, d time.Duration, err error) error {
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		if unit == "us" {
			out[name] = metric{us(d), unit}
		} else {
			out[name] = metric{ms(d), unit}
		}
		return nil
	}
	steps := []func() error{
		func() error { return probeMasterRegistry(in, put) },
		func() error { return probeWAL(in, scratch, put) },
		func() error { return probeStateStore(in, put) },
		func() error { return probeSchedMeta(in, put) },
		func() error { return probeEngines(in, put) },
		func() error { return probeKubelet(in, out) },
		func() error { return probeClient(in, put) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type putFunc func(name, unit string, d time.Duration, err error) error

func probeMasterRegistry(in *probeInputs, put putFunc) error {
	st := state.New()
	for _, b := range in.fleet {
		if _, err := st.AddNode(b); err != nil {
			return err
		}
	}
	reg := registry.New()
	srv := master.NewServer(st, reg)
	d, err := timeCalls(probeCalls, time.Second, func(i int) error {
		_, err := srv.Submit(in.renamed(i, "probe-master"))
		return err
	})
	if err := put("master.submit_us", "us", d, err); err != nil {
		return err
	}
	image := func(i int) registry.Image {
		r := in.renamed(i, "probe-reg")
		return registry.Image{Name: "qrio/" + r.JobName + ":latest", Files: map[string][]byte{
			"circuit.qasm": []byte(r.QASM), "runner.json": []byte(`{"shots":1024}`),
		}}
	}
	digests := make([]string, probeCalls)
	push := registry.New()
	d, err = timeCalls(probeCalls, time.Second, func(i int) error {
		var err error
		digests[i], err = push.Push(image(i))
		return err
	})
	if err := put("registry.push_us", "us", d, err); err != nil {
		return err
	}
	d, err = timeCalls(probeCalls, time.Second, func(i int) error {
		_, err := push.Pull(digests[i])
		return err
	})
	return put("registry.pull_us", "us", d, err)
}

func probeWAL(in *probeInputs, scratch string, put putFunc) error {
	path := filepath.Join(scratch, "probe.wal")
	w, err := wal.OpenWriter(path, true)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer w.Close()
	// A WAL record is the JSON of the mutated object; a submitted job's
	// spec is the bulk of it.
	payloads := make([][]byte, len(in.reqs))
	for i, r := range in.reqs {
		if payloads[i], err = json.Marshal(r); err != nil {
			return err
		}
	}
	d, err := timeCalls(probeCalls, time.Second, func(i int) error {
		return w.Append(payloads[i%len(payloads)])
	})
	return put("wal.append_fsync_us", "us", d, err)
}

func probeStateStore(in *probeInputs, put putFunc) error {
	st := state.New()
	for _, b := range in.fleet {
		if _, err := st.AddNode(b); err != nil {
			return err
		}
	}
	srv := master.NewServer(st, registry.New())
	const depth = 200 // a deep queue; the workloads themselves keep it shallow
	for i := 0; i < depth; i++ {
		if _, err := srv.Submit(in.renamed(i, "probe-state")); err != nil {
			return err
		}
	}
	d, err := timeCalls(probeCalls, time.Second, func(int) error {
		if n := len(st.PendingJobsCapped(0)); n != depth {
			return fmt.Errorf("pending snapshot has %d jobs, want %d", n, depth)
		}
		return nil
	})
	if err := put("state.pending_snapshot_us", "us", d, err); err != nil {
		return err
	}
	nodes := st.Nodes.List()
	d, err = timeCalls(probeCalls, time.Second, func(i int) error {
		_, _, err := st.Nodes.Update(nodes[i%len(nodes)].Name, func(n api.Node) (api.Node, error) {
			n.Status.LastHeartbeat = time.Now()
			return n, nil
		})
		return err
	})
	if err := put("store.update_us", "us", d, err); err != nil {
		return err
	}
	// One bind per node (a node holds one container), so at most
	// len(fleet) binds per state; 100 here.
	wide := make([]string, 0, len(in.fleet))
	for _, b := range in.fleet {
		if b.NumQubits >= 10 {
			wide = append(wide, b.Name)
		}
	}
	d, err = timeCalls(len(wide), time.Second, func(i int) error {
		return st.BindJobAt(fmt.Sprintf("probe-state-%05d", i), wide[i], 0.5, 0)
	})
	return put("state.bind_us", "us", d, err)
}

func probeSchedMeta(in *probeInputs, put putFunc) error {
	srv := meta.NewServer(meta.Options{})
	st := state.New()
	names := make([]string, len(in.fleet))
	for i, b := range in.fleet {
		if err := srv.RegisterBackend(b); err != nil {
			return err
		}
		if _, err := st.AddNode(b); err != nil {
			return err
		}
		names[i] = b.Name
	}
	nodes := st.Nodes.List()
	putMeta := func(jobName string, r client.SubmitRequest) error {
		return srv.PutJobMeta(meta.JobMeta{JobName: jobName, Strategy: api.StrategyFidelity,
			TargetFidelity: 1, CircuitQASM: r.QASM})
	}
	jobFor := func(jobName string, r client.SubmitRequest) api.QuantumJob {
		return api.QuantumJob{ObjectMeta: api.ObjectMeta{Name: jobName}, Spec: api.JobSpec{
			QASM: r.QASM, Shots: r.Shots, Strategy: api.StrategyFidelity, TargetFidelity: 1,
			Requirements: api.DeviceRequirements{MinQubits: max(r.Requirements.MinQubits, 1)},
		}}
	}

	// Cold: a whole-fleet sweep of a fingerprint the cache has never seen.
	// Each probe circuit gets distinct QAOA angles so it cannot hit.
	coldReq := func(i int) (client.SubmitRequest, error) {
		src, err := qasm.Dump(workload.QAOARing(5, 1, 900_000_000+int64(i)))
		return client.SubmitRequest{QASM: src}, err
	}
	d, err := timeCalls(2, 0, func(i int) error {
		r, err := coldReq(i)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("probe-sweep-%d", i)
		if err := putMeta(name, r); err != nil {
			return err
		}
		for _, res := range srv.ScoreBatch(name, names, 0) {
			if res.Error != "" {
				return fmt.Errorf("%s", res.Error)
			}
		}
		return nil
	})
	if err := put("meta.sweep_ms", "ms", d, err); err != nil {
		return err
	}
	d, err = timeCalls(40, probeSlice, func(i int) error {
		r, err := coldReq(100 + i)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("probe-miss-%d", i)
		if err := putMeta(name, r); err != nil {
			return err
		}
		_, err = srv.Score(name, names[i%len(names)])
		return err
	})
	if err := put("meta.score_miss_ms", "ms", d, err); err != nil {
		return err
	}

	// Warm: the workload's own first request, fully cached by one sweep.
	warm := in.reqs[0]
	if err := putMeta("probe-warm", warm); err != nil {
		return err
	}
	srv.ScoreBatch("probe-warm", names, 0)
	d, err = timeCalls(probeCalls*5, time.Second, func(i int) error {
		_, err := srv.Score("probe-warm", names[i%len(names)])
		return err
	})
	if err := put("meta.score_hit_us", "us", d, err); err != nil {
		return err
	}
	fw := sched.NewFramework(sched.MetaScore{Scorer: srv}, sched.DefaultFilters()...)
	job := jobFor("probe-warm", warm)
	d, err = timeCalls(probeCalls, time.Second, func(int) error {
		_, err := fw.Rank(job, nodes)
		return err
	})
	if err := put("sched.rank_warm_ms", "ms", d, err); err != nil {
		return err
	}
	d, err = timeCalls(probeCalls, time.Second, func(i int) error {
		fw.FilterNodes(jobFor("probe-filter", in.reqs[i%len(in.reqs)]), nodes)
		return nil
	})
	return put("sched.filter_us", "us", d, err)
}

func probeEngines(in *probeInputs, put putFunc) error {
	est := fidelity.Estimator{Shots: 2048, Seed: 1} // the Meta Server's default
	d, err := timeCalls(40, probeSlice, func(i int) error {
		_, err := est.CanaryFidelity(in.circuits[i%len(in.circuits)], in.hostFor(i))
		return err
	})
	if err := put("fidelity.canary_ms", "ms", d, err); err != nil {
		return err
	}
	d, err = timeCalls(40, 2*probeSlice, func(i int) error {
		exec := fidelity.Estimator{Shots: in.reqs[i%len(in.reqs)].Shots, Seed: int64(i)}
		_, err := exec.Execute(in.circuits[i%len(in.circuits)], in.hostFor(i))
		return err
	})
	if err := put("fidelity.execute_ms", "ms", d, err); err != nil {
		return err
	}
	d, err = timeCalls(probeCalls, probeSlice, func(i int) error {
		_, err := transpile.Transpile(in.circuits[i%len(in.circuits)], in.hostFor(i), transpile.Options{})
		return err
	})
	if err := put("transpile.transpile_ms", "ms", d, err); err != nil {
		return err
	}
	topo, err := qasm.Parse(in.lineTopology())
	if err != nil {
		return err
	}
	d, err = timeCalls(probeCalls, probeSlice, func(i int) error {
		_, err := mapomatic.BestLayout(topo, in.fleet[i%len(in.fleet)], mapomatic.Options{})
		return err
	})
	if err := put("mapomatic.best_layout_ms", "ms", d, err); err != nil {
		return err
	}

	// The simulators on what they are fed in production: the circuit
	// routed to a device and deflated to the qubits it touches, under that
	// device's (here: averaged) noise. The tableau engine runs the
	// Cliffordised canary at a canary member's shot budget; the dense
	// engine runs the job itself at its own shots.
	type prepared struct {
		compact *circuit.Circuit
		model   *noise.Model
	}
	prepare := func(c *circuit.Circuit, b *device.Backend) (prepared, error) {
		tr, err := transpile.Transpile(c, b, transpile.Options{})
		if err != nil {
			return prepared{}, err
		}
		compact, active, err := mapomatic.Deflate(tr.Circuit)
		if err != nil {
			return prepared{}, err
		}
		return prepared{compact, noise.Uniform(len(active), b.AvgOneQubitErr(), b.AvgTwoQubitErr(), b.AvgReadoutErr())}, nil
	}
	n := min(len(in.circuits), 20)
	canaries := make([]prepared, n)
	dense := make([]prepared, n)
	for i := 0; i < n; i++ {
		c := in.circuits[i]
		if canaries[i], err = prepare(clifford.Canary(c.Decompose()), in.hostFor(i)); err != nil {
			return err
		}
		if dense[i], err = prepare(c, in.hostFor(i)); err != nil {
			return err
		}
	}
	d, err = timeCalls(probeCalls, probeSlice, func(i int) error {
		p := canaries[i%n]
		_, err := stabilizer.Runner{Model: p.model, Shots: 2048 / 5, Seed: int64(i)}.Counts(p.compact)
		return err
	})
	if err := put("quantum.stabilizer_ms", "ms", d, err); err != nil {
		return err
	}
	d, err = timeCalls(40, 2*probeSlice, func(i int) error {
		p := dense[i%n]
		_, err := statevec.Noisy{Model: p.model, Shots: in.reqs[i%n].Shots, Seed: int64(i)}.Counts(p.compact)
		return err
	})
	return put("quantum.statevec_ms", "ms", d, err)
}

func (in *probeInputs) lineTopology() string {
	for _, r := range in.reqs {
		if r.TopologyQASM != "" {
			return r.TopologyQASM
		}
	}
	return "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n"
}

// probeKubelet times one kubelet reconcile that claims, executes and
// finishes a bound job, and takes out the execution itself — the same
// circuit on the same backend at the same shots, timed right after — so
// what is left is the agent's own work: image pull, the claim and finish
// writes, result and event records.
func probeKubelet(in *probeInputs, out map[string]metric) error {
	st := state.New()
	for _, b := range in.fleet {
		if _, err := st.AddNode(b); err != nil {
			return err
		}
	}
	reg := registry.New()
	srv := master.NewServer(st, reg)
	kubelets := make(map[string]*kubelet.Kubelet)
	var self []float64
	began := time.Now()
	for i := 0; i < 40 && (i < probeMin || time.Since(began) < 2*probeSlice); i++ {
		r := in.renamed(i, "probe-kubelet")
		if _, err := srv.Submit(r); err != nil {
			return fmt.Errorf("probe kubelet.sync_self_ms: %w", err)
		}
		b := in.hostFor(i)
		if err := st.BindJobAt(r.JobName, b.Name, 0.5, 0); err != nil {
			return fmt.Errorf("probe kubelet.sync_self_ms: %w", err)
		}
		k := kubelets[b.Name]
		if k == nil {
			k = kubelet.New(b.Name, st, reg, int64(i))
			kubelets[b.Name] = k
		}
		t0 := time.Now()
		if !k.SyncOnce() {
			return fmt.Errorf("probe kubelet.sync_self_ms: kubelet %s ran nothing", b.Name)
		}
		t1 := time.Now()
		if _, err := (fidelity.Estimator{Shots: r.Shots, Seed: k.Seed}).Execute(in.circuits[i%len(in.circuits)], b); err != nil {
			return fmt.Errorf("probe kubelet.sync_self_ms: %w", err)
		}
		self = append(self, ms(t1.Sub(t0)-time.Since(t1)))
	}
	out["kubelet.sync_self_ms"] = metric{max(median(self), 0), "ms"}
	return nil
}

// probeClient times client.Submit against a stub that answers 201 at once:
// what the load generator itself adds to every submission (request
// encoding, the HTTP round trip on loopback, response decoding).
func probeClient(in *probeInputs, put putFunc) error {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"name":"stub","spec":{"qasm":"","strategy":"fidelity"},"status":{"phase":"Pending"}}`))
	}))
	defer stub.Close()
	c := newAPIClient(stub.URL)
	ctx := context.Background()
	d, err := timeCalls(probeCalls, time.Second, func(i int) error {
		_, err := c.Submit(ctx, in.reqs[i%len(in.reqs)])
		return err
	})
	return put("client.submit_overhead_us", "us", d, err)
}
