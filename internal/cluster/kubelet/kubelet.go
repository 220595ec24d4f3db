// Package kubelet implements QRIO's node agent: each worker node runs one,
// woken by the cluster state whenever a job bound to its node changes,
// pulling the job's image bundle from the registry, transpiling the
// bundled circuit to the node's local backend file and executing it
// (§3.1/§3.3), then publishing the result logs and releasing the node's
// container slot. Nodes whose spec grants more than one container slot
// execute that many bound jobs concurrently; the paper's default of one
// slot keeps execution serial.
package kubelet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/faults"
	"qrio/internal/fidelity"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
	"qrio/internal/registry"
)

// RuntimeFunc executes one job's container and returns its log lines and
// execution record. The context is cancelled when the user cancels the job
// (DELETE /v1/jobs/{name}) — a conforming runtime aborts promptly, but the
// kubelet also abandons runtimes that ignore cancellation, so the node
// slot is freed either way.
type RuntimeFunc func(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error)

// Kubelet is one node's agent.
type Kubelet struct {
	NodeName string
	State    *state.Cluster
	Registry *registry.Registry
	// Beats is the deployment's heartbeat loop: Run joins it, so the node
	// is recorded alive while the agent runs. Nil beats nothing.
	Beats *Heartbeats
	// Seed makes executions reproducible per node.
	Seed int64
	// Clock is the kubelet's time source (elapsed-time logs;
	// StartedAt/FinishedAt are stamped by the cluster's clock inside
	// state.TransitionJob). Nil means the wall clock.
	Clock clock.Clock
	// Runtime is the container runtime seam; nil selects the built-in
	// simulator-backed executor. Tests and alternative execution backends
	// inject here.
	Runtime RuntimeFunc
	// Faults is the fault-injection registry; the kubelet.runtime point
	// fires before every container invocation, so an armed registry turns
	// executions into failures (→ controller retry), added latency or
	// hangs (→ aborted by cancellation). Nil resolves to faults.Default.
	Faults *faults.Registry
	// Metrics is the optional instrumentation handle (nil = no metrics).
	// Set once at wiring time, before Run.
	Metrics *Metrics

	mu       sync.Mutex
	inflight map[string]context.CancelFunc
	jobs     sync.WaitGroup
}

// New builds a kubelet for a node.
func New(nodeName string, st *state.Cluster, reg *registry.Registry, seed int64) *Kubelet {
	return &Kubelet{
		NodeName: nodeName,
		State:    st,
		Registry: reg,
		Seed:     seed,
		Clock:    clock.Real{},
		inflight: make(map[string]context.CancelFunc),
	}
}

// now reads the kubelet's clock.
func (k *Kubelet) now() time.Time { return clock.Now(k.Clock) }

// Run reconciles until the context is cancelled, then waits for in-flight
// containers to finish so no execution outlives the agent. It reconciles
// once at start and then only when its node's wake channel fires — for job
// events that name this node and for containers exiting here, nothing
// else — so an idle agent sleeps. While Run is live the node is a member
// of the heartbeat loop (Beats); when Run returns it leaves, and the node
// goes silent.
func (k *Kubelet) Run(ctx context.Context) {
	k.Beats.set(k.NodeName, true)
	defer k.Beats.set(k.NodeName, false)
	defer k.jobs.Wait()
	wake := k.State.NodeWake(k.NodeName)
	for {
		// The first pass covers jobs bound before the channel existed
		// (boot, WAL replay), which left no token.
		k.reconcile()
		select {
		case <-ctx.Done():
			return
		case <-wake:
		}
	}
}

// reconcile is one level-triggered pass: abort what the user cancelled,
// start what is bound and fits.
func (k *Kubelet) reconcile() {
	k.Metrics.reconciled()
	k.reapCancelled()
	k.launch()
}

// slots reads the node's container capacity from its spec (1 when the
// node is unknown, matching the paper's serial execution) without copying
// the node — its backend file alone is ~10 KB.
func (k *Kubelet) slots() int {
	slots := 1
	k.State.Nodes.Peek(k.NodeName, func(n api.Node, _ int64) { slots = n.ContainerSlots() })
	return slots
}

// launch starts a container goroutine for every bound job this node has a
// free slot for, without waiting for them, and returns the launched job
// names (oldest bindings first, for determinism).
func (k *Kubelet) launch() []string {
	// The cluster's placed-by-node index answers "what is bound to me?"
	// in O(jobs on this node), already sorted oldest-first.
	runnable := k.State.ScheduledJobs(k.NodeName)
	slots := k.slots()
	var started []string
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.inflight == nil { // zero-value Kubelet, built without New
		k.inflight = make(map[string]context.CancelFunc)
	}
	for _, j := range runnable {
		if len(k.inflight) >= slots {
			break
		}
		name := j.Name
		if _, busy := k.inflight[name]; busy {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		k.inflight[name] = cancel
		k.jobs.Add(1)
		started = append(started, name)
		go func() {
			defer k.jobs.Done()
			defer func() {
				k.mu.Lock()
				delete(k.inflight, name)
				k.mu.Unlock()
				cancel()
				// Only now is the slot free for launch: the job's terminal
				// event (and its wake token) came before.
				k.State.WakeNode(k.NodeName)
			}()
			k.runJob(ctx, name)
		}()
	}
	return started
}

// reapCancelled aborts the containers of in-flight jobs whose user asked
// for cancellation.
func (k *Kubelet) reapCancelled() {
	k.mu.Lock()
	names := make([]string, 0, len(k.inflight))
	for name := range k.inflight {
		names = append(names, name)
	}
	k.mu.Unlock()
	for _, name := range names {
		abort := false
		k.State.Jobs.Peek(name, func(j api.QuantumJob, _ int64) {
			abort = j.Status.Phase == api.JobRunning && j.Status.CancelRequested
		})
		if !abort {
			continue
		}
		k.mu.Lock()
		if cancel, ok := k.inflight[name]; ok {
			cancel()
		}
		k.mu.Unlock()
	}
}

// SyncOnce launches every runnable job bound to this node (up to its free
// container slots) and waits for the batch to finish — the synchronous
// reconcile used by tests and single-step drivers. It returns true when at
// least one job ran.
func (k *Kubelet) SyncOnce() bool {
	k.reapCancelled()
	started := k.launch()
	k.jobs.Wait()
	return len(started) > 0
}

// execOutcome carries a finished runtime invocation across the abort select.
type execOutcome struct {
	logs []string
	ex   *fidelity.Execution
	err  error
}

// runJob drives one job through Running to a terminal phase. The context
// is this job's container lifetime: reapCancelled cancels it when the user
// requests cancellation, at which point the container is aborted — the
// runtime gets the cancelled context, and even a non-cooperative runtime
// is abandoned so the job reaches JobCancelled and the slot frees
// immediately.
func (k *Kubelet) runJob(ctx context.Context, jobName string) {
	start := k.now()
	claimed, err := k.State.TransitionJob(jobName, api.JobEventClaim, state.Transition{Node: k.NodeName})
	if err != nil {
		return // lost the claim; nothing to clean up
	}
	runtime := k.Runtime
	if runtime == nil {
		runtime = k.execute
	}
	outcome := make(chan execOutcome, 1)
	go func() {
		// The runtime fault point models the container engine failing or
		// wedging: an injected error takes the normal failed-execution path
		// (controller retry policy applies); a hang blocks here until
		// cancellation, exactly like a stuck container.
		if err := k.Faults.Fire(ctx, faults.PointKubeletRuntime); err != nil {
			outcome <- execOutcome{err: err}
			return
		}
		logs, ex, err := runtime(ctx, claimed)
		outcome <- execOutcome{logs: logs, ex: ex, err: err}
	}()
	finish := func(o execOutcome) {
		if ctx.Err() != nil && o.err != nil && errors.Is(o.err, context.Canceled) {
			k.finishCancelled(jobName, start)
			return
		}
		k.finishExecuted(jobName, start, o)
	}
	select {
	case o := <-outcome:
		finish(o)
	case <-ctx.Done():
		// Cancellation landed — but if the runtime finished at the same
		// instant, prefer its real result over a fabricated abort record
		// (the user's cancel then simply lost the race with completion).
		select {
		case o := <-outcome:
			finish(o)
		default:
			// The runtime result (if it ever arrives) is discarded: the
			// send targets a buffered channel, so the goroutine cannot
			// leak.
			k.finishCancelled(jobName, start)
		}
	}
}

// finishExecuted publishes a completed execution: result record, terminal
// phase, slot release and event — the original success/failure path.
func (k *Kubelet) finishExecuted(jobName string, start time.Time, o execOutcome) {
	end := k.now()
	elapsed := end.Sub(start).Milliseconds()
	logs, result, execErr := o.logs, o.ex, o.err

	if execErr != nil {
		logs = append(logs, fmt.Sprintf("[qrio] ERROR: %v", execErr))
	}
	res := api.Result{
		ObjectMeta: api.ObjectMeta{Name: jobName},
		JobName:    jobName,
		Node:       k.NodeName,
		LogLines:   logs,
		ElapsedMS:  elapsed,
	}
	if result != nil {
		res.Counts = result.Counts
		res.Fidelity = result.Fidelity
		res.TranspiledQASM = result.TranspiledQASM
	}
	// The transition stores the result, releases the slot and records the
	// event behind one wait for the disk; when another actor already
	// finalised the job, it owned the last two.
	t := state.Transition{
		Node:    k.NodeName,
		Result:  &res,
		Message: fmt.Sprintf("fidelity %.4f on %s", res.Fidelity, k.NodeName),
		Detail:  fmt.Sprintf("executed on %s in %dms", k.NodeName, elapsed),
	}
	ev := api.JobEventSucceed
	if execErr != nil {
		ev, t.Message = api.JobEventFail, execErr.Error()
	}
	if done, err := k.State.TransitionJob(jobName, ev, t); err == nil {
		k.Metrics.observeRun(done)
	}
}

// finishCancelled lands a user-requested abort: terminal JobCancelled
// phase, a minimal result log, slot release and event.
func (k *Kubelet) finishCancelled(jobName string, start time.Time) {
	end := k.now()
	elapsed := end.Sub(start).Milliseconds()
	done, err := k.State.TransitionJob(jobName, api.JobEventAbort, state.Transition{
		Node:    k.NodeName,
		Message: fmt.Sprintf("cancelled by user; container aborted on %s after %dms", k.NodeName, elapsed),
	})
	if err != nil {
		return // someone else finished the job first
	}
	k.Metrics.observeRun(done)
	res := api.Result{
		ObjectMeta: api.ObjectMeta{Name: jobName},
		JobName:    jobName,
		Node:       k.NodeName,
		LogLines: []string{
			fmt.Sprintf("[qrio] job %s starting on node %s", jobName, k.NodeName),
			fmt.Sprintf("[qrio] job %s cancelled by user after %dms; container aborted", jobName, elapsed),
		},
		ElapsedMS: elapsed,
	}
	if _, err := k.State.Results.Create(res); err != nil {
		k.State.Results.Update(jobName, func(api.Result) (api.Result, error) { return res, nil })
	}
}

// jobSeed spreads executions on one node apart: an FNV-1a hash of the job's
// UID (its name when it has none), so two jobs — same-length names included
// — draw different noise while one job on one node reproduces its own.
func jobSeed(j api.QuantumJob) int64 {
	id := j.UID
	if id == "" {
		id = j.Name
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64() >> 1)
}

// execute is the built-in runtime: it pulls the image and runs the
// bundled circuit on this node's backend, checking for cancellation at
// each stage boundary. The returned log lines mirror the Fig. 5 log view.
func (k *Kubelet) execute(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error) {
	logs := []string{
		fmt.Sprintf("[qrio] job %s starting on node %s", j.Name, k.NodeName),
	}
	if err := ctx.Err(); err != nil {
		return logs, nil, err
	}
	imgRef := j.Spec.Image
	if at := strings.LastIndex(imgRef, "@"); at >= 0 {
		imgRef = imgRef[at+1:] // pull by digest
	}
	img, err := k.Registry.Pull(imgRef)
	if err != nil {
		return logs, nil, fmt.Errorf("pulling image %s: %w", j.Spec.Image, err)
	}
	logs = append(logs, fmt.Sprintf("[qrio] pulled image %s (%d files)", j.Spec.Image, len(img.Files)))

	qasmSrc, ok := img.Files["circuit.qasm"]
	if !ok {
		return logs, nil, fmt.Errorf("image %s has no circuit.qasm", j.Spec.Image)
	}
	var manifest master.RunnerManifest
	if raw, ok := img.Files["runner.json"]; ok {
		if err := json.Unmarshal(raw, &manifest); err != nil {
			return logs, nil, fmt.Errorf("image %s runner.json corrupt: %w", j.Spec.Image, err)
		}
	}
	shots := manifest.Shots
	if shots <= 0 {
		shots = j.Spec.Shots
	}
	if shots <= 0 {
		shots = 1024
	}

	parsed, err := qasm.ParseShared(string(qasmSrc))
	if err != nil {
		return logs, nil, fmt.Errorf("bundled circuit does not parse: %w", err)
	}
	circ := *parsed // shared with every job of this text: rename a copy
	circ.Name = j.Name

	backend, err := k.State.Backend(k.NodeName)
	if err != nil {
		return logs, nil, fmt.Errorf("reading local backend file: %w", err)
	}
	logs = append(logs, fmt.Sprintf("[qrio] backend %s: %d qubits, %d edges, avg 2q error %.4f",
		backend.Name, backend.NumQubits, backend.Coupling.NumEdges(), backend.AvgTwoQubitErr()))

	if err := ctx.Err(); err != nil {
		return logs, nil, err
	}
	est := fidelity.Estimator{Shots: shots, Seed: k.Seed + jobSeed(j), Context: ctx}
	ex, err := est.Execute(&circ, backend)
	if err != nil {
		return logs, nil, err
	}
	logs = append(logs,
		fmt.Sprintf("[qrio] transpiled: %d gates (%d cx), depth %d, %d swaps inserted",
			ex.Gates, ex.CX, ex.Depth, ex.AddedSwaps),
		fmt.Sprintf("[qrio] executed %d shots via %s simulation", shots, ex.Method),
		fmt.Sprintf("[qrio] top counts: %s", strings.Join(fidelity.TopCounts(ex.Counts, 5), " ")),
		fmt.Sprintf("[qrio] estimated fidelity: %.4f", ex.Fidelity),
		fmt.Sprintf("[qrio] job %s succeeded", j.Name),
	)
	return logs, ex, nil
}
