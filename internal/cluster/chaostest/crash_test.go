// Kill -9 crash-recovery harness: a child copy of this test binary runs a
// durable cluster under full lifecycle churn (submit, bind, run, cancel,
// archive sweep, snapshot compaction) and is killed with SIGKILL at an
// arbitrary moment — mid-append, mid-rotate, mid-snapshot, mid-sweep. The
// parent then reopens the data directory in-process and audits the
// recovered state:
//
//   - every job the child acknowledged durable is in exactly one tier
//     (hot store or archive): none lost, none duplicated,
//   - every watch event the child handed to a client — after the barrier
//     the HTTP surface holds its streams behind — is in the recovered
//     state: the job is resident at that version or later, or archived,
//   - every hook-fed index matches a from-scratch rebuild from the stores,
//   - every resume token the child handed out either resumes cleanly or
//     fails with the typed store.ErrCompacted (the /v1 410) — never
//     anything else,
//   - node slot accounting is consistent with the recovered jobs.
//
// Two rounds run against the same directory, so the second child boots
// from a crashed predecessor's state and the second audit covers
// recovery-of-a-recovery; the second child also fsyncs, so the kill lands
// inside group commits too. Runs under -race via `make chaos-crash`.
package chaostest

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/controller"
	"qrio/internal/cluster/durability"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
	"qrio/internal/graph"
)

const (
	envCrashDir   = "QRIO_CRASH_DIR"
	envCrashRound = "QRIO_CRASH_ROUND"
)

// TestCrashChild is the subprocess body. It only runs when the parent
// harness launches it with the environment set; otherwise it skips.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(envCrashDir)
	if dir == "" {
		t.Skip("crash-harness child; driven by TestCrashRecovery")
	}
	runCrashChild(t, dir, os.Getenv(envCrashRound))
	// Only reached if the parent failed to kill us; exiting cleanly is
	// harmless — the audit accepts a graceful shutdown too.
}

func runCrashChild(t *testing.T, dir, round string) {
	st := state.New()
	m, err := durability.Open(st, durability.Options{Dir: dir, Fsync: round == "1", SnapshotInterval: -1})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	nodes := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("dev-%d", i)
		b, err := device.UniformBackend(name, graph.Ring(8), 0.05, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddNode(b); err != nil {
			var exists store.ErrExists
			if !errors.As(err, &exists) {
				t.Fatal(err)
			}
			// Round ≥ 1: the node replayed from the previous life.
			if _, err := st.RefreshNode(b); err != nil {
				t.Fatal(err)
			}
		}
		st.Nodes.Update(name, func(n api.Node) (api.Node, error) {
			n.Spec.MaxContainers = 3
			return n, nil
		})
		nodes = append(nodes, name)
	}
	acked, err := os.OpenFile(filepath.Join(dir, "acked.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := os.OpenFile(filepath.Join(dir, "tokens.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	watched, err := os.OpenFile(filepath.Join(dir, "watched.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(st)
	ctl.Retention = state.RetentionPolicy{MaxTerminalCount: 16}
	ctl.NodeTimeout = time.Minute // node flap is not this harness's subject
	ctl.StuckTimeout = 5 * time.Millisecond
	ctl.MaxRetries = 1

	var (
		wg      sync.WaitGroup
		ackMu   sync.Mutex
		stop    = make(chan struct{}) // never closed: SIGKILL is the stop
		actorID int64
	)
	loop := func(fn func(r *rand.Rand)) {
		wg.Add(1)
		actorID++
		seed := actorID
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed * 104729))
			for {
				select {
				case <-stop:
					return
				default:
					fn(r)
				}
			}
		}()
	}

	// Submitter: ack a job into acked.log only AFTER SubmitJob returned —
	// by then its WAL record is written, so the name must survive the kill.
	for _, tenant := range []string{"alice", "bob"} {
		tenant := tenant
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				name := fmt.Sprintf("r%s-%s-%05d", round, tenant, i)
				if _, err := st.SubmitJob(job(name, tenant)); err != nil {
					continue // quiesced archive collisions etc.; keep churning
				}
				ackMu.Lock()
				fmt.Fprintln(acked, name)
				ackMu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Watch client: what /v1/watch does for a remote one — receive from the
	// hub, wait for the log (Sync is the HTTP barrier), only then let the
	// event out of the process. Every line must survive the kill. When it
	// falls behind and its stream closes, it resumes from its last token,
	// as client.Watch with Reconnect does (from now, if compacted).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var from state.ResumeToken
		for {
			notes, start, cancel, err := st.Subscribe(256, from)
			if err != nil {
				notes, start, cancel, _ = st.Subscribe(256, state.ResumeToken{})
			}
			last := start.String()
			for n := range notes {
				last = n.Resume
				if n.Job == nil {
					continue
				}
				st.Sync()
				fmt.Fprintf(watched, "%s %d\n", n.Job.Name, n.Version)
			}
			cancel()
			from, _ = state.ParseResumeToken(last)
		}
	}()
	// Binder, executor, canceller, reconciler: the lifecycle churn.
	loop(func(r *rand.Rand) {
		for _, j := range st.PendingJobs() {
			_ = st.BindJob(j.Name, nodes[r.Intn(len(nodes))], 1.0)
		}
		time.Sleep(time.Millisecond)
	})
	loop(func(r *rand.Rand) {
		for _, j := range st.Jobs.ListFunc(func(j api.QuantumJob) bool {
			return j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning
		}) {
			name, node := j.Name, j.Status.Node
			if j.Status.Phase == api.JobScheduled {
				st.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
					if j.Status.Phase != api.JobScheduled {
						return j, fmt.Errorf("claimed elsewhere")
					}
					j.Status.Phase = api.JobRunning
					now := time.Now()
					j.Status.StartedAt = &now
					return j, nil
				})
				continue
			}
			if r.Intn(3) == 0 {
				continue // leave some jobs Running for the orphan-requeue path
			}
			fail := r.Intn(10) == 0
			updated, _, err := st.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
				if j.Status.Phase != api.JobRunning {
					return j, fmt.Errorf("not running")
				}
				now := time.Now()
				j.Status.FinishedAt = &now
				j.Status.Node = ""
				switch {
				case j.Status.CancelRequested:
					j.Status.Phase = api.JobCancelled
				case fail:
					j.Status.Phase = api.JobFailed
					j.Status.Attempts++
				default:
					j.Status.Phase = api.JobSucceeded
				}
				return j, nil
			})
			if err == nil && updated.Status.Phase.Terminal() {
				st.ReleaseNode(node, name)
			}
		}
		time.Sleep(time.Millisecond)
	})
	loop(func(r *rand.Rand) {
		jobs := st.Jobs.List()
		if len(jobs) > 0 {
			st.CancelJob(jobs[r.Intn(len(jobs))].Name)
		}
		time.Sleep(2 * time.Millisecond)
	})
	loop(func(*rand.Rand) {
		ctl.ReconcileOnce()
		time.Sleep(2 * time.Millisecond)
	})
	// Token minter: every handed-out token must survive the crash as
	// "resumes or typed 410" — never a malformed position.
	loop(func(*rand.Rand) {
		_, tok, cancel, _ := st.Subscribe(1, state.ResumeToken{})
		cancel()
		ackMu.Lock()
		fmt.Fprintln(tokens, tok.String())
		ackMu.Unlock()
		time.Sleep(5 * time.Millisecond)
	})
	// Snapshotter: aggressive compaction so the kill lands in every window
	// of the rotate → dump → write → cleanup protocol.
	loop(func(*rand.Rand) {
		if _, err := m.Snapshot(); err != nil {
			t.Errorf("child snapshot: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	})

	time.Sleep(2 * time.Minute) // the parent kills us long before this
}

// TestCrashRecovery drives two kill -9 rounds against one data directory.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}
	dir := t.TempDir()
	for round := 0; round < 2; round++ {
		runDuration := []time.Duration{1200, 900}[round] * time.Millisecond
		cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$", "-test.v")
		cmd.Env = append(os.Environ(),
			envCrashDir+"="+dir,
			envCrashRound+"="+strconv.Itoa(round),
		)
		out, err := os.CreateTemp(t.TempDir(), "child-*.log")
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for real progress — acked jobs on disk — before killing, so
		// the audit always has something to check.
		prior := countLines(t, filepath.Join(dir, "acked.log"))
		deadline := time.Now().Add(30 * time.Second)
		for countLines(t, filepath.Join(dir, "acked.log")) < prior+20 {
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				dump, _ := os.ReadFile(out.Name())
				t.Fatalf("round %d: child made no progress; output:\n%s", round, dump)
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(runDuration)
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
			t.Fatal(err)
		}
		cmd.Wait()
		out.Close()

		auditRecovery(t, dir, round)
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			n++
		}
	}
	return n
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// auditRecovery reopens the crashed directory in-process and checks every
// recovery invariant the durability design promises.
func auditRecovery(t *testing.T, dir string, round int) {
	st := state.New()
	m, err := durability.Open(st, durability.Options{Dir: dir, SnapshotInterval: -1})
	if err != nil {
		t.Fatalf("round %d: recovery open failed: %v", round, err)
	}
	defer m.Close()

	// 1. Acked-set audit: acknowledged jobs are in exactly one tier.
	ackedNames := readLines(t, filepath.Join(dir, "acked.log"))
	if len(ackedNames) == 0 {
		t.Fatalf("round %d: no acked jobs to audit", round)
	}
	for _, name := range ackedNames {
		_, _, hotErr := st.Jobs.Get(name)
		inHot := hotErr == nil
		inArchive := st.Archived.Has(name)
		switch {
		case !inHot && !inArchive:
			t.Errorf("round %d: acked job %s lost: in neither tier", round, name)
		case inHot && inArchive:
			t.Errorf("round %d: acked job %s duplicated across tiers", round, name)
		}
	}

	// 1b. Watch audit: an event a client received is never missing — the
	// job is resident at that version or a later one, or rests in the
	// archive (the only way a job leaves the hot store).
	watchedLines := readLines(t, filepath.Join(dir, "watched.log"))
	if len(watchedLines) == 0 {
		t.Fatalf("round %d: no watch events to audit", round)
	}
	for _, line := range watchedLines {
		var name string
		var seen int64
		if n, _ := fmt.Sscanf(line, "%s %d", &name, &seen); n != 2 {
			continue // the kill tore the last line
		}
		_, have, err := st.Jobs.Get(name)
		if (err != nil || have < seen) && !st.Archived.Has(name) {
			t.Errorf("round %d: a client saw job %s at version %d; recovery has it at %d (err %v) and not archived",
				round, name, seen, have, err)
		}
	}
	if err := os.Truncate(filepath.Join(dir, "watched.log"), 0); err != nil {
		t.Fatal(err)
	}

	// 2. Index audit: every hook-fed index must equal a rebuild from the
	// recovered store contents — the job orders (pending, scheduled by
	// node, terminal: names, groups and order) through CheckIndexes, the
	// usage index against a recount here.
	if err := st.CheckIndexes(); err != nil {
		t.Errorf("round %d: %v", round, err)
	}
	wantUsage := map[string]*state.TenantUsage{}
	for _, j := range st.Jobs.List() {
		if j.Status.Phase == api.JobRunning {
			t.Errorf("round %d: job %s still Running after recovery (orphan requeue missed)", round, j.Name)
		}
		if !j.Status.Phase.Terminal() {
			tenant := j.Spec.Tenant
			u := wantUsage[tenant]
			if u == nil {
				u = &state.TenantUsage{Tenant: tenant}
				wantUsage[tenant] = u
			}
			if j.Status.Phase == api.JobPending {
				u.Pending++
			}
			if j.Status.Phase == api.JobScheduled {
				u.Active++
			}
		}
	}
	for _, u := range st.TenantUsages() {
		want := wantUsage[u.Tenant]
		if want == nil {
			if u.Pending != 0 || u.Active != 0 {
				t.Errorf("round %d: usage index invented tenant %s: %+v", round, u.Tenant, u)
			}
			continue
		}
		if u.Pending != want.Pending || u.Active != want.Active {
			t.Errorf("round %d: usage index for %s = {pending %d active %d}, rebuild says {pending %d active %d}",
				round, u.Tenant, u.Pending, u.Active, want.Pending, want.Active)
		}
	}

	// 3. Resume-token audit: every token the child handed out resumes or
	// fails with the typed compaction error — nothing else.
	for _, line := range readLines(t, filepath.Join(dir, "tokens.log")) {
		tok, err := state.ParseResumeToken(line)
		if err != nil {
			t.Errorf("round %d: child emitted unparseable token %q: %v", round, line, err)
			continue
		}
		ch, _, cancel, err := st.Subscribe(8, tok)
		switch {
		case err == nil:
			cancel()
			for range ch {
			}
		case errors.Is(err, store.ErrCompacted):
			// The typed 410: the client re-Lists. Acceptable.
		default:
			t.Errorf("round %d: token %q failed with %v, want resume or ErrCompacted", round, line, err)
		}
	}

	// Truncate the token log between rounds: round 2's audit state need
	// only honour tokens minted after round 2's boot (a live deployment
	// makes the same promise — tokens don't outlive compaction).
	if err := os.Truncate(filepath.Join(dir, "tokens.log"), 0); err != nil {
		t.Fatal(err)
	}
}
