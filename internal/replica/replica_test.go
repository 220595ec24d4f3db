// End-to-end tests of the out-of-process scheduler replica: watch-fed
// cache, partitioned passes, version-conditional binds, shard takeover,
// and — via a re-exec harness — a genuinely separate OS process driving
// the full job lifecycle through the public gateway.
package replica_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/meta"
	"qrio/internal/quantum/qasm"
	"qrio/internal/replica"
	"qrio/internal/sched"
	"qrio/internal/workload"
)

// deploy stands up a gateway-only QRIO (scheduler off — binding belongs
// to the replicas under test) over a two-node fleet with slots slots per
// node, and returns its public URL plus a connected client.
func deploy(t *testing.T, slots int) (string, *client.Client) {
	t.Helper()
	var fleet []*device.Backend
	for _, name := range []string{"east", "west"} {
		b, err := device.UniformBackend(name, graph.Ring(12), 0.03, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		// Container slots are additionally capped by node CPU (1 core per
		// slot) — give each node enough cores to honour the requested count.
		b.CPUMillis = int64(slots) * 1000
		fleet = append(fleet, b)
	}
	q, err := core.New(core.Config{
		Backends:         fleet,
		DisableScheduler: true,
		NodeConcurrency:  slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	t.Cleanup(q.Stop)
	srv := httptest.NewServer(gateway.New(q).Handler())
	t.Cleanup(srv.Close)
	return srv.URL, client.New(srv.URL)
}

func ghzReq(name string) client.SubmitRequest {
	src, _ := qasm.Dump(workload.GHZ(5))
	return client.SubmitRequest{
		JobName: name, QASM: src, Shots: 64,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}
}

// startReplica runs rep until the test ends.
func startReplica(t *testing.T, rep *replica.Replica) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("replica run: %v", err)
		}
	})
}

// waitAll blocks until every named job reaches a terminal phase and
// asserts each one Succeeded.
func waitAll(t *testing.T, c *client.Client, names []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, name := range names {
		job, err := c.Wait(ctx, name)
		if err != nil {
			t.Fatalf("waiting for %s: %v", name, err)
		}
		if job.Status.Phase != api.JobSucceeded {
			t.Fatalf("%s finished %s (%s)", name, job.Status.Phase, job.Status.Message)
		}
	}
}

// waitBinds polls the replicas' aggregate bind counter until it reaches
// want — jobs can finish (and waitAll return) a beat before the winning
// Bind call returns to its replica and increments the counter. Overshoot
// is an immediate failure: it means a double bind.
func waitBinds(t *testing.T, want uint64, reps ...*replica.Replica) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sum uint64
		for _, rep := range reps {
			sum += rep.Stats().Binds
		}
		if sum > want {
			t.Fatalf("aggregate binds = %d, want %d — a double bind slipped through", sum, want)
		}
		if sum == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregate binds = %d, want %d — a successful bind went uncounted", sum, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func submitN(t *testing.T, c *client.Client, n int) []string {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("rep-%d", i)
		if _, err := c.Submit(context.Background(), ghzReq(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// TestReplicaDrivesLifecycle: with the in-process scheduler off, a single
// out-of-process replica — watch cache, batch scoring, remote binds — is
// the only thing placing jobs, and every job still runs to completion.
func TestReplicaDrivesLifecycle(t *testing.T) {
	url, c := deploy(t, 4)
	rep := &replica.Replica{Client: client.New(url), Interval: 10 * time.Millisecond}
	startReplica(t, rep)

	names := submitN(t, c, 8)
	waitAll(t, c, names)
	waitBinds(t, 8, rep)

	if s := rep.Stats(); s.Conflicts != 0 {
		t.Fatalf("lone replica observed %d conflicts, want 0", s.Conflicts)
	}
}

// TestReplicasPartitionSplit: two sharded replicas split the queue
// hash(job) mod 2 — together they drain it, and the shard discipline
// means neither ever contends (zero conflicts) while every job is bound
// exactly once (binds sum to the job count).
func TestReplicasPartitionSplit(t *testing.T) {
	// Slots sized so even the worst-case placement (every job on one node)
	// fits: with capacity off the table, any conflict would be a real
	// cross-shard version race — which the partition must make impossible.
	url, c := deploy(t, 16)
	reps := make([]*replica.Replica, 2)
	for i := range reps {
		part, err := sched.NewPartition(2, i)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = &replica.Replica{
			Client:    client.New(url),
			Partition: part,
			Interval:  10 * time.Millisecond,
		}
		startReplica(t, reps[i])
	}

	names := submitN(t, c, 16)
	waitAll(t, c, names)
	waitBinds(t, 16, reps...)

	for i, rep := range reps {
		s := rep.Stats()
		if s.Binds == 0 {
			t.Errorf("replica %d bound nothing — partition not splitting", i)
		}
		if s.Conflicts != 0 {
			t.Errorf("sharded replica %d conflicted %d times, want 0", i, s.Conflicts)
		}
	}
}

// TestReplicasRaceUnpartitioned: two replicas with no shard discipline
// race the whole queue. Optimistic concurrency must keep binds
// exactly-once — the losers surface as counted conflicts, never as
// double placements.
func TestReplicasRaceUnpartitioned(t *testing.T) {
	url, c := deploy(t, 4)
	reps := make([]*replica.Replica, 2)
	for i := range reps {
		reps[i] = &replica.Replica{Client: client.New(url), Interval: 5 * time.Millisecond}
		startReplica(t, reps[i])
	}

	names := submitN(t, c, 16)
	waitAll(t, c, names)
	waitBinds(t, 16, reps...)
}

// TestReplicaTakeover: shard 1's replica never starts. Its jobs sit
// pending until the surviving replica assumes the lost shard — the
// manual takeover path a deployment runs on replica loss.
func TestReplicaTakeover(t *testing.T) {
	url, c := deploy(t, 4)
	part, err := sched.NewPartition(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := &replica.Replica{Client: client.New(url), Partition: part, Interval: 10 * time.Millisecond}
	startReplica(t, rep)

	names := submitN(t, c, 12)

	// Shard 1's jobs must stay pending while unowned.
	var orphan string
	for _, name := range names {
		if part.Shard(name) == 1 {
			orphan = name
			break
		}
	}
	if orphan == "" {
		t.Fatal("no job hashed to shard 1; enlarge the submission batch")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		job, err := c.Get(context.Background(), orphan)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status.Phase != api.JobPending {
			t.Fatalf("unowned job %s reached %s before takeover", orphan, job.Status.Phase)
		}
		time.Sleep(100 * time.Millisecond)
	}

	rep.Assume(1)
	waitAll(t, c, names)
	waitBinds(t, 12, rep)
}

// TestOutOfProcessScheduler re-execs the test binary as a genuinely
// separate qrio-sched-style process: the child builds a Replica against
// this process's gateway URL (passed by env) and schedules over the
// network while the parent submits and waits. This is the ISSUE's
// acceptance bar — an out-of-process replica driving the full lifecycle
// through the gateway alone.
func TestOutOfProcessScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	url, c := deploy(t, 4)

	cmd := exec.Command(os.Args[0], "-test.run", "^TestSchedulerChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "QRIO_REPLICA_GATEWAY="+url)
	out, err := os.CreateTemp(t.TempDir(), "child-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		if t.Failed() {
			raw, _ := os.ReadFile(out.Name())
			t.Logf("child output:\n%s", raw)
		}
	}()

	names := submitN(t, c, 8)
	waitAll(t, c, names)

	// Sanity: nothing in this process could have bound them.
	for _, name := range names {
		job, err := c.Get(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status.Node == "" {
			t.Fatalf("%s succeeded without a node?", name)
		}
	}
}

// TestSchedulerChildProcess is the re-exec child of
// TestOutOfProcessScheduler: not a test when run in the normal suite.
func TestSchedulerChildProcess(t *testing.T) {
	url := os.Getenv("QRIO_REPLICA_GATEWAY")
	if url == "" {
		t.Skip("re-exec child only")
	}
	rep := &replica.Replica{Client: client.New(url), Interval: 10 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := rep.Run(ctx); err != nil {
		t.Fatalf("child replica: %v", err)
	}
}

// scriptedScorer is a BatchScorer with fixed per-node scores and a hook
// that runs once, inside the first scoring call — i.e. after the pass
// took its snapshot of the cache and before it binds anything.
type scriptedScorer struct {
	scores map[string]float64
	once   sync.Once
	hook   func()
}

func (s *scriptedScorer) ScoreBatch(_ context.Context, _ string, backends []string) ([]meta.BatchResult, error) {
	if s.hook != nil {
		s.once.Do(s.hook)
	}
	out := make([]meta.BatchResult, len(backends))
	for i, b := range backends {
		out[i] = meta.BatchResult{Backend: b, Score: s.scores[b]}
	}
	return out, nil
}

// passUntilBound drives rep.Pass by hand (the Run loop only feeds the
// cache: its own cadence is parked at an hour) until a pass binds.
func passUntilBound(t *testing.T, rep *replica.Replica) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rep.Pass(context.Background()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no pass bound the job; stats %+v", rep.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaFallsThroughFullNode: the node the replica ranks first is
// filled behind its cache (a direct bind through the gateway, landing
// between the pass's snapshot and its bind). The 409 is the NODE's
// refusal, not a lost job: the same pass must place the job on the next
// candidate and count no conflict.
func TestReplicaFallsThroughFullNode(t *testing.T) {
	url, c := deploy(t, 1)
	ctx := context.Background()
	scorer := &scriptedScorer{scores: map[string]float64{"east": 0.5, "west": 0.5}} // tie → east first, by name
	scorer.hook = func() {
		// Seconds of simulation, so the filler still holds east's only
		// slot when the replica's bind arrives; cancelled at test end.
		src, _ := qasm.Dump(workload.GHZ(12))
		filler := client.SubmitRequest{JobName: "filler", QASM: src, Shots: 200000,
			Strategy: api.StrategyFidelity, TargetFidelity: 1.0}
		if _, err := c.Submit(ctx, filler); err != nil {
			t.Errorf("submitting filler: %v", err)
		}
		if _, err := c.Bind(ctx, "filler", "east", 0, 0); err != nil {
			t.Errorf("filling east: %v", err)
		}
	}
	rep := &replica.Replica{Client: client.New(url), Scorer: scorer, Interval: time.Hour}
	startReplica(t, rep)
	if _, err := c.Submit(ctx, ghzReq("victim")); err != nil {
		t.Fatal(err)
	}
	passUntilBound(t, rep)
	defer c.Cancel(ctx, "filler")

	job, err := c.Get(ctx, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Node != "west" {
		t.Fatalf("victim placed on %q, want west (east was full)", job.Status.Node)
	}
	if s := rep.Stats(); s.Binds != 1 || s.Conflicts != 0 || s.Errors != 0 || s.Passes != 1 {
		t.Fatalf("stats = %+v, want the one pass that saw the job to bind it with no conflict", s)
	}
}

// TestReplicaPrefersLowerScore: Meta-Server scores are costs — lower is
// better — and the replica must rank the way Framework.Rank does.
func TestReplicaPrefersLowerScore(t *testing.T) {
	url, c := deploy(t, 1)
	scorer := &scriptedScorer{scores: map[string]float64{"east": 0.9, "west": 0.1}}
	rep := &replica.Replica{Client: client.New(url), Scorer: scorer, Interval: time.Hour}
	startReplica(t, rep)
	if _, err := c.Submit(context.Background(), ghzReq("picky")); err != nil {
		t.Fatal(err)
	}
	passUntilBound(t, rep)
	job, err := c.Get(context.Background(), "picky")
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Node != "west" {
		t.Fatalf("bound to %q (score %.1f), want west, the lower score", job.Status.Node, job.Status.Score)
	}
}
