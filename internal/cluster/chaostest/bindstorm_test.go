// Concurrent-bind storm: K concurrent version-conditional binders
// (State.BindJobAt at the version each observed) race one pending queue
// while executors drain the fleet and a retention sweeper archives
// terminal jobs out from under them. The invariants under fire:
//
//   - every job is bound exactly once — K racing binders never double
//     place, and the winners sum to the job count,
//   - every bind attempt resolves to exactly one of win / typed
//     conflict / typed capacity error — anything else fails the test —
//     so the binders' counters are a complete account of the race,
//   - node slot and CPU/memory accounting drains to zero after the
//     storm — including releases that land after the job was archived
//     (the release-after-archival leak).
//
// Runs under -race via `make chaos-replicas`.
package chaostest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/device"
	"qrio/internal/graph"
)

// stormJob carries real resource demand so the accounting-drain check is
// about leases, not zeros.
func stormJob(name string) api.QuantumJob {
	j := job(name, "storm")
	j.Spec.Resources = api.ResourceRequirements{CPUMillis: 100, MemoryMB: 64}
	return j
}

// stormFleet builds a small fleet with multi-container nodes.
func stormFleet(t *testing.T, st *state.Cluster, nodes, slots int) []string {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("storm-%d", i)
		b, err := device.UniformBackend(names[i], graph.Ring(8), 0.05, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddNode(b); err != nil {
			t.Fatal(err)
		}
		st.Nodes.Update(names[i], func(n api.Node) (api.Node, error) {
			n.Spec.MaxContainers = slots
			return n, nil
		})
	}
	return names
}

// binderTally is one racing binder's account of its bind attempts.
type binderTally struct {
	attempts, wins, conflicts, capacity atomic.Uint64
}

// TestConcurrentBindStorm is the K-binder race.
func TestConcurrentBindStorm(t *testing.T) {
	st := state.New()
	nodes := stormFleet(t, st, 4, 3)

	const binders = 6
	total := 240
	if testing.Short() {
		total = 60
	}

	// Prologue: a deterministic single-job race. All K binders observe
	// the same version and bind concurrently from a barrier — the CAS
	// must admit exactly one winner and type every loss as a conflict.
	if _, err := st.SubmitJob(stormJob("contended")); err != nil {
		t.Fatal(err)
	}
	observed := st.PendingJobs()
	if len(observed) != 1 {
		t.Fatalf("pending = %d, want the 1 contended job", len(observed))
	}
	v := observed[0].ResourceVersion
	var barrier, raced sync.WaitGroup
	var wins, conflicts atomic.Int32
	barrier.Add(1)
	for i := 0; i < binders; i++ {
		raced.Add(1)
		node := nodes[i%len(nodes)]
		go func() {
			defer raced.Done()
			barrier.Wait()
			switch err := st.BindJobAt("contended", node, 1.0, v); {
			case err == nil:
				wins.Add(1)
			case state.IsConflict(err):
				conflicts.Add(1)
			default:
				t.Errorf("contended bind: unexpected error class %v", err)
			}
		}()
	}
	barrier.Done()
	raced.Wait()
	if wins.Load() != 1 || conflicts.Load() != binders-1 {
		t.Fatalf("contended race: %d wins / %d conflicts, want 1 / %d",
			wins.Load(), conflicts.Load(), binders-1)
	}

	// The storm proper: a submitter feeds the queue while K binders race
	// versioned snapshots, executors run and release, and a sweeper
	// archives terminal jobs mid-flight (so some releases take the
	// archive-tier fallthrough).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bounds sync.Map // job name → *atomic.Int32 bind-win count

	winCounter := func(name string) *atomic.Int32 {
		c, _ := bounds.LoadOrStore(name, new(atomic.Int32))
		return c.(*atomic.Int32)
	}

	wg.Add(1)
	go func() { // submitter
		defer wg.Done()
		for i := 0; i < total; i++ {
			name := fmt.Sprintf("storm-%04d", i)
			if _, err := st.SubmitJob(stormJob(name)); err != nil {
				t.Errorf("submit %s: %v", name, err)
				return
			}
			if i%16 == 15 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	tallies := make([]*binderTally, binders)
	for i := range tallies {
		tallies[i] = &binderTally{}
		wg.Add(1)
		go func(tally *binderTally, seed int64) { // racing binder
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range st.PendingJobs() {
					node := nodes[r.Intn(len(nodes))]
					tally.attempts.Add(1)
					switch err := st.BindJobAt(p.Name, node, 1.0, p.ResourceVersion); {
					case err == nil:
						tally.wins.Add(1)
						winCounter(p.Name).Add(1)
					case state.IsConflict(err), errors.As(err, new(store.ErrNotFound)):
						// Stale version, the phase moved between snapshot and
						// CAS, or the sweeper already archived the job —
						// someone else's win either way.
						tally.conflicts.Add(1)
					case state.IsCapacity(err):
						tally.capacity.Add(1)
					default:
						t.Errorf("storm bind %s: unexpected error class %v", p.Name, err)
					}
				}
				time.Sleep(time.Duration(r.Intn(500)) * time.Microsecond)
			}
		}(tallies[i], int64(i+1)*104729)
	}

	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { // executor: Scheduled → Running → Succeeded, release
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				claimed := st.Jobs.ListFunc(func(j api.QuantumJob) bool {
					return j.Status.Phase == api.JobScheduled
				})
				for _, j := range claimed {
					name, node := j.Name, j.Status.Node
					_, _, err := st.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
						if j.Status.Phase != api.JobScheduled {
							return j, fmt.Errorf("claimed elsewhere")
						}
						now := time.Now()
						j.Status.Phase = api.JobSucceeded
						j.Status.StartedAt, j.Status.FinishedAt = &now, &now
						j.Status.Node = ""
						return j, nil
					})
					if err != nil {
						continue
					}
					if rerr := st.ReleaseNode(node, name); rerr != nil {
						t.Errorf("release %s from %s: %v", name, node, rerr)
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	wg.Add(1)
	go func() { // sweeper: archive terminal jobs while releases race it
		defer wg.Done()
		policy := state.RetentionPolicy{MaxTerminalCount: 20}
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.ArchiveTerminal(time.Now(), policy)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Quiesce: every storm job terminal (resident or archived).
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := 0
		for i := 0; i < total; i++ {
			name := fmt.Sprintf("storm-%04d", i)
			if st.Archived.Has(name) {
				done++
				continue
			}
			if j, _, err := st.Jobs.Get(name); err == nil && j.Status.Phase.Terminal() {
				done++
			}
		}
		if done == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storm did not quiesce: %d of %d jobs terminal", done, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Exactly-once binds: per job and in aggregate.
	var aggWins, aggAttempts, aggConflicts, aggCapacity uint64
	for i, tally := range tallies {
		w, a := tally.wins.Load(), tally.attempts.Load()
		c, k := tally.conflicts.Load(), tally.capacity.Load()
		aggWins += w
		aggAttempts += a
		aggConflicts += c
		aggCapacity += k
		if w+c+k != a {
			t.Errorf("binder %d counters leak: %d attempts vs %d+%d+%d outcomes", i, a, w, c, k)
		}
	}
	if aggWins != uint64(total) {
		t.Fatalf("aggregate wins = %d, want exactly %d", aggWins, total)
	}
	if aggAttempts != aggWins+aggConflicts+aggCapacity {
		t.Fatalf("counters don't sum: %d attempts vs %d wins + %d conflicts + %d capacity",
			aggAttempts, aggWins, aggConflicts, aggCapacity)
	}
	bounds.Range(func(k, v any) bool {
		if n := v.(*atomic.Int32).Load(); n != 1 {
			t.Errorf("job %s bound %d times", k.(string), n)
		}
		return true
	})

	// Accounting drains to zero even though some releases landed after
	// their job was archived.
	for _, name := range nodes {
		n, _, err := st.Nodes.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Status.RunningJobs) != 0 || n.Status.CPUMillisInUse != 0 || n.Status.MemoryMBInUse != 0 {
			t.Errorf("node %s leaked accounting: jobs=%v cpu=%dm mem=%dMB",
				name, n.Status.RunningJobs, n.Status.CPUMillisInUse, n.Status.MemoryMBInUse)
		}
	}
	if pending := st.PendingJobs(); len(pending) != 0 {
		t.Errorf("pending index not drained: %d entries", len(pending))
	}
}
