package state

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"qrio/internal/cluster/api"
)

// TestJobOrdersMatchRebuild drives a seeded random sequence of every job
// move — submit, bind, claim, cancel in each phase, finish, retry,
// requeue, node delete and archival — over three tenants and three nodes,
// and after every step holds each hook-fed job order to a rebuild from the
// store (CheckIndexes) and the public readers to the order they promise.
// The frozen-clock seed stamps every job with the same CreatedAt, so
// order falls to the name tie-break throughout.
func TestJobOrdersMatchRebuild(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		frozen bool
	}{{1, false}, {2, false}, {3, false}, {4, true}} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			randomJobMoves(t, tc.seed, tc.frozen, 400)
		})
	}
}

func randomJobMoves(t *testing.T, seed int64, frozen bool, steps int) {
	rng := rand.New(rand.NewSource(seed))
	clk := &stepClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	c := New()
	c.Clock = clk
	tenants := []string{"alice", "bob", "carol"}
	nodes := []string{"dev-a", "dev-b", "dev-c"}
	addNode := func(n string) {
		if _, err := c.AddNodeSlots(testBackend(t, n), 4); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		addNode(n)
	}
	// pick returns a random job (by sorted name, for a reproducible run)
	// among those keep accepts, or false when there is none.
	pick := func(keep func(api.QuantumJob) bool) (api.QuantumJob, bool) {
		jobs := c.Jobs.ListFunc(keep)
		if len(jobs) == 0 {
			return api.QuantumJob{}, false
		}
		sort.Slice(jobs, func(a, b int) bool { return jobs[a].Name < jobs[b].Name })
		return jobs[rng.Intn(len(jobs))], true
	}
	inPhase := func(p api.JobPhase) func(api.QuantumJob) bool {
		return func(j api.QuantumJob) bool { return j.Status.Phase == p }
	}
	move := func(p api.JobPhase, ev api.JobEvent) string {
		if j, ok := pick(inPhase(p)); ok {
			c.TransitionJob(j.Name, ev, Transition{Node: j.Status.Node})
			return fmt.Sprintf("%s %s", ev, j.Name)
		}
		return "nothing to " + string(ev)
	}
	submitted := 0
	for step := 0; step < steps; step++ {
		if !frozen {
			clk.advance(time.Duration(rng.Intn(3)) * time.Second) // 0 s makes ties too
		}
		var did string
		switch r := rng.Intn(13); r {
		case 0, 1, 2:
			// Names are not in submission order, so the tie-break matters.
			name := fmt.Sprintf("%c%03d", 'a'+rng.Intn(26), submitted)
			submitted++
			if _, err := c.SubmitJob(tenantFidelityJob(name, tenants[rng.Intn(len(tenants))], 1)); err != nil {
				t.Fatal(err)
			}
			did = "submit " + name
		case 3, 4:
			did = "nothing to bind"
			if j, ok := pick(inPhase(api.JobPending)); ok {
				n := nodes[rng.Intn(len(nodes))]
				c.BindJob(j.Name, n, 0.5) // a full or deleted node refuses
				did = "bind " + j.Name + " to " + n
			}
		case 5:
			did = move(api.JobScheduled, api.JobEventClaim)
		case 6:
			did = "nothing to cancel"
			if j, ok := pick(func(api.QuantumJob) bool { return true }); ok {
				c.CancelJob(j.Name) // every phase: terminal ones refuse
				did = "cancel " + j.Name + " (" + string(j.Status.Phase) + ")"
			}
		case 7:
			did = move(api.JobRunning, []api.JobEvent{api.JobEventSucceed, api.JobEventFail, api.JobEventAbort}[rng.Intn(3)])
		case 8:
			did = move(api.JobFailed, api.JobEventRetry)
		case 9:
			did = move([]api.JobPhase{api.JobScheduled, api.JobRunning}[rng.Intn(2)], api.JobEventRequeue)
		case 10:
			// Node delete or a flip of its phase: its jobs stay filed under
			// it until the requeue (the controller's part) lands — only
			// some of them here.
			n := nodes[rng.Intn(len(nodes))]
			did = "re-add " + n
			node, _, err := c.Nodes.Get(n)
			if err != nil {
				addNode(n)
				break
			}
			if rng.Intn(2) == 0 {
				phase := map[api.NodePhase]api.NodePhase{api.NodeReady: api.NodeNotReady, api.NodeNotReady: api.NodeReady}[node.Status.Phase]
				c.Nodes.Update(n, func(node api.Node) (api.Node, error) {
					node.Status.Phase = phase
					return node, nil
				})
				did = fmt.Sprintf("mark %s %s", n, phase)
				break
			}
			c.Nodes.Delete(n)
			did = "delete " + n
			for _, j := range c.Jobs.ListFunc(func(j api.QuantumJob) bool { return j.Status.Node == n }) {
				if rng.Intn(2) == 0 {
					c.TransitionJob(j.Name, api.JobEventRequeue, Transition{})
				}
			}
		default:
			did = fmt.Sprintf("archive %d", c.ArchiveTerminal(clk.Now(), RetentionPolicy{MaxTerminalCount: rng.Intn(4)}))
		}
		if err := c.CheckIndexes(); err != nil {
			t.Fatalf("step %d (%s): %v", step, did, err)
		}
		checkReaders(t, c, nodes, fmt.Sprintf("step %d (%s)", step, did))
	}
}

// TestCheckIndexesCoversEveryOrder drops one job from each hook-fed order
// behind its hook's back: CheckIndexes must name that order.
func TestCheckIndexesCoversEveryOrder(t *testing.T) {
	for _, tc := range []struct {
		index string
		order func(c *Cluster) *jobOrder
	}{
		{"pending", func(c *Cluster) *jobOrder { return c.pending }},
		{"placed", func(c *Cluster) *jobOrder { return c.scheduled.jobOrder }},
		{"terminal", func(c *Cluster) *jobOrder { return c.terminal }},
		{"failed", func(c *Cluster) *jobOrder { return c.failed }},
	} {
		t.Run(tc.index, func(t *testing.T) {
			c := New()
			if _, err := c.AddNodeSlots(testBackend(t, "dev-a"), 4); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"waits", "runs", "fails"} {
				if _, err := c.SubmitJob(tenantFidelityJob(name, "alice", 1)); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range []string{"runs", "fails"} {
				if err := c.BindJob(name, "dev-a", 0.5); err != nil {
					t.Fatal(err)
				}
				c.TransitionJob(name, api.JobEventClaim, Transition{Node: "dev-a"})
			}
			c.TransitionJob("fails", api.JobEventFail, Transition{Node: "dev-a"})
			if err := c.CheckIndexes(); err != nil {
				t.Fatal(err)
			}
			o := tc.order(c)
			o.mu.Lock()
			for name, ref := range o.member {
				o.removeLocked(name, ref)
				break
			}
			o.mu.Unlock()
			if err := c.CheckIndexes(); err == nil || !strings.Contains(err.Error(), tc.index+" index") {
				t.Fatalf("CheckIndexes after dropping a %s job = %v", tc.index, err)
			}
		})
	}
}

// checkReaders holds PendingJobs, ScheduledJobs, PlacedJobs, FailedJobs,
// StrandedNodes, PendingCount and TerminalCount to the store: the same
// jobs, in the order each promises.
func checkReaders(t *testing.T, c *Cluster, nodes []string, at string) {
	t.Helper()
	byTime := func(keep func(api.QuantumJob) bool, at func(api.QuantumJob) time.Time) []string {
		jobs := c.Jobs.ListFunc(keep)
		sort.Slice(jobs, func(a, b int) bool {
			if ta, tb := at(jobs[a]), at(jobs[b]); !ta.Equal(tb) {
				return ta.Before(tb)
			}
			return jobs[a].Name < jobs[b].Name
		})
		return jobNames(jobs)
	}
	want := func(keep func(api.QuantumJob) bool) []string {
		return byTime(keep, func(j api.QuantumJob) time.Time { return j.CreatedAt })
	}
	same := func(what string, got []api.QuantumJob, want []string) {
		t.Helper()
		if g := jobNames(got); fmt.Sprint(g) != fmt.Sprint(want) {
			t.Fatalf("%s: %s = %v, store says %v", at, what, g, want)
		}
	}
	pending := want(func(j api.QuantumJob) bool { return j.Status.Phase == api.JobPending })
	same("PendingJobs", c.PendingJobs(), pending)
	if n := c.PendingCount(); n != len(pending) {
		t.Fatalf("%s: PendingCount = %d, store says %d", at, n, len(pending))
	}
	for _, n := range nodes {
		same("ScheduledJobs("+n+")", c.ScheduledJobs(n), want(func(j api.QuantumJob) bool {
			return j.Status.Phase == api.JobScheduled && j.Status.Node == n
		}))
		same("PlacedJobs("+n+")", c.PlacedJobs(n), want(func(j api.QuantumJob) bool {
			return (j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning) && j.Status.Node == n
		}))
	}
	failed := func(j api.QuantumJob) bool { return j.Status.Phase == api.JobFailed }
	same("FailedJobs", c.FailedJobs(func(*api.QuantumJob) bool { return true }), byTime(failed, func(j api.QuantumJob) time.Time {
		if j.Status.FinishedAt != nil {
			return *j.Status.FinishedAt
		}
		return j.CreatedAt
	}))
	stranded := map[string]bool{}
	for _, j := range c.Jobs.ListFunc(func(j api.QuantumJob) bool {
		return j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning
	}) {
		n, _, err := c.Nodes.Get(j.Status.Node)
		stranded[j.Status.Node] = err != nil || n.Status.Phase != api.NodeReady
	}
	got := c.StrandedNodes()
	sort.Strings(got)
	var wantStranded []string
	for n, s := range stranded {
		if s {
			wantStranded = append(wantStranded, n)
		}
	}
	sort.Strings(wantStranded)
	if fmt.Sprint(got) != fmt.Sprint(wantStranded) {
		t.Fatalf("%s: StrandedNodes = %v, store says %v", at, got, wantStranded)
	}
	if got, want := c.TerminalCount(), len(c.Jobs.ListFunc(func(j api.QuantumJob) bool { return j.Status.Phase.Terminal() })); got != want {
		t.Fatalf("%s: TerminalCount = %d, store says %d", at, got, want)
	}
}

func jobNames(jobs []api.QuantumJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Name
	}
	return out
}
