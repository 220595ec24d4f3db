package durability

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/archive"
	"qrio/internal/cluster/controller"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/cluster/wal"
	"qrio/internal/device"
	"qrio/internal/graph"
)

func testBackend(t *testing.T, name string) *device.Backend {
	t.Helper()
	b, err := device.UniformBackend(name, graph.Line(5), 0.1, 0.01, 0.05, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func job(name, tenant string) api.QuantumJob {
	return api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.JobSpec{
			QASM:     "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];",
			Strategy: api.StrategyFidelity, TargetFidelity: 0.9,
			Tenant: tenant,
		},
	}
}

func mustOpen(t *testing.T, c *state.Cluster, dir string) *Manager {
	t.Helper()
	m, err := Open(c, Options{Dir: dir, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func setRunning(t *testing.T, c *state.Cluster, name string, cancelRequested bool) {
	t.Helper()
	now := time.Now()
	_, _, err := c.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
		j.Status.Phase = api.JobRunning
		j.Status.StartedAt = &now
		j.Status.CancelRequested = cancelRequested
		return j, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func jobNames(jobs []api.QuantumJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Name
	}
	sort.Strings(out)
	return out
}

// TestRestartRoundtrip is the core crash-restart story: every store,
// every hook-fed index, tenant overrides and the UID sequence survive a
// close-and-reopen, and jobs that were Running come back Pending.
func TestRestartRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)

	if _, err := c.AddNode(testBackend(t, "dev-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(testBackend(t, "dev-b")); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"p1", "p2", "s1", "r1"} {
		if _, err := c.SubmitJob(job(n, "alice")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BindJob("s1", "dev-a", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("r1", "dev-b", 0.5); err != nil {
		t.Fatal(err)
	}
	setRunning(t, c, "r1", false)
	if _, err := c.SetTenantConfig(api.TenantConfig{
		ObjectMeta: api.ObjectMeta{Name: "alice"},
		Weight:     7,
		Quota:      api.TenantQuota{MaxActive: 3},
	}); err != nil {
		t.Fatal(err)
	}
	c.RecordEvent("Informational", "p1", "Test", "pre-crash event")
	preEvents := c.Events.Len()
	preUID := uidSuffix(c.NextUID("probe"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := state.New()
	m2 := mustOpen(t, c2, dir)
	defer m2.Close()
	st := m2.Stats()
	if st.Replay.ReplayedRecords == 0 {
		t.Fatalf("no records replayed: %+v", st.Replay)
	}
	if st.Replay.RequeuedJobs != 1 {
		t.Fatalf("requeued = %d, want 1 (r1)", st.Replay.RequeuedJobs)
	}

	// Objects back, with the orphaned Running job re-queued.
	if got := jobNames(c2.Jobs.List()); !equalStrings(got, []string{"p1", "p2", "r1", "s1"}) {
		t.Fatalf("jobs after restart: %v", got)
	}
	r1, _, err := c2.Jobs.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status.Phase != api.JobPending || r1.Status.Node != "" || r1.Status.StartedAt != nil {
		t.Fatalf("orphan not requeued: %+v", r1.Status)
	}
	s1, _, _ := c2.Jobs.Get("s1")
	if s1.Status.Phase != api.JobScheduled || s1.Status.Node != "dev-a" {
		t.Fatalf("scheduled job mangled: %+v", s1.Status)
	}

	// Hook-fed indexes must match a from-scratch rebuild of the same data.
	if err := c2.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	wantPending := c2.Jobs.ListFunc(func(j api.QuantumJob) bool { return j.Status.Phase == api.JobPending })
	usage := c2.TenantUsage("alice")
	if usage.Pending != len(wantPending) || usage.Active != 1 {
		t.Fatalf("usage index after restart: %+v", usage)
	}

	// Tenant override (weight and quota) survived and is live.
	if w, ok := c2.TenantWeight("alice"); !ok || w != 7 {
		t.Fatalf("tenant weight = %d %v", w, ok)
	}
	if q := c2.QuotaFor("alice"); q.MaxActive != 3 {
		t.Fatalf("quota = %+v", q)
	}

	// Events and the UID sequence carried over: no identifier is re-minted.
	if c2.Events.Len() < preEvents {
		t.Fatalf("events lost: %d < %d", c2.Events.Len(), preEvents)
	}
	if got := uidSuffix(c2.NextUID("probe")); got <= preUID {
		t.Fatalf("UID floor regressed: %d <= %d", got, preUID)
	}

	// The node is back and usable.
	if _, err := c2.Backend("dev-a"); err != nil {
		t.Fatal(err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotCompaction: records before the snapshot come back from the
// snapshot (skipped in the logs), records after it from the logs, and the
// pre-snapshot generation's files are gone.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	for i := 0; i < 5; i++ {
		if _, err := c.SubmitJob(job("pre-"+strconv.Itoa(i), "a")); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("gen = %d", gen)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.SubmitJob(job("post-"+strconv.Itoa(i), "a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "g0.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("generation 0 log survived the snapshot (stat: %v)", err)
	}

	c2 := state.New()
	m2 := mustOpen(t, c2, dir)
	defer m2.Close()
	st := m2.Stats()
	if !st.Replay.SnapshotLoaded || st.Replay.SnapshotGen != 1 {
		t.Fatalf("snapshot not loaded: %+v", st.Replay)
	}
	if st.Replay.RestoredObjects == 0 || st.Replay.ReplayedRecords == 0 {
		t.Fatalf("expected both restore and replay: %+v", st.Replay)
	}
	if c2.Jobs.Len() != 10 {
		t.Fatalf("jobs = %d, want 10", c2.Jobs.Len())
	}
	// Version continuity: the next mutation must not reuse a replayed
	// version (watch positions would silently alias).
	before := c2.Jobs.Version()
	if _, err := c2.SubmitJob(job("fresh", "a")); err != nil {
		t.Fatal(err)
	}
	if c2.Jobs.Version() <= before {
		t.Fatal("version did not advance past replayed history")
	}
}

// TestResumeTokens: a token minted at shutdown resumes cleanly after a
// log-only restart; after a snapshot-restored restart, positions below
// the snapshot are compacted away and must fail with the typed 410.
func TestResumeTokens(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	_, early, cancel, _ := c.Subscribe(8, state.ResumeToken{})
	cancel()
	for i := 0; i < 8; i++ {
		if _, err := c.SubmitJob(job("j"+strconv.Itoa(i), "a")); err != nil {
			t.Fatal(err)
		}
	}
	_, atClose, cancel2, _ := c.Subscribe(8, state.ResumeToken{})
	cancel2()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Log-only restart: the journal is rebuilt by replay, so both the
	// zero-position token and the at-close token still resolve.
	c2 := state.New()
	m2 := mustOpen(t, c2, dir)
	for _, tok := range []state.ResumeToken{early, atClose} {
		ch, _, stop, err := c2.Subscribe(8, tok)
		if err != nil {
			t.Fatalf("token %s after log replay: %v", tok, err)
		}
		stop()
		drain(ch)
	}
	if _, err := m2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Snapshot-restored restart: history below the snapshot is gone.
	c3 := state.New()
	m3 := mustOpen(t, c3, dir)
	defer m3.Close()
	if _, _, _, err := c3.Subscribe(8, early); !errors.Is(err, store.ErrCompacted) {
		t.Fatalf("early token after snapshot: err=%v, want ErrCompacted", err)
	}
	ch, _, stop, err := c3.Subscribe(8, atClose)
	if err != nil {
		t.Fatalf("at-close token after snapshot: %v", err)
	}
	stop()
	drain(ch)
}

func drain(ch <-chan state.Notification) {
	for range ch {
	}
}

// populate writes 16 jobs and closes, returning the log file for the
// corruption cases to damage.
func populate(t *testing.T, dir string) string {
	t.Helper()
	c := state.New()
	m := mustOpen(t, c, dir)
	for i := 0; i < 16; i++ {
		if _, err := c.SubmitJob(job("job-"+strconv.Itoa(i), "a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "wal", "g0.wal")
	if info, err := os.Stat(log); err != nil || info.Size() == 0 {
		t.Fatalf("no log file: %v", err)
	}
	return log
}

// TestCorruptionRecovery drives the three crash-damage shapes the design
// promises to absorb: a torn tail, a CRC-corrupt record, and a
// half-written snapshot temp file. Each reopens successfully with at most
// the damaged suffix of the log lost.
func TestCorruptionRecovery(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir, walFile string)
		lost    int // jobs lost out of 16
	}{
		{
			name: "torn tail",
			corrupt: func(t *testing.T, dir, walFile string) {
				f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte{0xDE, 0xAD, 0xBE})
				f.Close()
			},
			lost: 0,
		},
		{
			name: "crc mismatch in final record",
			corrupt: func(t *testing.T, dir, walFile string) {
				res, err := wal.ScanFile(walFile)
				if err != nil || len(res.Records) == 0 {
					t.Fatalf("scan: %v (%d records)", err, len(res.Records))
				}
				// The last jobs record is the second to last of the log
				// (job-15's Submitted event follows it).
				final := len(res.Records) - 2
				if !strings.Contains(string(res.Records[final]), `"s":"jobs"`) {
					t.Fatalf("record %d is %s, want job-15's create", final, res.Records[final])
				}
				raw, _ := os.ReadFile(walFile)
				raw[res.Offsets[final]+8] ^= 0xFF
				if err := os.WriteFile(walFile, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			lost: 1,
		},
		{
			name: "half-written snapshot temp file",
			corrupt: func(t *testing.T, dir, walFile string) {
				junk := filepath.Join(dir, "snapshot.json.tmp-12345")
				if err := os.WriteFile(junk, []byte("partial garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			lost: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			walFile := populate(t, dir)
			tc.corrupt(t, dir, walFile)
			c := state.New()
			m := mustOpen(t, c, dir)
			defer m.Close()
			if got := c.Jobs.Len(); got != 16-tc.lost {
				t.Fatalf("jobs after recovery = %d, want %d", got, 16-tc.lost)
			}
			if tc.lost > 0 && m.Stats().Replay.TruncatedTails == 0 {
				t.Fatal("corrupt record recovered without a truncation")
			}
			if leftover, _ := filepath.Glob(filepath.Join(dir, "snapshot.json.tmp*")); len(leftover) != 0 {
				t.Fatalf("temp snapshot files survived boot: %v", leftover)
			}
			// The truncated log accepts appends again.
			if _, err := c.SubmitJob(job("after-recovery", "a")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCorruptSnapshotIsFatal: damage to the snapshot body itself must
// refuse to boot — the generations behind it are deleted, so "skip it"
// would be silent data loss.
func TestCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	if _, err := c.SubmitJob(job("j", "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	path := filepath.Join(dir, "snapshot.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(state.New(), Options{Dir: dir, SnapshotInterval: -1}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupt snapshot booted: err=%v", err)
	}
}

// TestArchiveReloadAndTombstones: archived jobs come back across a
// restart, removed ones stay removed, and a job present in both tiers
// (crash between archive-put and hot-delete) resolves hot-wins.
func TestArchiveReloadAndTombstones(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	now := time.Now()
	done := job("done", "a")
	done.Status.Phase = api.JobSucceeded
	gone := job("gone", "a")
	gone.Status.Phase = api.JobFailed
	// "both" lives in the hot store AND the archive — the shape a crash
	// between the sweep's archive-put and hot-delete leaves behind. Submit
	// first: live submission refuses names the archive already holds.
	if _, err := c.SubmitJob(job("both", "a")); err != nil {
		t.Fatal(err)
	}
	both, _, err := c.Jobs.Get("both")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []archive.Entry{
		{Job: done, ArchivedAt: now},
		{Job: gone, ArchivedAt: now},
		{Job: both, ArchivedAt: now},
	} {
		if err := c.Archived.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	c.Archived.Remove("gone")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := state.New()
	m2 := mustOpen(t, c2, dir)
	defer m2.Close()
	st := m2.Stats()
	if st.Replay.ArchivedEntries == 0 {
		t.Fatalf("archive not reloaded: %+v", st.Replay)
	}
	if !c2.Archived.Has("done") {
		t.Fatal("archived job lost")
	}
	if c2.Archived.Has("gone") {
		t.Fatal("tombstoned job resurrected")
	}
	if c2.Archived.Has("both") {
		t.Fatal("double-tier job not reconciled hot-wins")
	}
	if st.Replay.TombstonedJobs != 1 {
		t.Fatalf("tombstoned = %d, want 1", st.Replay.TombstonedJobs)
	}
	if _, _, err := c2.Jobs.Get("both"); err != nil {
		t.Fatalf("hot copy lost in reconcile: %v", err)
	}
}

// TestCancelRequestedOrphanResolves: a Running job whose cancellation was
// in flight when the process died completes the cancel on boot instead of
// being re-queued.
func TestCancelRequestedOrphanResolves(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	if _, err := c.AddNode(testBackend(t, "dev-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(job("doomed", "a")); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("doomed", "dev-a", 0.5); err != nil {
		t.Fatal(err)
	}
	setRunning(t, c, "doomed", true)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := state.New()
	m2 := mustOpen(t, c2, dir)
	defer m2.Close()
	j, _, err := c2.Jobs.Get("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if j.Status.Phase != api.JobCancelled {
		t.Fatalf("phase = %s, want Cancelled", j.Status.Phase)
	}
	if j.Status.FinishedAt == nil || !strings.Contains(j.Status.Message, "restart") {
		t.Fatalf("cancel completion not recorded: %+v", j.Status)
	}
}

// TestWriterErrorSurfacesInStats: a failed WAL append latches into the
// admin stats rather than vanishing.
func TestWriterErrorSurfacesInStats(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	defer m.Close()
	m.noteWALErr(errors.New("disk on fire"))
	st := m.Stats()
	if !strings.Contains(st.WALError, "disk on fire") {
		t.Fatalf("WALError = %q", st.WALError)
	}
}

// bootClock is a hand-set time source shared by a cluster and its
// controller.
type bootClock struct{ now time.Time }

func (b *bootClock) Now() time.Time { return b.now }

// TestReplayedNodesGetOneTimeoutOfGrace is the kill-and-replay story for
// node liveness, with the kubelets NOT coming back: heartbeats are
// volatile, so the restarted daemon knows nothing about when a replayed
// node was last alive — and must not trust the journaled pre-crash stamp,
// which is arbitrarily old. Every replayed node counts as alive as of
// boot: Ready for one NodeTimeout, then NotReady, and only then are the
// jobs stranded on it requeued.
func TestReplayedNodesGetOneTimeoutOfGrace(t *testing.T) {
	dir := t.TempDir()
	clk := &bootClock{now: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)}
	c := state.New()
	c.Clock = clk
	m := mustOpen(t, c, dir)
	if _, err := c.AddNode(testBackend(t, "dev-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(job("stranded", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := c.BindJob("stranded", "dev-a", 0.5); err != nil {
		t.Fatal(err)
	}
	walBefore := m.Stats().WALRecords
	c.Heartbeat("dev-a", clk.now.Add(time.Second))
	if got := m.Stats().WALRecords; got != walBefore {
		t.Fatalf("a heartbeat appended %d WAL records", got-walBefore)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon stays down for an hour; the kubelets never return.
	clk.now = clk.now.Add(time.Hour)
	boot := clk.now
	c2 := state.New()
	c2.Clock = clk
	m2 := mustOpen(t, c2, dir)
	defer m2.Close()
	if last, ok := c2.LastHeartbeat("dev-a"); !ok || !last.Equal(boot) {
		t.Fatalf("replayed node liveness = %v %v, want seeded at boot %v", last, ok, boot)
	}
	ctl := controller.New(c2)
	ctl.Clock = clk
	ctl.NodeTimeout = 2 * time.Second
	ctl.StuckTimeout = time.Millisecond

	phaseOf := func() (api.NodePhase, api.JobPhase) {
		n, _, err := c2.Nodes.Get("dev-a")
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := c2.Jobs.Get("stranded")
		if err != nil {
			t.Fatal(err)
		}
		return n.Status.Phase, j.Status.Phase
	}
	walAtBoot := m2.Stats().WALRecords
	ctl.ReconcileOnce()
	clk.now = boot.Add(ctl.NodeTimeout)
	ctl.ReconcileOnce()
	if node, jobPhase := phaseOf(); node != api.NodeReady || jobPhase != api.JobScheduled {
		t.Fatalf("inside the grace period: node %s, job %s", node, jobPhase)
	}
	if got := m2.Stats().WALRecords; got != walAtBoot {
		t.Fatalf("reconciling a quiet fleet appended %d WAL records", got-walAtBoot)
	}

	clk.now = boot.Add(ctl.NodeTimeout + time.Second)
	ctl.ReconcileOnce()
	if node, jobPhase := phaseOf(); node != api.NodeNotReady || jobPhase != api.JobPending {
		t.Fatalf("after the grace period: node %s, job %s", node, jobPhase)
	}
	if n, _, _ := c2.Nodes.Get("dev-a"); len(c2.LiveNode(n).Status.RunningJobs) != 0 {
		t.Fatalf("requeued job still holds its slot: %v", n.Status.RunningJobs)
	}
}
