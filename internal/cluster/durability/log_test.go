package durability

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/cluster/wal"
)

// fsyncCount attaches an observer counting the log's real fsyncs and the
// records they covered.
func fsyncCount(m *Manager) (fsyncs, covered *atomic.Int64) {
	fsyncs, covered = new(atomic.Int64), new(atomic.Int64)
	m.log.SetObserver(&wal.Observer{
		Wrote:  func(int) {},
		Synced: func(n int64, _ time.Duration) { fsyncs.Add(1); covered.Add(n) },
		Waited: func(time.Duration) {},
	})
	return fsyncs, covered
}

// TestMutationReturnsDurable pins invariant 1: when a mutating call
// returns, every record it wrote is on disk — the barrier that follows
// finds nothing pending and runs no fsync — and the state layer's
// multi-record paths got there with exactly one fsync each.
func TestMutationReturnsDurable(t *testing.T) {
	c := state.New()
	m, err := Open(c, Options{Dir: t.TempDir(), Fsync: true, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fsyncs, covered := fsyncCount(m)

	step := func(name string, wantRecords int64, fn func() error) {
		t.Helper()
		f0, r0 := fsyncs.Load(), covered.Load()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f1, r1 := fsyncs.Load(), covered.Load()
		if f1-f0 != 1 || r1-r0 != wantRecords {
			t.Fatalf("%s: %d fsyncs covering %d records, want 1 covering %d", name, f1-f0, r1-r0, wantRecords)
		}
		if m.log.Written() != r1 {
			t.Fatalf("%s returned with %d records written and %d durable", name, m.log.Written(), r1)
		}
		m.Sync()
		if fsyncs.Load() != f1 {
			t.Fatalf("%s returned with writes pending: the barrier had to fsync", name)
		}
	}
	step("AddNode", 1, func() error { _, err := c.AddNode(testBackend(t, "dev-a")); return err })
	step("SubmitJob", 3, func() error {
		_, err := c.SubmitJob(job("j1", "alice"), state.Note{Reason: "Containerized", Message: "image pushed"})
		return err
	})
	step("BindJob", 2, func() error { return c.BindJob("j1", "dev-a", 0.5) })
	step("claim", 1, func() error {
		_, err := c.TransitionJob("j1", api.JobEventClaim, state.Transition{Node: "dev-a"})
		return err
	})
	step("finish", 3, func() error {
		_, err := c.TransitionJob("j1", api.JobEventSucceed, state.Transition{
			Node:   "dev-a",
			Result: &api.Result{ObjectMeta: api.ObjectMeta{Name: "j1"}, JobName: "j1", Node: "dev-a"},
		})
		return err
	})
	step("RecordEvent", 1, func() error { c.RecordEvent("Job", "j1", "Noted", "by hand"); return nil })
	step("SetTenantConfig", 1, func() error {
		_, err := c.SetTenantConfig(api.TenantConfig{ObjectMeta: api.ObjectMeta{Name: "alice"}, Weight: 2})
		return err
	})
	step("store Update", 1, func() error {
		_, _, err := c.Nodes.Update("dev-a", func(n api.Node) (api.Node, error) { n.Spec.MaxContainers = 2; return n, nil })
		return err
	})
	step("store Delete", 1, func() error { return c.Results.Delete("j1") })
	if _, err := c.SubmitJob(job("j2", "alice")); err != nil {
		t.Fatal(err)
	}
	step("CancelJob", 2, func() error { _, err := c.CancelJob("j2"); return err })
	// The whole lifecycle of j1 above: 9 records behind 4 fsyncs.
}

// fingerprint lists every resident object as "store/name@version", sorted.
func fingerprint(c *state.Cluster) string {
	var out []string
	c.Jobs.Range(func(j api.QuantumJob, v int64) bool {
		out = append(out, fmt.Sprintf("jobs/%s@%d:%s", j.Name, v, j.Status.Message))
		return true
	})
	c.Nodes.Range(func(n api.Node, v int64) bool {
		out = append(out, fmt.Sprintf("nodes/%s@%d:%v", n.Name, v, c.LiveNode(n).Status.RunningJobs))
		return true
	})
	c.Events.Range(func(e api.Event, v int64) bool {
		out = append(out, fmt.Sprintf("events/%s@%d", e.Name, v))
		return true
	})
	c.Results.Range(func(r api.Result, v int64) bool {
		out = append(out, fmt.Sprintf("results/%s@%d", r.Name, v))
		return true
	})
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestRecoveryIsAPrefixAcrossStores pins invariant 3: a log cut anywhere —
// on a record boundary or inside a record — recovers exactly the state
// after the first k mutations, in the order they were made, whichever
// stores they touched. (Per-shard files could not promise this: a later
// write to one store could survive an earlier write to another.)
func TestRecoveryIsAPrefixAcrossStores(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	// One record per step, hopping between stores and shards; the expected
	// state after each is captured live.
	prints := []string{fingerprint(c)}
	do := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, fingerprint(c))
	}
	_, err := c.AddNode(testBackend(t, "dev-a"))
	do(err)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("job-%d", i)
		_, err := c.Jobs.Create(job(name, "a"))
		do(err)
		_, err = c.Events.Create(api.Event{ObjectMeta: api.ObjectMeta{Name: "ev-" + name}, About: name})
		do(err)
		_, _, err = c.Nodes.Update("dev-a", func(n api.Node) (api.Node, error) {
			n.Status.RunningJobs = append(n.Status.RunningJobs, name)
			return n, nil
		})
		do(err)
		_, _, err = c.Jobs.Update(name, func(j api.QuantumJob) (api.QuantumJob, error) {
			j.Status.Message = "touched after the node"
			return j, nil
		})
		do(err)
		_, err = c.Results.Create(api.Result{ObjectMeta: api.ObjectMeta{Name: name}, JobName: name})
		do(err)
	}
	do(c.Events.Delete("ev-job-0"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "wal", "g0.wal")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	scan := wal.Scan(raw)
	if len(scan.Records) != len(prints)-1 {
		t.Fatalf("log holds %d records for %d mutations", len(scan.Records), len(prints)-1)
	}
	recoverAt := func(cut int64) string {
		t.Helper()
		d := t.TempDir()
		if err := os.MkdirAll(filepath.Join(d, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "wal", "g0.wal"), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c2 := state.New()
		m2 := mustOpen(t, c2, d)
		defer m2.Close()
		return fingerprint(c2)
	}
	ends := append(scan.Offsets[1:], scan.ValidBytes) // ends[k-1] = end of record k
	for k := 0; k <= len(scan.Records); k++ {
		cut := int64(0)
		if k > 0 {
			cut = ends[k-1]
		}
		if got := recoverAt(cut); got != prints[k] {
			t.Fatalf("log cut after %d records recovered\n%s\nwant the state after %d mutations\n%s", k, got, k, prints[k])
		}
		if k < len(scan.Records) { // a tear inside record k+1 recovers the same prefix
			if got := recoverAt(cut + (ends[k]-cut)/2); got != prints[k] {
				t.Fatalf("log torn inside record %d did not recover the %d-record prefix", k+1, k)
			}
		}
	}
}

// TestSlimNodeRecordsReplayIdentical: a node's phase changes journal it
// without its immutable backend bytes, replay restores them from the
// resident node, and the rebuilt nodes are byte-identical — across a plain
// restart, across a snapshot, and after a refresh that changes the bytes.
func TestSlimNodeRecordsReplayIdentical(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	for _, n := range []string{"dev-a", "dev-b"} {
		if _, err := c.AddNodeSlots(testBackend(t, n), 4); err != nil {
			t.Fatal(err)
		}
	}
	churn := func(c *state.Cluster) {
		t.Helper()
		for _, node := range []string{"dev-a", "dev-b"} {
			for _, phase := range []api.NodePhase{api.NodeNotReady, api.NodeReady} {
				if _, _, err := c.Nodes.Update(node, func(n api.Node) (api.Node, error) {
					n.Status.Phase = phase
					return n, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	nodesJSON := func(c *state.Cluster) string {
		nodes := c.Nodes.List()
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
		raw, err := json.Marshal(nodes)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	nodeRecords := func(gen int) (whole, slim int, bytes int64) {
		t.Helper()
		res, err := wal.ScanFile(filepath.Join(dir, "wal", fmt.Sprintf("g%d.wal", gen)))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.Records {
			if !strings.Contains(string(rec), `"s":"nodes"`) {
				continue
			}
			bytes += int64(len(rec))
			if strings.Contains(string(rec), `"backendJSON":null`) {
				slim++
			} else {
				whole++
			}
		}
		return whole, slim, bytes
	}

	churn(c)
	want := nodesJSON(c)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// 2 Added records whole; 4 phase changes slim.
	if whole, slim, _ := nodeRecords(0); whole != 2 || slim != 4 {
		t.Fatalf("generation 0 holds %d whole and %d slim node records, want 2 and 4", whole, slim)
	}

	c2 := state.New()
	m2 := mustOpen(t, c2, dir)
	if got := nodesJSON(c2); got != want {
		t.Fatalf("nodes rebuilt from slim records differ:\n got %s\nwant %s", got, want)
	}
	// After a boot the first record of each node is whole again (nothing
	// journaled in this process to be equal to), the rest slim; a snapshot
	// in between must not disturb that.
	if _, err := m2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	churn(c2)
	// A refresh with new bytes is journaled whole and remembered.
	drifted := testBackend(t, "dev-a")
	drifted.CPUMillis += 1000
	if _, err := c2.RefreshNode(drifted); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.SubmitJob(job("after-refresh", "a")); err != nil {
		t.Fatal(err)
	}
	if err := c2.BindJob("after-refresh", "dev-a", 0.5); err != nil {
		t.Fatal(err)
	}
	want = nodesJSON(c2)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if whole, slim, _ := nodeRecords(1); whole != 3 || slim != 2 {
		t.Fatalf("generation 1 holds %d whole and %d slim node records, want 3 and 2", whole, slim)
	}

	c3 := state.New()
	m3 := mustOpen(t, c3, dir)
	defer m3.Close()
	if got := nodesJSON(c3); got != want {
		t.Fatalf("nodes rebuilt over a snapshot differ:\n got %s\nwant %s", got, want)
	}
	b, err := c3.Backend("dev-a")
	if err != nil || b.CPUMillis != drifted.CPUMillis {
		t.Fatalf("refreshed backend after replay: %+v err=%v", b, err)
	}
}

// oldLayoutFile writes a file of the per-(store, shard) layout into dir's
// wal directory.
func oldLayoutFile(t *testing.T, dir, name string, records ...string) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal", name)
	w, err := wal.OpenWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOldLayoutRefusesLoudly: records left in per-shard WAL files by the
// previous layout refuse the boot with the fix named — never a silent skip
// — whether or not a snapshot exists; once the snapshot's generation has
// passed them they are dead weight and go.
func TestOldLayoutRefusesLoudly(t *testing.T) {
	const rec = `{"t":"ADDED","v":1,"o":{"metadata":{"name":"lost-if-skipped"}}}`
	t.Run("no snapshot", func(t *testing.T) {
		dir := t.TempDir()
		path := oldLayoutFile(t, dir, "jobs-s3-g0.wal", rec)
		_, err := Open(state.New(), Options{Dir: dir, SnapshotInterval: -1})
		if err == nil || !strings.Contains(err.Error(), "previous qrio binary") || !strings.Contains(err.Error(), path) {
			t.Fatalf("old-layout records booted, or the refusal does not name the file and the fix: %v", err)
		}
		if _, serr := os.Stat(path); serr != nil {
			t.Fatalf("the refused file was touched: %v", serr)
		}
	})
	t.Run("at the snapshot generation", func(t *testing.T) {
		dir := t.TempDir()
		c := state.New()
		m := mustOpen(t, c, dir)
		if _, err := c.SubmitJob(job("kept", "a")); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Snapshot(); err != nil { // generation 1
			t.Fatal(err)
		}
		m.Close()
		oldLayoutFile(t, dir, "jobs-s3-g1.wal", rec)
		if _, err := Open(state.New(), Options{Dir: dir, SnapshotInterval: -1}); err == nil {
			t.Fatal("old-layout records at the snapshot's generation booted")
		}
	})
	t.Run("behind the snapshot generation", func(t *testing.T) {
		dir := t.TempDir()
		c := state.New()
		m := mustOpen(t, c, dir)
		if _, err := m.Snapshot(); err != nil { // generation 1
			t.Fatal(err)
		}
		m.Close()
		path := oldLayoutFile(t, dir, "jobs-s3-g0.wal", rec)
		m2 := mustOpen(t, state.New(), dir)
		defer m2.Close()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("covered old-layout file survived the boot (stat: %v)", err)
		}
	})
}

// TestOldLayoutEmptyFilesAreRemoved: the previous binary's clean shutdown
// leaves its 80 per-shard files empty (the drain snapshot rotated them);
// they are removed and the boot proceeds on the new layout.
func TestOldLayoutEmptyFilesAreRemoved(t *testing.T) {
	dir := t.TempDir()
	c := state.New()
	m := mustOpen(t, c, dir)
	if _, err := c.SubmitJob(job("kept", "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	os.Remove(filepath.Join(dir, "wal", "g1.wal")) // the old binary never wrote one
	var old []string
	for _, s := range []string{"jobs", "nodes", "results", "events", "tenants"} {
		for shard := 0; shard < store.DefaultShards; shard++ {
			old = append(old, oldLayoutFile(t, dir, fmt.Sprintf("%s-s%d-g1.wal", s, shard)))
		}
	}
	c2 := state.New()
	m2 := mustOpen(t, c2, dir)
	defer m2.Close()
	for _, path := range old {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("empty old-layout file %s survived the boot", path)
		}
	}
	if _, _, err := c2.Jobs.Get("kept"); err != nil {
		t.Fatalf("snapshot content lost: %v", err)
	}
	if _, err := c2.SubmitJob(job("next", "a")); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "wal", "g1.wal")); err != nil || !bytes.Contains(raw, []byte(`"s":"jobs"`)) {
		t.Fatalf("new writes did not land in wal/g1.wal: %v", err)
	}
}
