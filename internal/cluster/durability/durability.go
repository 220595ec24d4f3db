// Package durability makes QRIO's cluster state survive a crash. Every
// store mutation is written — under the mutated shard's lock, before any
// hook or watcher sees it — to one totally ordered write-ahead log, and a
// periodic snapshot compacts the log into one atomically-replaced file. On
// boot the manager restores the snapshot, replays the log past it, reloads
// the archive spill file, and re-queues jobs whose containers died with
// the old process. Because replay re-fires the store hooks, every derived
// index (pending queues, tenant usage, terminal set, event ring,
// placed-by-node, failed) is rebuilt by the exact code that built it live — the
// recovered process is behaviourally indistinguishable from one that never
// crashed, except that Running jobs are back in the queue.
//
// Layout under the data directory:
//
//	snapshot.json     one CRC-framed, atomically-replaced snapshot
//	archive.jsonl     terminal-job archive spill (JSONL, appended)
//	wal/g<gen>.wal    the log, one file per snapshot generation; each
//	                  record is tagged with the store and shard it mutates
//
// Writes become durable by group commit (wal.Writer): a writer waits until
// an fsync covers its record, and the first waiter runs that fsync for
// everything written so far. Three invariants hold, each pinned by the test
// named beside it:
//
//  1. A mutating call that returns has its records on disk. Store mutators
//     wait on return; the state layer's submit, bind and transition write
//     their records back to back and wait once, in Cluster.Sync.
//     (TestMutationReturnsDurable)
//  2. A byte on the wire means everything it could have read is on disk.
//     In-process observers — hooks, watches, kubelet wake channels — may
//     see a write up to one fsync before the disk does; they die with the
//     process. The HTTP surface waits for the log before its first byte
//     and before every streamed event. (gateway.TestNoByteAheadOfTheLog)
//  3. Recovered state is a prefix of the pre-crash write order, across
//     stores: one log, written in lock order, replayed in file order.
//     (TestRecoveryIsAPrefixAcrossStores)
//
// The snapshot protocol is rotate-then-dump: the log rotates to generation
// g+1 first — syncing and closing generation g — then each shard is dumped
// under its lock. Any record left in generation g therefore has a version
// at or below its shard's dump mark, so boot replays every generation ≥ the
// snapshot's and skips records the snapshot already covers. A crash at any
// point between rotate, snapshot write and old-generation removal recovers
// to the same state.
package durability

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/wal"
	"qrio/internal/faults"
	"qrio/internal/obs"
)

// DefaultSnapshotInterval is how often the background loop compacts the
// logs when the operator does not choose an interval.
const DefaultSnapshotInterval = 5 * time.Minute

// Options configure durable state. The zero value disables durability
// entirely — the cluster runs in-memory exactly as before.
type Options struct {
	// Dir is the data directory. Empty disables durability.
	Dir string
	// Fsync makes every WAL write wait for an fsync that covers it. Turning
	// it off trades the tail of the log on power loss for write latency; a
	// process crash (as opposed to kernel or power failure) loses nothing
	// either way.
	Fsync bool
	// SnapshotInterval is the background compaction period. Zero means
	// DefaultSnapshotInterval; negative disables the background loop
	// (snapshots then happen only through the admin endpoint).
	SnapshotInterval time.Duration
	// Faults is the fault-injection registry threaded into the WAL append
	// path (wal.append) and the archive spill writer (archive.spill). Nil
	// resolves to faults.Default, so the daemon's -faults flag reaches
	// production writers; tests inject private registries.
	Faults *faults.Registry
}

// Enabled reports whether the options ask for durable state.
func (o Options) Enabled() bool { return o.Dir != "" }

// ReplayStats describes what one boot recovered.
type ReplayStats struct {
	SnapshotLoaded  bool  `json:"snapshotLoaded"`
	SnapshotGen     int64 `json:"snapshotGen,omitempty"`
	RestoredObjects int   `json:"restoredObjects"`
	ReplayedRecords int   `json:"replayedRecords"`
	SkippedRecords  int   `json:"skippedRecords"`
	TruncatedTails  int   `json:"truncatedTails"`
	ArchivedEntries int   `json:"archivedEntries"`
	TombstonedJobs  int   `json:"tombstonedJobs"`
	RequeuedJobs    int   `json:"requeuedJobs"`
	DurationMillis  int64 `json:"durationMillis"`
}

// Stats is the admin-surface view of the durability subsystem.
type Stats struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Fsync   bool   `json:"fsync,omitempty"`
	// Generation is the current WAL generation (bumped by each snapshot).
	Generation int64 `json:"generation"`
	// WALRecords / WALBytes count appends to the current generation — i.e.
	// the log volume since the last snapshot: the replay debt a crash right
	// now would pay. This is the "WAL lag" an operator watches.
	WALRecords int64 `json:"walRecords"`
	WALBytes   int64 `json:"walBytes"`
	// LastSnapshotAt / LastSnapshotAge report the most recent successful
	// snapshot (boot counts when a snapshot file was restored).
	LastSnapshotAt  time.Time   `json:"lastSnapshotAt,omitempty"`
	LastSnapshotAge string      `json:"lastSnapshotAge,omitempty"`
	Snapshots       int64       `json:"snapshots"`
	Replay          ReplayStats `json:"replay"`
	// WALError / SpillError are latched first-failure strings; empty means
	// healthy. A latched WAL error means mutations since it are not durable.
	WALError   string `json:"walError,omitempty"`
	SpillError string `json:"spillError,omitempty"`
	// WALErrorClears counts latched WAL errors healed by a successful
	// snapshot (the only path that clears the latch), and
	// LastWALErrorClearedAt stamps the most recent clear — so an operator
	// who missed the error window can still see that durability degraded
	// and recovered.
	WALErrorClears        int64     `json:"walErrorClears,omitempty"`
	LastWALErrorClearedAt time.Time `json:"lastWALErrorClearedAt,omitempty"`
}

// Manager owns the log, the snapshot loop and the archive spill file for
// one cluster.
type Manager struct {
	opts    Options
	cluster *state.Cluster
	shims   []storeShim
	log     *wal.Writer

	// snapMu serialises snapshots (admin-triggered and periodic).
	snapMu sync.Mutex
	gen    atomic.Int64

	mu          sync.Mutex
	walErr      error
	lastSnap    time.Time
	snapshots   int64
	errClears   int64
	lastClearAt time.Time
	replay      ReplayStats

	spill *os.File
}

// Metrics is the durability layer's instrumentation handle: the hot-path
// families fed by the log's observer. Gauge-like families (lag, snapshot
// age, latched errors) are mirrored from Stats at scrape time by the core
// wiring instead.
type Metrics struct {
	// Appends counts records written to the log.
	Appends *obs.Counter
	// FsyncSeconds observes each fsync (only when the log fsyncs — without
	// it nothing syncs and nothing is observed here).
	FsyncSeconds *obs.Histogram
	// CommitRecords observes how many records each fsync covered, and
	// CommitWait how long a caller (or the HTTP barrier) that found its
	// record not yet durable waited for the fsync that covered it.
	CommitRecords *obs.Histogram
	CommitWait    *obs.Histogram
}

// NewMetrics registers the durability hot-path families on a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Appends: r.Counter("qrio_durability_wal_appends_total",
			"Records written to the WAL.").With(),
		FsyncSeconds: r.Histogram("qrio_durability_fsync_duration_seconds",
			"Latency of each WAL fsync (empty when the WAL does not fsync).", nil).With(),
		CommitRecords: r.Histogram("qrio_durability_commit_records",
			"Records covered by each WAL fsync (the group-commit batch size).",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 32, 64}).With(),
		CommitWait: r.Histogram("qrio_durability_commit_wait_seconds",
			"How long a writer or the HTTP barrier waited for the fsync covering its records.", nil).With(),
	}
}

// SetMetrics installs the log's observer. Call after Open and before
// traffic (core wires it while building the process).
func (m *Manager) SetMetrics(mx *Metrics) {
	if mx == nil {
		return
	}
	m.log.SetObserver(&wal.Observer{
		Wrote: func(int) { mx.Appends.Inc() },
		Synced: func(records int64, took time.Duration) {
			mx.FsyncSeconds.Observe(took.Seconds())
			mx.CommitRecords.Observe(float64(records))
		},
		Waited: func(took time.Duration) { mx.CommitWait.Observe(took.Seconds()) },
	})
}

func (m *Manager) snapshotPath() string { return filepath.Join(m.opts.Dir, "snapshot.json") }
func (m *Manager) archivePath() string  { return filepath.Join(m.opts.Dir, "archive.jsonl") }
func (m *Manager) walDir() string       { return filepath.Join(m.opts.Dir, "wal") }
func (m *Manager) walPath(gen int64) string {
	return filepath.Join(m.walDir(), fmt.Sprintf("g%d.wal", gen))
}

// snapshotFile is the on-disk snapshot: one JSON document inside one CRC
// frame, written atomically.
type snapshotFile struct {
	Gen     int64                    `json:"gen"`
	TakenAt time.Time                `json:"takenAt"`
	Stores  map[string]snapshotStore `json:"stores"`
}

type snapshotStore struct {
	Marks   []int64          `json:"marks"`
	Objects []snapshotObject `json:"objects"`
}

type snapshotObject struct {
	V int64           `json:"v"`
	O json.RawMessage `json:"o"`
}

// Open builds the manager and runs the full boot flow against a cluster
// that has not yet served any traffic: core.New calls it before backends
// register and before any loop starts. Returns an error when the data
// directory is unusable or its contents are damaged beyond the safe
// recoveries (a torn log tail recovers silently; a corrupt snapshot body
// does not, because generations behind it may already be gone).
func Open(c *state.Cluster, opts Options) (*Manager, error) {
	if !opts.Enabled() {
		return nil, errors.New("durability: no data directory configured")
	}
	start := time.Now()
	m := &Manager{opts: opts, cluster: c}
	m.shims = []storeShim{
		&typedShim[api.QuantumJob]{label: "jobs", s: c.Jobs,
			uid: func(j api.QuantumJob) (string, string) { return j.UID, j.Name }},
		&typedShim[api.Node]{label: "nodes", s: c.Nodes,
			uid:  func(n api.Node) (string, string) { return n.UID, n.Name },
			slim: slimNodes(c.Nodes.Shards()), fill: fillNode},
		&typedShim[api.Result]{label: "results", s: c.Results,
			uid: func(r api.Result) (string, string) { return r.UID, r.Name }},
		&typedShim[api.Event]{label: "events", s: c.Events,
			uid: func(e api.Event) (string, string) { return e.UID, e.Name }},
		&typedShim[api.TenantConfig]{label: "tenants", s: c.TenantConfigs,
			uid: func(t api.TenantConfig) (string, string) { return t.UID, t.Name }},
	}
	if err := os.MkdirAll(m.walDir(), 0o755); err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}

	// 1. Snapshot restore. A missing file is a first boot; a leftover
	// atomic-write temp file is a crash mid-snapshot and is discarded (the
	// real file, if any, is intact by construction of rename).
	snap, err := m.readSnapshot()
	if err != nil {
		return nil, err
	}
	marks := make(map[string][]int64)
	if snap != nil {
		m.replay.SnapshotLoaded = true
		m.replay.SnapshotGen = snap.Gen
		m.gen.Store(snap.Gen)
		m.mu.Lock()
		m.lastSnap = snap.TakenAt
		m.mu.Unlock()
		for _, shim := range m.shims {
			ss, ok := snap.Stores[shim.storeName()]
			if !ok {
				continue
			}
			if err := shim.setFloor(ss.Marks); err != nil {
				return nil, fmt.Errorf("durability: %s: %w", shim.storeName(), err)
			}
			marks[shim.storeName()] = ss.Marks
			for _, obj := range ss.Objects {
				if err := shim.restore(obj.O, obj.V); err != nil {
					return nil, err
				}
				m.replay.RestoredObjects++
			}
		}
	}

	// 2. Log replay: every generation at or past the snapshot's, ascending,
	// each file in write order. Records the snapshot already covers (version
	// ≤ their shard's dump mark) are skipped; a torn tail is truncated to
	// the valid prefix. Generations behind the snapshot are fully covered (a
	// crash between snapshot write and cleanup leaves them) and are removed.
	gens, err := m.listLogs()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]storeShim, len(m.shims))
	for _, shim := range m.shims {
		byName[shim.storeName()] = shim
	}
	for _, g := range gens {
		if g < m.gen.Load() {
			os.Remove(m.walPath(g))
			continue
		}
		if err := m.replayFile(m.walPath(g), byName, marks); err != nil {
			return nil, err
		}
		m.gen.Store(g)
	}

	// 4. Archive: reload the spill file, then attach it as the live spill
	// writer (in that order — loading through a live writer would re-spill
	// every line back into the file).
	if raw, err := os.Open(m.archivePath()); err == nil {
		n, lerr := c.Archived.Load(raw)
		raw.Close()
		if lerr != nil {
			return nil, lerr
		}
		m.replay.ArchivedEntries = n
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("durability: %w", err)
	}
	spill, err := os.OpenFile(m.archivePath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	m.spill = spill
	// The archive latches the first spill error (injected or real), so a
	// failing spill degrades loudly through Stats, never silently.
	c.Archived.SetSpill(faults.Writer(opts.Faults, faults.PointArchiveSpill, spill))

	// 5. Tier reconcile: a crash between the sweep's archive-Put and
	// hot-store delete leaves a job in both tiers. The hot copy wins — the
	// retention sweep will re-archive it — so the archive entry is
	// tombstoned (which now also spills the tombstone).
	for _, name := range c.Archived.Names() {
		if _, _, err := c.Jobs.Get(name); err == nil {
			c.Archived.Remove(name)
			m.replay.TombstonedJobs++
		}
	}

	// 6. UID floor: never re-mint an identifier the previous process issued.
	var floor int64
	for _, shim := range m.shims {
		shim.eachUID(func(uid, name string) {
			if n := uidSuffix(uid); n > floor {
				floor = n
			}
			if n := uidSuffix(name); n > floor {
				floor = n
			}
		})
	}
	c.EnsureUIDFloor(floor)

	// 7. Attach the log — reusing the latest generation's file, whose torn
	// tail replay already truncated away. From here every mutation is logged
	// — which is exactly why the orphan requeue below comes after: the
	// requeue transitions must themselves survive the next crash.
	if m.log, err = wal.OpenWriter(m.walPath(m.gen.Load()), opts.Fsync); err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	m.log.SetFaults(opts.Faults)
	for _, shim := range m.shims {
		shim.attachSink(m.log, m.noteWALErr)
	}
	c.SetSync(m.Sync)

	// 8. Orphan requeue: replayed Running jobs have no container behind
	// them any more.
	m.replay.RequeuedJobs = c.RequeueAll(api.JobRunning, "requeued: node process restarted")

	m.replay.DurationMillis = time.Since(start).Milliseconds()
	return m, nil
}

// readSnapshot loads and decodes the snapshot file, returning nil when no
// snapshot exists. Leftover atomic-write temp files are removed.
func (m *Manager) readSnapshot() (*snapshotFile, error) {
	if tmp, err := filepath.Glob(m.snapshotPath() + ".tmp*"); err == nil {
		for _, t := range tmp {
			os.Remove(t)
		}
	}
	payload, err := wal.ReadFileChecked(m.snapshotPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durability: snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("durability: snapshot: %w", err)
	}
	return &snap, nil
}

// listLogs returns the generations of the wal directory's log files,
// ascending. Files of the per-(store, shard) layout this one replaced
// (<store>-s<shard>-g<gen>.wal) are removed when they hold nothing the
// snapshot does not — empty, or of a generation behind it — and refuse the
// boot otherwise: there is no second replay path, and skipping them would
// lose acknowledged writes silently.
func (m *Manager) listLogs() ([]int64, error) {
	entries, err := os.ReadDir(m.walDir())
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	var gens []int64
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".wal")
		if !ok || e.IsDir() {
			continue
		}
		if g, ok := strings.CutPrefix(name, "g"); ok {
			if gen, err := strconv.ParseInt(g, 10, 64); err == nil {
				gens = append(gens, gen)
			}
			continue
		}
		gen, perr := strconv.ParseInt(name[strings.LastIndex(name, "-g")+2:], 10, 64)
		if info, err := e.Info(); err != nil || (info.Size() > 0 && (perr != nil || gen >= m.gen.Load())) {
			return nil, fmt.Errorf("durability: %s holds records in the per-shard WAL layout this version no longer reads: "+
				"start the previous qrio binary on this data directory once and stop it cleanly (its drain snapshot empties these files), then start this one",
				filepath.Join(m.walDir(), e.Name()))
		}
		os.Remove(filepath.Join(m.walDir(), e.Name()))
	}
	slices.Sort(gens)
	return gens, nil
}

// replayFile replays one generation of the log in write order, dispatching
// each record to the store its tag names, and truncates a torn tail to the
// valid prefix so the writer can keep appending to the same file.
func (m *Manager) replayFile(path string, shims map[string]storeShim, marks map[string][]int64) error {
	res, err := wal.ScanFile(path)
	if err != nil {
		return fmt.Errorf("durability: %s: %w", path, err)
	}
	if res.Truncated {
		if err := wal.TruncateFile(path, res.ValidBytes); err != nil {
			return fmt.Errorf("durability: %s: %w", path, err)
		}
		m.replay.TruncatedTails++
	}
	for _, rec := range res.Records {
		var wr walRecord[json.RawMessage]
		if err := json.Unmarshal(rec, &wr); err != nil {
			return fmt.Errorf("durability: %s: %w", path, err)
		}
		shim, ok := shims[wr.S]
		if !ok {
			return fmt.Errorf("durability: %s: record for unknown store %q", path, wr.S)
		}
		if sm := marks[wr.S]; wr.H >= 0 && wr.H < len(sm) && wr.V <= sm[wr.H] {
			m.replay.SkippedRecords++
			continue
		}
		if err := shim.replay(wr.T, wr.O, wr.V); err != nil {
			return err
		}
		m.replay.ReplayedRecords++
	}
	return nil
}

// uidSuffix parses the numeric tail of a "<prefix>-<n>" identifier,
// returning 0 for anything else.
func uidSuffix(s string) int64 {
	i := strings.LastIndexByte(s, '-')
	if i < 0 || i == len(s)-1 {
		return 0
	}
	n, err := strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Sync blocks until every record written so far is durable — the barrier
// behind Cluster.Sync and the HTTP surface (one atomic compare when nothing
// is pending). A failed fsync latches like a failed write.
func (m *Manager) Sync() {
	if err := m.log.Wait(m.log.Written()); err != nil {
		m.noteWALErr(fmt.Errorf("durability: wal sync: %w", err))
	}
}

func (m *Manager) noteWALErr(err error) {
	m.mu.Lock()
	if m.walErr == nil {
		m.walErr = err
	}
	m.mu.Unlock()
}

// Snapshot compacts the log: rotate it to the next generation, dump every
// shard under its lock into one atomically-replaced snapshot file, then
// delete the previous generations. Safe to call from the
// admin endpoint and the background loop concurrently; calls serialise.
func (m *Manager) Snapshot() (int64, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	oldGen := m.gen.Load()
	newGen := oldGen + 1

	// Note whether durability is entering this snapshot degraded: a
	// successful snapshot heals the latch, and the heal itself must stay
	// visible (ops surfaces show walErrorClears) or the episode vanishes
	// the moment it ends. Check before Rotate — rotation clears the
	// writer's latch.
	wasLatched := m.log.Err() != nil
	m.mu.Lock()
	if m.walErr != nil {
		wasLatched = true
	}
	m.mu.Unlock()

	// Rotate first: from this point every new append lands in generation
	// newGen. Records already in older files were emitted — under their
	// shard's lock — before the rotation, so the dumps below cover them.
	if err := m.log.Rotate(m.walPath(newGen)); err != nil {
		return 0, fmt.Errorf("durability: rotate: %w", err)
	}

	snap := snapshotFile{Gen: newGen, TakenAt: time.Now(), Stores: make(map[string]snapshotStore)}
	for _, shim := range m.shims {
		ss := snapshotStore{Marks: make([]int64, shim.shardCount())}
		for i := 0; i < shim.shardCount(); i++ {
			mark, err := shim.dumpShard(i, func(raw json.RawMessage, version int64) error {
				ss.Objects = append(ss.Objects, snapshotObject{V: version, O: append(json.RawMessage(nil), raw...)})
				return nil
			})
			if err != nil {
				return 0, err
			}
			ss.Marks[i] = mark
		}
		snap.Stores[shim.storeName()] = ss
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("durability: snapshot encode: %w", err)
	}
	if err := wal.WriteFileAtomic(m.snapshotPath(), payload); err != nil {
		return 0, fmt.Errorf("durability: snapshot write: %w", err)
	}
	m.gen.Store(newGen)

	// The snapshot is durable; every generation before it is dead weight
	// (including stragglers a crashed cleanup left behind).
	if gens, err := m.listLogs(); err == nil {
		for _, g := range gens {
			if g < newGen {
				os.Remove(m.walPath(g))
			}
		}
	}
	m.mu.Lock()
	m.lastSnap = snap.TakenAt
	m.snapshots++
	// A successful snapshot re-establishes durability: every object is in
	// the snapshot file and the rotated writers start clean, so the latched
	// "mutations since are not durable" warning no longer describes the
	// directory. (Writer.Rotate cleared the writer's latch above.)
	m.walErr = nil
	if wasLatched {
		m.errClears++
		m.lastClearAt = snap.TakenAt
	}
	m.mu.Unlock()
	return newGen, nil
}

// Run drives periodic snapshots until the context ends. core wires it into
// the orchestrator's Start/Stop lifecycle.
func (m *Manager) Run(ctx context.Context) {
	interval := m.opts.SnapshotInterval
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	if interval < 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := m.Snapshot(); err != nil {
				m.noteWALErr(err)
			}
		}
	}
}

// Stats assembles the admin-surface view.
func (m *Manager) Stats() Stats {
	records, bytes := m.log.Stats()
	werr := m.log.Err()
	m.mu.Lock()
	if werr == nil {
		werr = m.walErr
	}
	st := Stats{
		Enabled:               true,
		Dir:                   m.opts.Dir,
		Fsync:                 m.opts.Fsync,
		Generation:            m.gen.Load(),
		WALRecords:            records,
		WALBytes:              bytes,
		Snapshots:             m.snapshots,
		Replay:                m.replay,
		WALErrorClears:        m.errClears,
		LastWALErrorClearedAt: m.lastClearAt,
	}
	if !m.lastSnap.IsZero() {
		st.LastSnapshotAt = m.lastSnap
		st.LastSnapshotAge = time.Since(m.lastSnap).Round(time.Millisecond).String()
	}
	m.mu.Unlock()
	if werr != nil {
		st.WALError = werr.Error()
	}
	if serr := m.cluster.Archived.SpillErr(); serr != nil {
		st.SpillError = serr.Error()
	}
	return st
}

// Close flushes and closes the log and the spill file. The cluster must be
// quiesced first (no loops running).
func (m *Manager) Close() error {
	first := m.log.Close()
	if m.spill != nil {
		if err := m.spill.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
