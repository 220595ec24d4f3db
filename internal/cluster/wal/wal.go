// Package wal provides the durable byte substrate under QRIO's cluster
// state: CRC-framed append-only log files and atomically-replaced
// snapshot files. It knows nothing about stores or jobs — it moves
// checksummed payloads to disk and back, and recovers the longest valid
// prefix of a log whose tail a crash tore.
//
// Frame layout (little-endian):
//
//	[4B payload length][4B CRC-32C of payload][payload]
//
// A torn tail — a partial frame, or a frame whose checksum fails — ends
// the valid prefix. Scan reports where the prefix ends so the caller can
// safe-truncate the file and keep appending; everything before the tear
// is intact because frames are only ever appended.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"qrio/internal/faults"
)

// frameHeader is the fixed per-record overhead: length + checksum.
const frameHeader = 8

// MaxRecordBytes bounds a single record. A length field above it marks
// the frame corrupt rather than asking the reader to allocate garbage.
const MaxRecordBytes = 64 << 20

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checked file whose content fails verification —
// a snapshot with a bad checksum or framing.
var ErrCorrupt = errors.New("wal: corrupt file")

// appendFrame appends one framed record to buf and returns the result.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Writer appends framed records to one log file and makes them durable by
// leader-based group commit: Write frames a record into the file and
// returns its sequence number, Wait blocks until an fsync has covered it,
// and the first waiter runs that fsync for everything written so far and
// wakes the rest — no committer goroutine, no interval, no batch size. The
// first I/O error, write or fsync, is latched: later writes and waits
// return it without touching the file, mirroring the archive spill
// contract — durability degrades loudly, never by silently interleaving
// half-written frames.
type Writer struct {
	mu      sync.Mutex // serialises writes; guards f and path
	f       *os.File
	path    string
	fsync   bool
	scratch []byte
	// The latched error and the stats are written under mu but read without
	// it: Write holds mu across the write(2) — and a wal.append latency
	// fault — and a health probe or a metrics scrape must not queue behind
	// a slow disk to learn that the disk is slow.
	err     atomic.Pointer[error]
	records atomic.Int64
	bytes   atomic.Int64
	// faults injects write failures ahead of real I/O (the wal.append
	// point); injected errors latch exactly like disk errors. Nil resolves
	// to faults.Default, so the daemon's -faults flag reaches production
	// writers; tests inject private registries via SetFaults.
	faults *faults.Registry
	obs    *Observer

	// written numbers the records handed to the OS; durable is the highest
	// one an fsync has covered (it follows written when the writer does not
	// fsync, so Wait never blocks). commit guards syncing — an fsync is in
	// flight, its waiters parked on synced — and syncErr, the latch of a
	// failed one. Lock order: commit, then mu.
	written atomic.Int64
	durable atomic.Int64
	commit  sync.Mutex
	synced  *sync.Cond
	syncing bool
	syncErr error
}

// Observer is the writer's metrics seam: fast callbacks (Wrote runs under
// the writer's mutex) that must not call back into the writer.
type Observer struct {
	Wrote  func(frameBytes int)                    // one record written
	Synced func(records int64, took time.Duration) // one fsync, and the records it covered
	Waited func(took time.Duration)                // one Wait that found its record not yet durable
}

// OpenWriter opens (creating if needed) a log file for appending. With
// fsync set, Wait (and so Append) returns only once the record is on
// stable storage — the machine-crash guarantee; without it, records survive
// process death (the write syscall completed) but not power loss.
func OpenWriter(path string, fsync bool) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, path: path, fsync: fsync}
	w.synced = sync.NewCond(&w.commit)
	return w, nil
}

// SetFaults points the writer at a fault-injection registry (tests use
// private registries; nil keeps faults.Default). Call before traffic.
func (w *Writer) SetFaults(r *faults.Registry) {
	w.mu.Lock()
	w.faults = r
	w.mu.Unlock()
}

// SetObserver installs the metrics seam. Call before traffic; nil disables.
func (w *Writer) SetObserver(o *Observer) {
	w.mu.Lock()
	w.obs = o
	w.mu.Unlock()
}

// Append writes one framed record and waits until it is durable.
func (w *Writer) Append(payload []byte) error {
	seq, err := w.Write(payload)
	if err != nil {
		return err
	}
	return w.Wait(seq)
}

// Write frames one record into the file and returns its sequence number
// without waiting for the disk. Sequence order is file order.
func (w *Writer) Write(payload []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.Err(); err != nil {
		return 0, err
	}
	if len(payload) > MaxRecordBytes {
		// Scan refuses frames above MaxRecordBytes, so writing one would
		// poison the log: everything after it becomes unreachable.
		return 0, w.latch(fmt.Errorf("wal: record of %d bytes exceeds limit in %s", len(payload), w.path))
	}
	if err := w.faults.Fire(context.Background(), faults.PointWALAppend); err != nil {
		return 0, w.latch(fmt.Errorf("wal: append to %s: %w", w.path, err))
	}
	w.scratch = appendFrame(w.scratch[:0], payload)
	if _, err := w.f.Write(w.scratch); err != nil {
		return 0, w.latch(fmt.Errorf("wal: append to %s: %w", w.path, err))
	}
	w.records.Add(1)
	w.bytes.Add(int64(len(w.scratch)))
	seq := w.written.Add(1)
	if !w.fsync {
		w.durable.Store(seq)
	}
	if w.obs != nil {
		w.obs.Wrote(len(w.scratch))
	}
	return seq, nil
}

// Written returns the sequence number of the latest record written —
// Wait(Written()) is the barrier "everything so far is durable".
func (w *Writer) Written() int64 { return w.written.Load() }

// Wait blocks until record seq is durable: one atomic compare when it
// already is; otherwise the caller waits out the fsync in flight, and if
// that did not cover seq runs the next one itself, for everything written
// by then, and wakes the rest. A failed fsync fails this wait and every
// later one — the kernel may report a lost write only once.
func (w *Writer) Wait(seq int64) error {
	if w.durable.Load() >= seq {
		return nil
	}
	if obs := w.obs; obs != nil {
		defer func(start time.Time) { obs.Waited(time.Since(start)) }(time.Now())
	}
	w.commit.Lock()
	defer w.commit.Unlock()
	for w.syncing && w.durable.Load() < seq {
		w.synced.Wait()
	}
	if w.durable.Load() >= seq {
		return nil
	}
	if w.syncErr == nil {
		w.syncing = true
		w.commit.Unlock()
		err := w.sync()
		w.commit.Lock()
		w.syncErr, w.syncing = err, false
		w.synced.Broadcast()
	}
	return w.syncErr
}

// sync is one group commit, run by the waiter that set syncing: an fsync
// covering every record written so far.
func (w *Writer) sync() error {
	target := w.written.Load()
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.Err() == nil {
			w.latch(fmt.Errorf("wal: fsync %s: %w", w.path, err))
		}
		return w.Err()
	}
	covered := target - w.durable.Swap(target)
	if w.obs != nil {
		w.obs.Synced(covered, time.Since(start))
	}
	return nil
}

// quiesce returns holding w.commit with no fsync in flight, so none starts
// until the caller unlocks.
func (w *Writer) quiesce() {
	w.commit.Lock()
	for w.syncing {
		w.synced.Wait()
	}
}

// Rotate atomically redirects the writer to a new file: records written
// before the call are fully in the old file — synced, when the writer
// fsyncs, before it is closed, so a later generation is never durable ahead
// of an earlier one — and records after it fully in the new one: the cut a
// snapshot relies on to know which generations its marks cover. The latched
// error is cleared: a fresh file is a fresh chance (a full disk may have
// been cleaned up between generations).
func (w *Writer) Rotate(newPath string) error {
	f, err := os.OpenFile(newPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.quiesce()
	defer w.commit.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			f.Close()
			w.syncErr = fmt.Errorf("wal: fsync %s: %w", w.path, err)
			if w.Err() == nil {
				w.latch(w.syncErr)
			}
			return w.syncErr
		}
	}
	old := w.f
	w.f = f
	w.path = newPath
	w.err.Store(nil)
	w.syncErr = nil
	w.durable.Store(w.written.Load())
	// Stats count the current file — the replay debt since the last
	// rotation — so a snapshot visibly resets the operator's WAL lag.
	w.records.Store(0)
	w.bytes.Store(0)
	return old.Close()
}

// Path returns the file currently appended to.
func (w *Writer) Path() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.path
}

// Err returns the latched write or fsync error, if any. It never blocks.
func (w *Writer) Err() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}

// latch records the writer's first I/O error (the caller holds mu and has
// found none latched) and returns it.
func (w *Writer) latch(err error) error {
	w.err.Store(&err)
	return err
}

// Stats returns how many records and bytes this writer has appended to the
// current file. It never blocks; read beside a write in flight, the two
// numbers may be one record apart.
func (w *Writer) Stats() (records, bytes int64) {
	return w.records.Load(), w.bytes.Load()
}

// Close syncs and closes the file. Writers must be quiesced first.
func (w *Writer) Close() error {
	w.quiesce()
	defer w.commit.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil && w.Err() == nil {
		w.latch(err)
	}
	w.durable.Store(w.written.Load())
	return w.f.Close()
}

// ScanResult is the outcome of reading one log file.
type ScanResult struct {
	// Records are the payloads of every intact frame, in append order.
	Records [][]byte
	// Offsets[i] is the file offset at which Records[i]'s frame starts.
	Offsets []int64
	// ValidBytes is the length of the intact prefix. When Truncated, the
	// caller should truncate the file here before appending again.
	ValidBytes int64
	// Truncated reports that the file ends in a torn or corrupt frame
	// (the expected state after a crash mid-append).
	Truncated bool
}

// ScanFile reads every intact record of a log file. A missing file is an
// empty log, not an error. A torn or corrupt tail ends the scan with
// Truncated set; the records before it are returned.
func ScanFile(path string) (ScanResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ScanResult{}, nil
		}
		return ScanResult{}, err
	}
	return Scan(raw), nil
}

// Scan parses framed records out of a byte slice (the in-memory core of
// ScanFile, shared with the fuzzer). Returned payloads alias raw.
func Scan(raw []byte) ScanResult {
	var res ScanResult
	off := int64(0)
	for {
		rest := raw[off:]
		if len(rest) == 0 {
			return res
		}
		if len(rest) < frameHeader {
			res.Truncated = true
			res.ValidBytes = off
			return res
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxRecordBytes || int64(len(rest)) < frameHeader+n {
			res.Truncated = true
			res.ValidBytes = off
			return res
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			res.Truncated = true
			res.ValidBytes = off
			return res
		}
		res.Records = append(res.Records, payload)
		res.Offsets = append(res.Offsets, off)
		off += frameHeader + n
		res.ValidBytes = off
	}
}

// TruncateFile cuts a log file back to n bytes — the safe-truncate step
// after a scan found a torn tail.
func TruncateFile(path string, n int64) error {
	return os.Truncate(path, n)
}

// WriteFileAtomic replaces path with a single-frame file holding payload,
// using the write-temp + fsync + rename protocol: a crash at any point
// leaves either the old complete file or the new complete file, never a
// half-written one. The containing directory is synced so the rename
// itself is durable.
func WriteFileAtomic(path string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(appendFrame(nil, payload)); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// ReadFileChecked reads a file written by WriteFileAtomic, verifying it
// holds exactly one intact frame. A missing file returns os.ErrNotExist;
// any framing or checksum failure returns ErrCorrupt.
func ReadFileChecked(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := Scan(raw)
	if res.Truncated || len(res.Records) != 1 || res.ValidBytes != int64(len(raw)) {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, path)
	}
	return res.Records[0], nil
}

// SyncDir fsyncs a directory, making renames and creates within it
// durable. Best effort on filesystems that reject directory fsync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, io.EOF) {
		// Some filesystems (and some CI sandboxes) refuse to fsync a
		// directory handle; the rename is still ordered on the common
		// local filesystems QRIO deploys on.
		if errors.Is(err, os.ErrInvalid) {
			return nil
		}
		return err
	}
	return nil
}
