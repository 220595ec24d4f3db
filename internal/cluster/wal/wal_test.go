package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func writeRecords(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	w, err := OpenWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendScanRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.wal")
	payloads := [][]byte{[]byte("one"), []byte(""), []byte("three-3"), bytes.Repeat([]byte("x"), 4096)}
	writeRecords(t, path, payloads...)

	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("clean file reported truncated")
	}
	if len(res.Records) != len(payloads) {
		t.Fatalf("records = %d, want %d", len(res.Records), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(res.Records[i], p) {
			t.Fatalf("record %d = %q, want %q", i, res.Records[i], p)
		}
	}
	info, _ := os.Stat(path)
	if res.ValidBytes != info.Size() {
		t.Fatalf("ValidBytes = %d, file size %d", res.ValidBytes, info.Size())
	}
}

func TestScanMissingFile(t *testing.T) {
	res, err := ScanFile(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil {
		t.Fatalf("missing file should scan empty, got %v", err)
	}
	if len(res.Records) != 0 || res.Truncated {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestTruncatedTail simulates a crash mid-append: every proper prefix cut
// of the final record must recover the earlier records and report the
// valid length for safe truncation.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	writeRecords(t, full, []byte("alpha"), []byte("beta"))
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := ScanFile(full)
	firstEnd := first.Offsets[1] // end of record 0 == start of record 1

	for cut := len(raw) - 1; cut > int(firstEnd); cut-- {
		res := Scan(raw[:cut])
		if !res.Truncated {
			t.Fatalf("cut=%d: torn tail not detected", cut)
		}
		if len(res.Records) != 1 || !bytes.Equal(res.Records[0], []byte("alpha")) {
			t.Fatalf("cut=%d: recovered %d records", cut, len(res.Records))
		}
		if res.ValidBytes != firstEnd {
			t.Fatalf("cut=%d: ValidBytes=%d want %d", cut, res.ValidBytes, firstEnd)
		}
	}
}

// TestCRCMismatch flips one payload byte: the damaged record and
// everything after it must be dropped, everything before it kept.
func TestCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crc.wal")
	writeRecords(t, path, []byte("keep-me"), []byte("corrupt-me"), []byte("unreachable"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan := Scan(raw)
	// Flip a byte inside record 1's payload.
	corruptAt := scan.Offsets[1] + frameHeader
	raw[corruptAt] ^= 0xFF
	res := Scan(raw)
	if !res.Truncated {
		t.Fatal("corruption not detected")
	}
	if len(res.Records) != 1 || !bytes.Equal(res.Records[0], []byte("keep-me")) {
		t.Fatalf("recovered %d records, want just the clean prefix", len(res.Records))
	}
	if res.ValidBytes != scan.Offsets[1] {
		t.Fatalf("ValidBytes=%d want %d", res.ValidBytes, scan.Offsets[1])
	}
}

func TestTruncateFileThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	writeRecords(t, path, []byte("good"))
	// Simulate a torn append.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{9, 9, 9})
	f.Close()
	res, _ := ScanFile(path)
	if !res.Truncated {
		t.Fatal("expected torn tail")
	}
	if err := TruncateFile(path, res.ValidBytes); err != nil {
		t.Fatal(err)
	}
	// The safe-truncated file accepts appends and scans clean.
	w, err := OpenWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	res, err = ScanFile(path)
	if err != nil || res.Truncated || len(res.Records) != 2 {
		t.Fatalf("after truncate+append: %+v err=%v", res, err)
	}
}

func TestRotateSwitchesFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "g0.wal"), filepath.Join(dir, "g1.wal")
	w, err := OpenWriter(a, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("old-gen")); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(b); err != nil {
		t.Fatal(err)
	}
	if w.Path() != b {
		t.Fatalf("Path=%s want %s", w.Path(), b)
	}
	if err := w.Append([]byte("new-gen")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	ra, _ := ScanFile(a)
	rb, _ := ScanFile(b)
	if len(ra.Records) != 1 || !bytes.Equal(ra.Records[0], []byte("old-gen")) {
		t.Fatalf("old file: %+v", ra)
	}
	if len(rb.Records) != 1 || !bytes.Equal(rb.Records[0], []byte("new-gen")) {
		t.Fatalf("new file: %+v", rb)
	}
}

func TestWriteFileAtomicAndReadChecked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	payload := []byte(`{"gen":7}`)
	if err := WriteFileAtomic(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFileChecked(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	// Overwrite is atomic: the new content fully replaces the old.
	next := []byte(`{"gen":8,"more":"data"}`)
	if err := WriteFileAtomic(path, next); err != nil {
		t.Fatal(err)
	}
	got, _ = ReadFileChecked(path)
	if !bytes.Equal(got, next) {
		t.Fatalf("after rewrite got %q", got)
	}
}

func TestReadFileCheckedRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := WriteFileAtomic(path, []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)

	cases := map[string][]byte{
		"flipped payload byte": append(append([]byte{}, raw[:frameHeader]...), func() []byte {
			p := append([]byte{}, raw[frameHeader:]...)
			p[0] ^= 1
			return p
		}()...),
		"truncated":     raw[:len(raw)-2],
		"trailing junk": append(append([]byte{}, raw...), 0xAB),
		"empty file":    {},
		"header only":   raw[:frameHeader-1],
	}
	for name, data := range cases {
		p := filepath.Join(dir, "case")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFileChecked(p); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err=%v, want ErrCorrupt", name, err)
		}
	}
	if _, err := ReadFileChecked(filepath.Join(dir, "nope")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

// TestOversizedLengthRejected: a frame claiming a payload beyond
// MaxRecordBytes must read as a torn tail, not a giant allocation.
func TestOversizedLengthRejected(t *testing.T) {
	var buf []byte
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(MaxRecordBytes+1))
	buf = append(buf, hdr[:]...)
	buf = append(buf, []byte("whatever")...)
	res := Scan(buf)
	if !res.Truncated || len(res.Records) != 0 || res.ValidBytes != 0 {
		t.Fatalf("oversized frame accepted: %+v", res)
	}
}

func TestWriterLatchesErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "latch.wal")
	w, err := OpenWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	over := bytes.Repeat([]byte("x"), MaxRecordBytes+1)
	if err := w.Append(over); err == nil {
		t.Fatal("oversized append accepted")
	}
	if w.Err() == nil {
		t.Fatal("error not latched")
	}
	// Rotation onto a fresh file clears the latch.
	if err := w.Rotate(filepath.Join(dir, "latch2.wal")); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatalf("latch survived rotation: %v", w.Err())
	}
	if err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// commitCounter is a test Observer: it checks, at every fsync, that the
// records it claims to cover were written, and counts.
type commitCounter struct {
	wrote, fsyncs, covered, waits atomic.Int64
}

func (c *commitCounter) observer() *Observer {
	return &Observer{
		Wrote:  func(int) { c.wrote.Add(1) },
		Synced: func(n int64, _ time.Duration) { c.fsyncs.Add(1); c.covered.Add(n) },
		Waited: func(time.Duration) { c.waits.Add(1) },
	}
}

// TestGroupCommit is the group-commit property test (run it under -race):
// N goroutines append concurrently; each Append returns only once the
// durable watermark has reached its record; fsyncs never outnumber appends
// and between them cover every record exactly once; the file holds every
// record intact.
func TestGroupCommit(t *testing.T) {
	const writers, each = 16, 40
	path := filepath.Join(t.TempDir(), "group.wal")
	w, err := OpenWriter(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var cc commitCounter
	w.SetObserver(cc.observer())
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := w.Write([]byte(fmt.Sprintf("writer-%02d-record-%03d", g, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Wait(seq); err != nil {
					t.Error(err)
					return
				}
				if d := w.durable.Load(); d < seq {
					t.Errorf("Wait(%d) returned with the watermark at %d", seq, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := int64(writers * each)
	if got := cc.wrote.Load(); got != total {
		t.Fatalf("observer saw %d writes, want %d", got, total)
	}
	if f := cc.fsyncs.Load(); f == 0 || f > total {
		t.Fatalf("%d fsyncs for %d appends", f, total)
	}
	if got := cc.covered.Load(); got != total {
		t.Fatalf("fsyncs covered %d records, want each of %d once", got, total)
	}
	if w.Written() != total || w.durable.Load() != total {
		t.Fatalf("written %d durable %d, want both %d", w.Written(), w.durable.Load(), total)
	}
	// Nothing is pending: the barrier is the fast path, no fsync.
	before := cc.fsyncs.Load()
	if err := w.Wait(w.Written()); err != nil || cc.fsyncs.Load() != before {
		t.Fatalf("idle barrier: err=%v, fsyncs %d → %d", err, before, cc.fsyncs.Load())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(path)
	if err != nil || res.Truncated || int64(len(res.Records)) != total {
		t.Fatalf("scan: %d records truncated=%v err=%v", len(res.Records), res.Truncated, err)
	}
	t.Logf("%d appends by %d writers: %d fsyncs, %d waits", total, writers, cc.fsyncs.Load(), cc.waits.Load())
}

// TestWriteDoesNotWait: a no-wait write is in the file but not durable
// until someone waits; one Wait then covers every record written so far
// with a single fsync, and a writer that does not fsync never waits at all.
func TestWriteDoesNotWait(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(filepath.Join(dir, "a.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var cc commitCounter
	w.SetObserver(cc.observer())
	var last int64
	for i := 0; i < 5; i++ {
		if last, err = w.Write([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if cc.fsyncs.Load() != 0 || w.durable.Load() != 0 {
		t.Fatalf("writes synced on their own: %d fsyncs, watermark %d", cc.fsyncs.Load(), w.durable.Load())
	}
	if err := w.Wait(1); err != nil {
		t.Fatal(err)
	}
	if cc.fsyncs.Load() != 1 || cc.covered.Load() != 5 || w.durable.Load() != last {
		t.Fatalf("one wait: %d fsyncs covering %d, watermark %d (want 1, 5, %d)",
			cc.fsyncs.Load(), cc.covered.Load(), w.durable.Load(), last)
	}

	nf, err := OpenWriter(filepath.Join(dir, "b.wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	var nc commitCounter
	nf.SetObserver(nc.observer())
	for i := 0; i < 3; i++ {
		if err := nf.Append([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if nc.fsyncs.Load() != 0 || nc.waits.Load() != 0 {
		t.Fatalf("fsync=false writer touched the disk: %d fsyncs, %d waits", nc.fsyncs.Load(), nc.waits.Load())
	}
}

// TestFsyncFailureLatches: a failed fsync fails the waiter that ran it,
// every waiter queued behind it and every later write and wait; the error
// shows in Err, and rotation onto a fresh file clears it.
func TestFsyncFailureLatches(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(filepath.Join(dir, "a.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	seqs := make([]int64, waiters)
	for i := range seqs {
		if seqs[i], err = w.Write([]byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	// Inject the failure: fsync on a closed descriptor fails.
	w.f.Close()
	errs := make(chan error, waiters)
	for _, seq := range seqs {
		go func() { errs <- w.Wait(seq) }()
	}
	for range seqs {
		if err := <-errs; err == nil {
			t.Fatal("a waiter succeeded past a failed fsync")
		}
	}
	if w.Err() == nil {
		t.Fatal("fsync failure not latched into Err")
	}
	if _, err := w.Write([]byte("later")); err == nil {
		t.Fatal("write accepted after a failed fsync")
	}
	if err := w.Wait(seqs[0]); err == nil {
		t.Fatal("later wait succeeded past the latch")
	}
	// The old descriptor is beyond saving, so is Rotate's sync of it.
	if err := w.Rotate(filepath.Join(dir, "b.wal")); err == nil {
		t.Fatal("rotate succeeded over an unsyncable file")
	}
	if w.Err() == nil {
		t.Fatal("failed rotate cleared the latch")
	}
}

// TestRotateSyncsOldFileFirst: records written without a wait are durable
// by the time Rotate returns — the old generation is synced before it is
// closed — so waiting for them afterwards costs no further fsync, and
// records written after the rotation start from a clean watermark.
func TestRotateSyncsOldFileFirst(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "g0.wal"), filepath.Join(dir, "g1.wal")
	w, err := OpenWriter(a, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var cc commitCounter
	w.SetObserver(cc.observer())
	old, err := w.Write([]byte("old-gen"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(b); err != nil {
		t.Fatal(err)
	}
	if w.durable.Load() < old {
		t.Fatalf("rotation left record %d behind the watermark (%d)", old, w.durable.Load())
	}
	if err := w.Wait(old); err != nil || cc.fsyncs.Load() != 0 {
		t.Fatalf("waiting for a rotated-out record: err=%v, %d fsyncs", err, cc.fsyncs.Load())
	}
	if err := w.Append([]byte("new-gen")); err != nil {
		t.Fatal(err)
	}
	if cc.fsyncs.Load() != 1 || cc.covered.Load() != 1 {
		t.Fatalf("first append of the new generation: %d fsyncs covering %d, want 1 and 1",
			cc.fsyncs.Load(), cc.covered.Load())
	}
	ra, _ := ScanFile(a)
	if len(ra.Records) != 1 || !bytes.Equal(ra.Records[0], []byte("old-gen")) {
		t.Fatalf("old file: %+v", ra)
	}
}

// FuzzWALReplay drives the scanner with arbitrary bytes: it must never
// panic, must report consistent (ValidBytes, Records, Truncated), and a
// reported-clean file must re-scan identically after a write-back.
func FuzzWALReplay(f *testing.F) {
	seed := func(payloads ...[]byte) []byte {
		var buf []byte
		for _, p := range payloads {
			buf = appendFrame(buf, p)
		}
		return buf
	}
	f.Add([]byte{})
	f.Add(seed([]byte("hello")))
	f.Add(seed([]byte("a"), []byte("bb"), []byte("ccc")))
	f.Add(seed([]byte(`{"t":"ADDED","v":1,"o":{}}`)))
	f.Add(seed([]byte("torn"))[:5])
	damaged := seed([]byte("flip-me"))
	damaged[frameHeader] ^= 0x01
	f.Add(damaged)
	// The log's own records: store- and shard-tagged, and a slim node.
	f.Add(seed([]byte(`{"s":"jobs","h":3,"t":"ADDED","v":1,"o":{}}`), []byte(`{"s":"nodes","h":0,"t":"MODIFIED","v":2,"o":{"spec":{"backendJSON":null}}}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		res := Scan(data)
		if res.ValidBytes < 0 || res.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d out of range [0,%d]", res.ValidBytes, len(data))
		}
		if len(res.Records) != len(res.Offsets) {
			t.Fatalf("records/offsets mismatch: %d vs %d", len(res.Records), len(res.Offsets))
		}
		if !res.Truncated && res.ValidBytes != int64(len(data)) {
			t.Fatalf("clean scan consumed %d of %d bytes", res.ValidBytes, len(data))
		}
		// The valid prefix must itself scan clean with identical records —
		// this is exactly what boot-time safe-truncation relies on.
		again := Scan(data[:res.ValidBytes])
		if again.Truncated || len(again.Records) != len(res.Records) {
			t.Fatalf("valid prefix rescan diverged: %+v vs %+v", again, res)
		}
		for i := range again.Records {
			if !bytes.Equal(again.Records[i], res.Records[i]) {
				t.Fatalf("record %d diverged on rescan", i)
			}
		}
	})
}
