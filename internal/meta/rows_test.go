package meta_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/graph"
	"qrio/internal/meta"
)

// variantQASM mints a distinct, cheap circuit source per k so tests can
// produce never-seen fingerprints at will.
func variantQASM(k int) string {
	return fmt.Sprintf("OPENQASM 2.0;\nqreg q[3];\nh q[0];\nu1(%d*pi/1000) q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n", k+1)
}

func putFidelityJob(t *testing.T, s *meta.Server, name, src string) {
	t.Helper()
	if err := s.PutJobMeta(meta.JobMeta{JobName: name, Strategy: api.StrategyFidelity,
		TargetFidelity: 1, CircuitQASM: src}); err != nil {
		t.Fatal(err)
	}
}

// fleetOf registers n small line devices of differing quality.
func fleetOf(t *testing.T, s *meta.Server, n int) []string {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("dev-%02d", i)
		if err := s.RegisterBackend(backend(t, names[i], graph.Line(4), 0.02+0.01*float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func sweep(t *testing.T, s *meta.Server, job string, names []string) []meta.BatchResult {
	t.Helper()
	out := s.ScoreBatch(job, names, 0)
	for _, r := range out {
		if r.Error != "" {
			t.Fatalf("%s on %s: %s", job, r.Backend, r.Error)
		}
	}
	return out
}

// TestCacheCountsPairsOnRows restates the score cache's contract on its
// row layout: Entries, Evictions and Invalidations count (fingerprint,
// backend) pairs; a re-registered backend misses on every fingerprint while
// its neighbours keep hitting; the LRU cap evicts whole cold rows.
func TestCacheCountsPairsOnRows(t *testing.T) {
	s := meta.NewServer(meta.Options{CacheMaxEntries: 7})
	names := fleetOf(t, s, 3)
	putFidelityJob(t, s, "a", variantQASM(0))
	putFidelityJob(t, s, "b", variantQASM(1))
	sweep(t, s, "a", names)
	sweep(t, s, "b", names)
	if st := s.CacheStats(); st.Entries != 6 || st.Misses != 6 || st.Hits != 0 {
		t.Fatalf("after two cold sweeps: %+v", st)
	}
	// Recalibrate one device: one pair per fingerprint goes, the rest stay.
	if err := s.RegisterBackend(backend(t, names[1], graph.Line(4), 0.3)); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 4 || st.Invalidations != 2 || st.Evictions != 0 {
		t.Fatalf("after recalibration: %+v", st)
	}
	sweep(t, s, "a", names)
	sweep(t, s, "b", names)
	if st := s.CacheStats(); st.Entries != 6 || st.Misses != 8 || st.Hits != 4 {
		t.Fatalf("recalibrated backend must miss on every fingerprint, the others hit: %+v", st)
	}
	// A third fingerprint pushes past the cap of 7 pairs at its second
	// pair; the coldest row ("a", 3 pairs) goes whole.
	putFidelityJob(t, s, "c", variantQASM(2))
	sweep(t, s, "c", names)
	if st := s.CacheStats(); st.Entries != 6 || st.Evictions != 3 {
		t.Fatalf("after cap eviction: %+v", st)
	}
	misses := s.CacheStats().Misses
	sweep(t, s, "b", names)
	if st := s.CacheStats(); st.Misses != misses {
		t.Fatalf("warm row recomputed: %+v", st)
	}
	sweep(t, s, "a", names)
	if st := s.CacheStats(); st.Misses != misses+3 {
		t.Fatalf("evicted row served from cache: %+v", st)
	}
}

// TestRecalibrationNeverServesStaleScore hammers Score against
// RegisterBackend under -race: a score computed against calibration
// generation g must never be served once g+1 is registered, however the
// computation interleaves with the re-registration.
func TestRecalibrationNeverServesStaleScore(t *testing.T) {
	cals := []float64{0.01, 0.6}
	want := make([]float64, len(cals))
	for i, e2 := range cals {
		ref := meta.NewServer(meta.Options{})
		if err := ref.RegisterBackend(backend(t, "dev", graph.Line(4), e2)); err != nil {
			t.Fatal(err)
		}
		putFidelityJob(t, ref, "bell", bellQASM)
		var err error
		if want[i], err = ref.Score("bell", "dev"); err != nil {
			t.Fatal(err)
		}
	}
	if want[0] == want[1] {
		t.Fatal("calibrations indistinguishable; the test cannot see a stale score")
	}

	s := meta.NewServer(meta.Options{})
	if err := s.RegisterBackend(backend(t, "dev", graph.Line(4), cals[0])); err != nil {
		t.Fatal(err)
	}
	putFidelityJob(t, s, "bell", bellQASM)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := s.Score("bell", "dev")
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[0] && got != want[1] {
					t.Errorf("score %v belongs to neither calibration (%v)", got, want)
					return
				}
			}
		}()
	}
	// Only this goroutine registers, so between its RegisterBackend and its
	// Score the calibration cannot change: the answer must be the new one.
	for round := 1; round <= 300; round++ {
		k := round % len(cals)
		if err := s.RegisterBackend(backend(t, "dev", graph.Line(4), cals[k])); err != nil {
			t.Fatal(err)
		}
		got, err := s.Score("bell", "dev")
		if err != nil {
			t.Fatal(err)
		}
		if got != want[k] {
			t.Fatalf("round %d: score %v served after registering calibration %d (want %v)", round, got, k, want[k])
		}
	}
	close(stop)
	wg.Wait()
	if st := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("one fingerprint on one backend must leave one entry: %+v", st)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestColdSweepResidency: a never-seen fingerprint leaves behind one cache
// row (a slot per backend) and its job metadata — nothing per (fingerprint,
// backend) pair beyond the slot, and nothing of its prepared ensemble once
// the prepared table has moved on.
func TestColdSweepResidency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 300 small fleet sweeps")
	}
	const devices = 12
	s := meta.NewServer(meta.Options{})
	names := fleetOf(t, s, devices)
	run := func(from, to int) {
		for k := from; k < to; k++ {
			job := fmt.Sprintf("cold-%d", k)
			putFidelityJob(t, s, job, variantQASM(k))
			sweep(t, s, job, names)
		}
	}
	run(0, 50)
	at50 := liveHeap()
	run(50, 300)
	at300 := liveHeap()
	if st := s.CacheStats(); st.Entries != 300*devices {
		t.Fatalf("entries = %d, want %d", st.Entries, 300*devices)
	}
	perFingerprint := (float64(at300) - float64(at50)) / 250
	// A row is 8 B and a bit per backend plus its key; the job's metadata is its
	// QASM plus two small structs. The map-and-list layout this replaced
	// cost ~300 B per pair, 3.6 KB per fingerprint here.
	if limit := 1800.0; perFingerprint > limit {
		t.Fatalf("live heap grew %.0f B per never-seen fingerprint over %d devices, want < %.0f", perFingerprint, devices, limit)
	}
	t.Logf("live heap: %d B after 50 sweeps, %d B after 300: %.0f B per fingerprint", at50, at300, perFingerprint)
}
