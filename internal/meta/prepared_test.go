package meta

import (
	"fmt"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/graph"
)

func preparedTestServer(t *testing.T, backends int) *Server {
	t.Helper()
	s := NewServer(Options{})
	for i := 0; i < backends; i++ {
		b, err := device.UniformBackend(fmt.Sprintf("dev-%d", i), graph.Line(4), 0.05+0.1*float64(i), 0.01, 0.02, 500e3, 100e3)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func preparedTestJob(t *testing.T, s *Server, k int) string {
	t.Helper()
	name := fmt.Sprintf("job-%d", k)
	src := fmt.Sprintf("OPENQASM 2.0;\nqreg q[3];\nh q[0];\nu1(%d*pi/1000) q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n", k+1)
	if err := s.PutJobMeta(JobMeta{JobName: name, Strategy: api.StrategyFidelity, TargetFidelity: 1, CircuitQASM: src}); err != nil {
		t.Fatal(err)
	}
	return name
}

// TestPreparedTableBoundedAndRebuildable: the prepared table never holds
// more than maxPrepared ensembles however many fingerprints are swept, and
// a late scorer whose fingerprint's ensemble was evicted rebuilds it and
// scores exactly what an undisturbed server scores.
func TestPreparedTableBoundedAndRebuildable(t *testing.T) {
	s := preparedTestServer(t, 2)
	first := preparedTestJob(t, s, 0)
	early, err := s.Score(first, "dev-0")
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := s.jobs[first].fingerprint
	for k := 1; k <= 3*maxPrepared; k++ {
		if _, err := s.Score(preparedTestJob(t, s, k), "dev-0"); err != nil {
			t.Fatal(err)
		}
		if n := s.prepared.Len(); n > maxPrepared {
			t.Fatalf("prepared table holds %d ensembles, bound is %d", n, maxPrepared)
		}
	}
	if _, held := s.prepared.Get(fingerprint); held {
		t.Fatal("first fingerprint still prepared; the test did not evict it")
	}
	late, err := s.Score(first, "dev-1") // a device the first sweep never reached
	if err != nil {
		t.Fatal(err)
	}

	fresh := preparedTestServer(t, 2)
	preparedTestJob(t, fresh, 0)
	wantLate, err := fresh.Score(first, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	wantEarly, err := fresh.Score(first, "dev-0")
	if err != nil {
		t.Fatal(err)
	}
	if late != wantLate || early != wantEarly {
		t.Fatalf("late scorer got %v (early %v), undisturbed server %v (early %v)", late, early, wantLate, wantEarly)
	}
}

// TestInvalidationDropsEmptyRows: rows emptied by recalibration are removed,
// not left for the LRU cap (which counts pairs, and so would never see them).
func TestInvalidationDropsEmptyRows(t *testing.T) {
	s := preparedTestServer(t, 1)
	for k := 0; k < 5; k++ {
		if _, err := s.Score(preparedTestJob(t, s, k), "dev-0"); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.rows) != 5 || s.lru.Len() != 5 {
		t.Fatalf("rows = %d, lru = %d, want 5", len(s.rows), s.lru.Len())
	}
	if err := s.RegisterBackend(s.backends["dev-0"].dev); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 0 || st.Invalidations != 5 || len(s.rows) != 0 || s.lru.Len() != 0 {
		t.Fatalf("after recalibration: %+v, rows = %d, lru = %d", st, len(s.rows), s.lru.Len())
	}
}
