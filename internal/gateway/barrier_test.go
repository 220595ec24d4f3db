package gateway_test

import (
	"context"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/cluster/durability"
	"qrio/internal/core"
	"qrio/internal/faults"
	"qrio/internal/obs"
)

// TestNoByteAheadOfTheLog pins the process-boundary rule of the durability
// contract: a byte on the wire means everything it could have read is on
// disk. A latency fault at wal.append holds a submission's commit open —
// its job record is written and visible in memory, its two events are each
// still asleep in the fault, and the submitter's one fsync comes after them
// — and in that window a watch event and a GET of the job both reach the
// client only after an fsync has covered the record: the response's own
// barrier ran it, since nobody else could have.
func TestNoByteAheadOfTheLog(t *testing.T) {
	reg := faults.NewRegistry(1)
	c, q := deployCfg(t, core.Config{
		Metrics:    obs.NewRegistry(),
		Faults:     reg,
		Durability: durability.Options{Dir: t.TempDir(), Fsync: true, SnapshotInterval: -1},
	}, false, nil) // no scheduler: the submission's three records are the only writes
	t.Cleanup(func() { q.Durability.Close() })

	// commits reads the group-commit histogram: fsyncs run, records covered.
	commits := func() (fsyncs, records float64) {
		t.Helper()
		for _, s := range obs.FindFamily(q.Metrics.Gather(), "qrio_durability_commit_records").Samples {
			switch s.Name {
			case "qrio_durability_commit_records_count":
				fsyncs = s.Value
			case "qrio_durability_commit_records_sum":
				records = s.Value
			}
		}
		return fsyncs, records
	}
	// heldSubmit arms the fault, submits in the background and returns once
	// the job is visible in memory — written to the log, synced by nobody.
	heldSubmit := func(name string) (submitted chan error) {
		t.Helper()
		reg.Enable(faults.PointWALAppend, faults.Spec{Mode: faults.ModeLatency, Latency: 400 * time.Millisecond})
		t.Cleanup(func() { reg.Disable(faults.PointWALAppend) })
		submitted = make(chan error, 1)
		go func() {
			_, err := c.Submit(context.Background(), ghzReq(name))
			submitted <- err
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, _, err := q.State.Jobs.Get(name); err == nil {
				return submitted
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never became visible", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stillOpen := func(submitted chan error, what string) {
		t.Helper()
		select {
		case err := <-submitted:
			t.Fatalf("the submission returned (%v) before %s: the commit was not held open, the test proves nothing", err, what)
		default:
		}
	}

	// settled waits for the submission and checks what the window cost: the
	// barrier's fsync (covering the job record) plus the submitter's own
	// (covering its two events) — without a barrier there is only the
	// second.
	settled := func(submitted chan error, f0, r0 float64, what string) {
		t.Helper()
		if err := <-submitted; err != nil {
			t.Fatal(err)
		}
		reg.Disable(faults.PointWALAppend)
		if f1, r1 := commits(); f1 != f0+2 || r1 != r0+3 {
			t.Fatalf("%s while its record was unsynced, and the window cost %v fsyncs covering %v records: "+
				"want 2 covering 3 — one run by the response's barrier, ahead of the submitter's own",
				what, f1-f0, r1-r0)
		}
	}

	// 1. A streamed watch event.
	ctx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	events, err := c.Watch(ctx, client.WatchOptions{Kind: "job"})
	if err != nil {
		t.Fatal(err)
	}
	f0, r0 := commits()
	submitted := heldSubmit("held-sse")
	select {
	case ev := <-events:
		if ev.Job == nil || ev.Job.Name != "held-sse" {
			t.Fatalf("unexpected watch event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no watch event for the held submission")
	}
	stillOpen(submitted, "its watch event arrived")
	settled(submitted, f0, r0, "a watch event was streamed")
	stopWatch() // the stream's barrier must not be the one that syncs for the GET below
	for range events {
	}

	// 2. A plain response.
	f0, r0 = commits()
	submitted = heldSubmit("held-get")
	job, err := c.Get(context.Background(), "held-get")
	if err != nil || job.Name != "held-get" {
		t.Fatalf("GET of the held job: %+v, %v", job, err)
	}
	stillOpen(submitted, "the GET answered")
	settled(submitted, f0, r0, "a GET answered")
}

// TestHealthAnswersBesideAHeldAppend: the log writer holds its mutex across
// a record's write — here a wal.append latency fault sleeping inside it —
// and /v1/health and a metrics scrape, which report the writer's record
// count and latched error, must read those without queueing behind it: a
// probe that stalls whenever the disk does cannot say that the disk does.
func TestHealthAnswersBesideAHeldAppend(t *testing.T) {
	reg := faults.NewRegistry(1)
	c, q := deployCfg(t, core.Config{
		Metrics:    obs.NewRegistry(),
		Faults:     reg,
		Durability: durability.Options{Dir: t.TempDir(), Fsync: true, SnapshotInterval: -1},
	}, false, nil)
	t.Cleanup(func() { q.Durability.Close() })
	if _, err := c.Health(context.Background()); err != nil { // connection and handler warm
		t.Fatal(err)
	}

	reg.Enable(faults.PointWALAppend, faults.Spec{Mode: faults.ModeLatency, Latency: 400 * time.Millisecond})
	t.Cleanup(func() { reg.Disable(faults.PointWALAppend) })
	submitted := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), ghzReq("held"))
		submitted <- err
	}()
	// Once the job is visible its record is written and the first of its
	// two events is asleep in the fault, inside the writer's mutex.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, err := q.State.Jobs.Get("held"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held job never became visible")
		}
	}
	start := time.Now()
	h, err := c.Health(context.Background())
	healthTook := time.Since(start)
	start = time.Now()
	_, merr := c.Metrics(context.Background())
	scrapeTook := time.Since(start)
	if err != nil || merr != nil || !h.Durability.OK {
		t.Fatalf("health %+v, %v; scrape %v", h.Durability, err, merr)
	}
	if healthTook > 50*time.Millisecond || scrapeTook > 50*time.Millisecond {
		t.Fatalf("GET /v1/health took %v and GET /v1/metrics %v beside a held append, want each within 50ms", healthTook, scrapeTook)
	}
	select {
	case err := <-submitted:
		t.Fatalf("the submission returned (%v) before the probes did: no append was held open, the test proves nothing", err)
	default:
	}
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
}
