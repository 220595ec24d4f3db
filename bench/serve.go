package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/gateway"
	"qrio/internal/meta"
	"qrio/internal/obs"
	"qrio/internal/sched"
)

// Server-side span IDs start here; the load generator's start at 0.
const serverSpanBase = int64(1) << 40

// tracedDeployment is the traced run's system under test: core.New with
// the configuration the daemon's flags produce and the /v1 gateway on a
// loopback listener — with the exported seams wrapped from here. Nothing
// inside the program is touched: the wrappers sit around the gateway's
// http.Handler (one span per route), Scheduler.Framework.Scorer (one span
// per score) and the inner ResilientMetaScore.Scorer (the Meta-Server call
// itself, hit or miss).
type tracedDeployment struct {
	q    *core.QRIO
	rec  *recorder
	srv  *http.Server
	url  string
	done chan struct{}

	stopOnce sync.Once
	stopErr  error
}

// startTraced assembles and starts the traced deployment on addr
// ("127.0.0.1:0" picks a free port).
func startTraced(addr, dataDir string) (*tracedDeployment, error) {
	fleet, err := device.GenerateFleet(device.DefaultFleetSpec())
	if err != nil {
		return nil, err
	}
	q, err := core.New(core.Config{
		Backends:        fleet,
		Metrics:         obs.NewRegistry(),
		Concurrency:     daemonConcurrency,
		NodeConcurrency: daemonNodeConcurrency,
		Durability:      durability.Options{Dir: dataDir, Fsync: true},
	})
	if err != nil {
		return nil, err
	}
	rec := newRecorder(serverSpanBase)
	rms, ok := q.Scheduler.Framework.Scorer.(*sched.ResilientMetaScore)
	if !ok {
		q.Close()
		return nil, fmt.Errorf("scheduler scorer is %T, want *sched.ResilientMetaScore", q.Scheduler.Framework.Scorer)
	}
	link := &scoreLink{}
	rms.Scorer = &tracedMeta{inner: rms.Scorer, meta: q.Meta, rec: rec, link: link}
	q.Scheduler.Framework.Scorer = &tracedScore{inner: rms, rec: rec, link: link}
	q.Start()

	l, err := net.Listen("tcp", addr)
	if err != nil {
		q.Close()
		return nil, err
	}
	d := &tracedDeployment{q: q, rec: rec, url: "http://" + l.Addr().String(), done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.Handle("/v1/", tracedHandler(gateway.New(q).Handler(), rec))
	mux.HandleFunc("POST /bench/trace", d.handleToggle)
	mux.HandleFunc("GET /bench/memstats", handleMemStats)
	d.srv = &http.Server{Handler: mux}
	go func() {
		defer close(d.done)
		if err := d.srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "traced deployment: serving: %v\n", err)
		}
	}()
	return d, nil
}

func (d *tracedDeployment) URL() string { return d.url }

// CPU and PeakRSSMB report the hosting process's own usage: in the traced
// run that process is a child hosting nothing else; in tests it includes
// the test's load generator.
func (d *tracedDeployment) CPU() (time.Duration, error) { return ownCPU(), nil }

func (d *tracedDeployment) PeakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(raw)
}

// Stop mirrors the daemon's SIGTERM path: refuse intake, finish in-flight
// requests and containers, snapshot, release.
func (d *tracedDeployment) Stop() error {
	d.stopOnce.Do(func() {
		d.q.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := d.srv.Shutdown(ctx); err != nil {
			// Watch streams never end on their own; closing them is the
			// expected way out.
			d.srv.Close()
		}
		<-d.done
		if _, err := d.q.Drain(); err != nil {
			d.stopErr = err
		}
		if err := d.q.Close(); err != nil && d.stopErr == nil {
			d.stopErr = err
		}
	})
	return d.stopErr
}

// handleToggle switches span recording: POST /bench/trace?on=1|0.
func (d *tracedDeployment) handleToggle(w http.ResponseWriter, r *http.Request) {
	on, err := strconv.ParseBool(r.URL.Query().Get("on"))
	if err != nil {
		http.Error(w, "want on=1 or on=0", http.StatusBadRequest)
		return
	}
	d.rec.enabled.Store(on)
	w.WriteHeader(http.StatusNoContent)
}

// memStats is the slice of runtime.MemStats the harness reads off the
// traced deployment at the window's edges.
type memStats struct {
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	NumGC           uint32 `json:"numGC"`
}

func handleMemStats(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(memStats{TotalAllocBytes: ms.TotalAlloc, NumGC: ms.NumGC})
}

// serveTraced is the `-serve` mode: host the traced deployment until
// SIGTERM, then drain and write the server-side spans.
func serveTraced(addr, dataDir, spansOut string) error {
	d, err := startTraced(addr, dataDir)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	stopErr := d.Stop()
	if spansOut != "" {
		tf := traceFile{Dropped: d.rec.dropped.Load(), Spans: d.rec.snapshot()}
		if err := writeTrace(spansOut, tf); err != nil {
			return err
		}
	}
	return stopErr
}

// --- wrapped seams ---------------------------------------------------------

// routeOf names a request the way the gateway's mux patterns do, so spans
// and qrio_gateway_requests_total agree on route names.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	// /v1/<collection>/<name>[/<sub>]
	if len(parts) >= 3 && parts[0] == "v1" {
		switch parts[1] {
		case "jobs":
			if parts[2] != "batch" {
				parts[2] = "{name}"
			}
		case "nodes", "tenants":
			parts[2] = "{name}"
		}
	}
	return method + " /" + strings.Join(parts, "/")
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedHandler records one span per gateway request. The watch stream is
// passed through untouched: it lives for the whole run and is not a
// request in the latency sense.
func tracedHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on() || r.URL.Path == "/v1/watch" {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		rec.add(span{
			ID: rec.newID(), Name: "gateway " + routeOf(r.Method, r.URL.Path),
			Start: start.UnixNano(), End: time.Now().UnixNano(),
			Attr: strconv.Itoa(sw.status),
		})
	})
}

// scoreLink hands the outer score span's ID to the inner Meta-Server span
// of the same (job, node) pair. The framework calls the outer scorer, which
// calls the inner one synchronously on the same goroutine, but the only
// values that cross that call are the two names — so they are the key.
type scoreLink struct{ m sync.Map }

func (l *scoreLink) key(job, node string) string { return job + "\x00" + node }

// tracedScore wraps Scheduler.Framework.Scorer.
type tracedScore struct {
	inner sched.ScorePlugin
	rec   *recorder
	link  *scoreLink
}

func (t *tracedScore) Name() string { return t.inner.Name() }

func (t *tracedScore) Score(j api.QuantumJob, n api.Node) (float64, error) {
	if !t.rec.on() {
		return t.inner.Score(j, n)
	}
	id := t.rec.newID()
	key := t.link.key(j.Name, n.Name)
	t.link.m.Store(key, id)
	start := time.Now()
	score, err := t.inner.Score(j, n)
	end := time.Now()
	t.link.m.Delete(key)
	t.rec.add(span{ID: id, Name: "sched.score", Job: j.Name, Start: start.UnixNano(), End: end.UnixNano(), Attr: n.Name})
	return score, err
}

// tracedMeta wraps ResilientMetaScore.Scorer — the live Meta-Server call.
type tracedMeta struct {
	inner meta.Scorer
	meta  *meta.Server
	rec   *recorder
	link  *scoreLink
}

func (t *tracedMeta) Score(jobName, backendName string) (float64, error) {
	if !t.rec.on() {
		return t.inner.Score(jobName, backendName)
	}
	var parent int64
	if v, ok := t.link.m.Load(t.link.key(jobName, backendName)); ok {
		parent = v.(int64)
	}
	missesBefore := t.meta.CacheStats().Misses
	start := time.Now()
	score, err := t.inner.Score(jobName, backendName)
	end := time.Now()
	// Concurrent scorers share the miss counter, so a neighbour's miss can
	// advance it during a hit; a hit never takes a millisecond, a canary
	// simulation always does.
	attr := "hit"
	if t.meta.CacheStats().Misses > missesBefore && end.Sub(start) > time.Millisecond {
		attr = "miss"
	}
	t.rec.add(span{ID: t.rec.newID(), Parent: parent, Name: "meta.score", Job: jobName,
		Start: start.UnixNano(), End: end.UnixNano(), Attr: attr})
	return score, err
}

// nopMeta stands in for the Meta Server when the wrappers' own cost is
// calibrated.
type nopMeta struct{}

func (nopMeta) Score(string, string) (float64, error) { return 0, nil }

// tracedScoreCost calibrates what span recording adds to one score call:
// the two scoring wrappers around no-op scorers, recorder on minus recorder
// off, per call. trace.overhead_frac is built from it — on a host whose
// speed moves by tens of percent between two halves of a window, an A/B
// comparison of latencies inside one run measures the host, not the
// wrappers.
func tracedScoreCost() time.Duration {
	const calls = 20000
	rec := newRecorder(0)
	link := &scoreLink{}
	inner := &tracedMeta{inner: nopMeta{}, meta: meta.NewServer(meta.Options{}), rec: rec, link: link}
	outer := &tracedScore{inner: sched.MetaScore{Scorer: inner}, rec: rec, link: link}
	job, node := api.QuantumJob{ObjectMeta: api.ObjectMeta{Name: "calibration"}}, api.Node{ObjectMeta: api.ObjectMeta{Name: "node"}}
	run := func() time.Duration {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			outer.Score(job, node)
		}
		return time.Since(t0)
	}
	off := run()
	rec.enabled.Store(true)
	on := run()
	return max(on-off, 0) / calls
}
