// Command qrio runs an all-in-one QRIO deployment: cluster control plane,
// scheduler, kubelets, Meta Server, Master Server and the web Visualizer,
// over a generated (or user-supplied) device fleet.
//
// Endpoints (one listener, two mounts — every write enters through /v1's
// gates, the dashboard's forms included):
//
//	/v1/             — the gateway: jobs (submit/batch/list/cancel), nodes,
//	                   scores, events, SSE watch, tenants, admin, typed
//	                   health (/v1/health) and Prometheus metrics
//	                   (/v1/metrics) — what qrioctl and the qrio/client
//	                   package speak
//	/                — Visualizer dashboard (submit jobs, view cluster/logs),
//	                   built over the same gateway
//
// Usage:
//
//	qrio [-addr :8080] [-fleet fleet.json] [-small] [-concurrency N]
//	     [-node-concurrency N]
//	     [-tenant-weights a=3,b=1] [-quota-pending N] [-quota-active N]
//	     [-quota-qubit-seconds F]
//	     [-rate-limit F] [-rate-burst N] [-max-in-flight N]
//	     [-retention-max-age D] [-retention-max-count N] [-archive-spill F]
//	     [-data-dir DIR] [-wal-fsync=false] [-snapshot-interval D]
//	     [-faults point:mode[:prob[:latency]],...] [-debug-addr ADDR]
//
// -rate-limit bounds each tenant's submission arrival rate (token bucket,
// 429 rate_limited + Retry-After); -max-in-flight sheds excess concurrent
// /v1 requests (503 overloaded). On SIGTERM/SIGINT the daemon drains
// gracefully: intake answers 503 draining, in-flight requests and
// containers finish, unclaimed scheduled jobs are requeued, and (with
// -data-dir) a final compacted snapshot is written. -faults arms named
// fault points for resilience rehearsal — never in production.
// -debug-addr serves net/http/pprof on a listener of its own (never on the
// API's), for CPU and heap profiles of a live daemon; empty serves nothing.
//
// With -data-dir, cluster state is durable: every mutation is written to the
// WAL under DIR, compacted snapshots are taken every
// -snapshot-interval, and a restart replays the directory — jobs, results,
// events, tenant overrides and the archive come back; jobs that were
// running when the process died are re-queued. Without -data-dir the
// deployment is fully in-memory, exactly as before.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qrio"

	"qrio/internal/cluster/api"
	"qrio/internal/daemon"
	"qrio/internal/device"
	"qrio/internal/faults"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	fleetPath := flag.String("fleet", "", "JSON fleet file (default: generate the Table 2 fleet)")
	small := flag.Bool("small", false, "generate a reduced 30-device fleet")
	concurrency := flag.Int("concurrency", 1, "scheduler bind budget per pass (1 = paper behaviour: one job at a time)")
	nodeConcurrency := flag.Int("node-concurrency", 1, "containers per node (1 = paper behaviour; >1 bounded by node CPU capacity)")
	tenantWeights := flag.String("tenant-weights", "", "fair-share weights as tenant=weight pairs, e.g. alice=3,bob=1 (unlisted tenants weigh 1)")
	quotaPending := flag.Int("quota-pending", 0, "per-tenant admission cap on pending jobs (0 = unlimited)")
	quotaActive := flag.Int("quota-active", 0, "per-tenant admission cap on jobs holding node resources (0 = unlimited)")
	quotaQubitSec := flag.Float64("quota-qubit-seconds", 0, "per-tenant admission cap on estimated qubit-seconds in flight (0 = unlimited)")
	retentionAge := flag.Duration("retention-max-age", 0, "archive terminal jobs older than this (0 = keep resident forever)")
	retentionCount := flag.Int("retention-max-count", 0, "archive the oldest terminal jobs beyond this resident count (0 = unlimited)")
	archiveSpill := flag.String("archive-spill", "", "append archived jobs as JSON lines to this file (incompatible with -data-dir, which owns its own spill)")
	dataDir := flag.String("data-dir", "", "durable state directory: WAL + snapshots + archive spill (empty = in-memory)")
	walFsync := flag.Bool("wal-fsync", true, "make every WAL write wait for an fsync covering it (with -data-dir; =false trades the log tail on power loss for latency)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "compacted snapshot period with -data-dir (0 = 5m default, negative = admin-triggered only)")
	rateLimit := flag.Float64("rate-limit", 0, "per-tenant submission rate limit in submissions/second (0 = unlimited; per-tenant overrides via PUT /v1/tenants/{name})")
	rateBurst := flag.Int("rate-burst", 0, "token-bucket burst for -rate-limit (0 = max(1, ceil(rate)))")
	maxInFlight := flag.Int("max-in-flight", 0, "global cap on concurrent /v1 requests; excess sheds with 503 overloaded (0 = uncapped)")
	faultSpec := flag.String("faults", "", "DEV ONLY: arm fault points as point:mode[:probability[:latency]] entries, comma-separated, e.g. meta.score:error:0.5 (modes: error, latency, hang; meta.score fires once per backend the Meta Server scores — in a rank and on /v1/score and /v1/score/batch alike — so a latency fault adds up along one request)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof's /debug/pprof/ on this address, apart from -addr (empty = off)")
	flag.Parse()

	if *dataDir != "" && *archiveSpill != "" {
		log.Fatalf("-archive-spill cannot be combined with -data-dir: the data directory already maintains %s/archive.jsonl", *dataDir)
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		log.Fatalf("parsing -tenant-weights: %v", err)
	}
	fleet, err := loadFleet(*fleetPath, *small)
	if err != nil {
		log.Fatalf("loading fleet: %v", err)
	}
	if err := faults.Default.Parse(*faultSpec); err != nil {
		log.Fatalf("parsing -faults: %v", err)
	}
	if armed := faults.Default.Armed(); len(armed) > 0 {
		log.Printf("WARNING: fault injection armed for %s — this daemon will misbehave on purpose", strings.Join(armed, ", "))
	}
	q, err := qrio.New(qrio.Config{
		Backends:        fleet,
		Metrics:         qrio.NewMetricsRegistry(),
		Concurrency:     *concurrency,
		NodeConcurrency: *nodeConcurrency,
		TenantWeights:   weights,
		TenantQuotas: api.TenantQuotaPolicy{
			Default: api.TenantQuota{
				MaxPending:      *quotaPending,
				MaxActive:       *quotaActive,
				MaxQubitSeconds: *quotaQubitSec,
			},
		},
		TenantRateLimits: api.TenantRateLimitPolicy{
			Default: api.TenantRateLimit{
				SubmitPerSecond: *rateLimit,
				Burst:           *rateBurst,
			},
		},
		Retention: qrio.RetentionPolicy{
			MaxTerminalAge:   *retentionAge,
			MaxTerminalCount: *retentionCount,
		},
		Durability: qrio.DurabilityOptions{
			Dir:              *dataDir,
			Fsync:            *walFsync,
			SnapshotInterval: *snapshotInterval,
		},
	})
	if err != nil {
		log.Fatalf("assembling QRIO: %v", err)
	}
	if q.Durability != nil {
		st := q.Durability.Stats()
		log.Printf("durable state: %s (gen %d, restored %d objects, replayed %d records, requeued %d jobs in %dms)",
			*dataDir, st.Generation, st.Replay.RestoredObjects, st.Replay.ReplayedRecords,
			st.Replay.RequeuedJobs, st.Replay.DurationMillis)
	}
	if *archiveSpill != "" {
		f, err := os.OpenFile(*archiveSpill, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening -archive-spill %s: %v", *archiveSpill, err)
		}
		defer f.Close()
		q.State.Archived.SetSpill(f)
	}
	q.Start()
	defer q.Close()

	log.Printf("QRIO up: %d nodes, visualizer at %s", len(fleet), visualizerURL(*addr))
	srv := &http.Server{Addr: *addr, Handler: daemon.HandlerMaxInFlight(q, *maxInFlight)}
	go func() {
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("serving: %v", err)
		}
	}()

	if *debugAddr != "" {
		go func() {
			log.Printf("profiler at http://%s/debug/pprof/", *debugAddr)
			log.Printf("debug listener: %v", http.ListenAndServe(*debugAddr, daemon.DebugHandler()))
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop intake first (503 draining; health reports it so
	// load balancers rotate away), let in-flight requests and containers
	// finish, requeue anything bound but unclaimed, snapshot, release.
	log.Print("draining: submissions rejected, finishing in-flight work")
	q.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: http shutdown: %v", err)
	}
	cancel()
	requeued, err := q.Drain()
	if err != nil {
		log.Printf("drain: %v", err)
	}
	log.Printf("drained: %d unclaimed jobs requeued; shutting down", requeued)
}

// visualizerURL is the dashboard's link for a listen address: its host, or
// localhost when the address names none.
func visualizerURL(addr string) string {
	host, port, _ := net.SplitHostPort(addr) // a -addr without a port fails ListenAndServe
	if host == "" {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port) + "/"
}

// parseTenantWeights parses "a=3,b=1" into a weight map.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, raw, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("malformed pair %q (want tenant=weight)", pair)
		}
		if !api.ValidTenantName(name) {
			return nil, fmt.Errorf("invalid tenant name %q", name)
		}
		w, err := strconv.Atoi(raw)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant %s: weight %q must be a positive integer", name, raw)
		}
		out[name] = w
	}
	return out, nil
}

func loadFleet(path string, small bool) ([]*device.Backend, error) {
	if path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var fleet []*device.Backend
		if err := json.Unmarshal(raw, &fleet); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return fleet, nil
	}
	spec := device.DefaultFleetSpec()
	if small {
		spec.QubitCounts = []int{15, 20, 27}
	}
	return device.GenerateFleet(spec)
}
