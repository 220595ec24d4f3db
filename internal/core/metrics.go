package core

import (
	"time"

	"qrio/internal/cluster/durability"
	"qrio/internal/cluster/kubelet"
	"qrio/internal/cluster/state"
	"qrio/internal/faults"
	"qrio/internal/obs"
	"qrio/internal/sched"
)

// registerMetrics threads one registry through every layer that has stats
// to tell. Hot paths (binds, scheduling passes, WAL appends, job runs) get
// direct handles installed before any traffic; everything that already keeps its
// own counters (cache stats, breaker opens, archive depth, fault fire
// counts, durability stats) is mirrored into the registry by a scrape-time
// hook instead — the layers stay ignorant of the registry and a scrape
// pays the sampling cost, not the hot path.
func registerMetrics(q *QRIO, r *obs.Registry) {
	q.State.Metrics = state.NewMetrics(r)
	q.Scheduler.Metrics = sched.NewMetrics(r)
	q.kubeletMetrics = kubelet.NewMetrics(r)
	for _, k := range q.Kubelets {
		k.Metrics = q.kubeletMetrics
	}
	if q.Durability != nil {
		q.Durability.SetMetrics(durability.NewMetrics(r))
	}

	// State depth: how much work sits in each lifecycle tier right now.
	depth := r.Gauge("qrio_state_depth_jobs",
		"Jobs resident per lifecycle tier.", "phase")
	pending := depth.With("pending")
	active := depth.With("active")
	terminal := depth.With("terminal")
	archived := depth.With("archived")

	// Watch hub: live subscriber count and fanout backlog.
	watchStreams := r.Gauge("qrio_watch_active_streams",
		"Live merged watch streams (SSE clients, internal waiters).").With()
	watchLag := r.Gauge("qrio_watch_fanout_lag_events",
		"Notifications buffered across all watch streams (fanout lag).").With()

	// Meta score cache: mirrored monotonic counters plus residency.
	cacheEvents := r.Counter("qrio_meta_cache_events_total",
		"Score cache activity by event.", "event")
	cacheHits := cacheEvents.With("hit")
	cacheMisses := cacheEvents.With("miss")
	cacheEvictions := cacheEvents.With("eviction")
	cacheInvalidations := cacheEvents.With("invalidation")
	cacheEntries := r.Gauge("qrio_meta_cache_entries",
		"Score cache entries resident.").With()

	// Degraded scheduling: the breaker already counts its opens.
	r.CounterFunc("qrio_sched_degraded_episodes_total",
		"Degraded-mode scheduling episodes (meta-scoring breaker opens).",
		func() float64 { return float64(q.ScorerBreaker.Opens()) })

	// Archive tier.
	r.GaugeFunc("qrio_archive_resident_entries",
		"Terminal jobs resident in the archive tier.",
		func() float64 { return float64(q.State.Archived.Len()) })
	r.CounterFunc("qrio_archive_dropped_entries_total",
		"Archive entries evicted past the archive capacity.",
		func() float64 { return float64(q.State.Archived.Dropped()) })
	spillErr := r.Gauge("qrio_archive_spill_errors",
		"1 while the archive spill writer has a latched error, else 0.").With()

	// Fault injection: per-point fire counts (all zero unless -faults arms
	// a point — the visible trace of a chaos run).
	fired := r.Counter("qrio_faults_fired_total",
		"Fault-injection point triggers.", "point")
	faultPoints := []string{
		faults.PointHTTPRoundTrip, faults.PointMetaScore,
		faults.PointKubeletRuntime, faults.PointWALAppend,
		faults.PointArchiveSpill,
	}

	// Durability: gauge-like families mirrored from one Stats() call per
	// scrape. Registered only when the deployment is durable, so a pure
	// in-memory process does not advertise meaningless zeros.
	var walLagRecords, walLagBytes, snapAge, snapGen, walLatched *obs.Gauge
	var walClears *obs.Counter
	if q.Durability != nil {
		walLagRecords = r.Gauge("qrio_durability_wal_lag_records",
			"WAL records appended since the last snapshot (replay debt).").With()
		walLagBytes = r.Gauge("qrio_durability_wal_lag_bytes",
			"WAL bytes appended since the last snapshot (replay debt).").With()
		snapAge = r.Gauge("qrio_durability_snapshot_age_seconds",
			"Seconds since the last successful snapshot (-1 before the first).").With()
		snapGen = r.Gauge("qrio_durability_snapshot_generation",
			"Current WAL generation (bumped by each snapshot).").With()
		walLatched = r.Gauge("qrio_durability_wal_latched_errors",
			"1 while a WAL append error is latched, else 0.").With()
		walClears = r.Counter("qrio_durability_wal_error_clears_total",
			"Latched WAL errors healed by a successful snapshot.").With()
	}

	r.OnGather(func() {
		pending.Set(float64(q.State.PendingCount()))
		active.Set(float64(q.State.ActiveCount()))
		terminal.Set(float64(q.State.TerminalCount()))
		archived.Set(float64(q.State.Archived.Len()))

		streams, backlog := q.State.WatchHubStats()
		watchStreams.Set(float64(streams))
		watchLag.Set(float64(backlog))

		cs := q.Meta.CacheStats()
		cacheHits.Set(cs.Hits)
		cacheMisses.Set(cs.Misses)
		cacheEvictions.Set(cs.Evictions)
		cacheInvalidations.Set(cs.Invalidations)
		cacheEntries.Set(float64(cs.Entries))

		if q.State.Archived.SpillErr() != nil {
			spillErr.Set(1)
		} else {
			spillErr.Set(0)
		}

		for _, p := range faultPoints {
			fired.With(p).Set(uint64(q.Faults.Fired(p)))
		}

		if q.Durability != nil {
			st := q.Durability.Stats()
			walLagRecords.Set(float64(st.WALRecords))
			walLagBytes.Set(float64(st.WALBytes))
			// Snapshot timestamps are wall clock (durability stamps them
			// with time.Now even under a virtual Clock), so age is too.
			if st.LastSnapshotAt.IsZero() {
				snapAge.Set(-1)
			} else {
				snapAge.Set(time.Since(st.LastSnapshotAt).Seconds())
			}
			snapGen.Set(float64(st.Generation))
			if st.WALError != "" {
				walLatched.Set(1)
			} else {
				walLatched.Set(0)
			}
			walClears.Set(uint64(st.WALErrorClears))
		}
	})
}
