// End-to-end tests of the observability surface: /v1/metrics scraped
// mid-lifecycle over an instrumented durable deployment, the typed
// /v1/health payload, the 404 behaviour of uninstrumented deployments, and
// the latched-WAL-error clear surfacing on both ops endpoints.
package gateway_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/core"
	"qrio/internal/faults"
	"qrio/internal/obs"
)

// obsFamily returns the named family or fails the test, so assertions
// read as one line per metric.
func obsFamily(t *testing.T, fams []client.MetricFamily, name string) *client.MetricFamily {
	t.Helper()
	f := obs.FindFamily(fams, name)
	if f == nil {
		t.Fatalf("family %s missing from /v1/metrics", name)
	}
	return f
}

// sampleValue returns the value of the first sample matching every given
// label pair (pass none to take the first sample), or fails.
func sampleValue(t *testing.T, f *client.MetricFamily, suffix string, labels ...string) float64 {
	t.Helper()
	for _, s := range f.Samples {
		if suffix != "" && !strings.HasSuffix(s.Name, suffix) {
			continue
		}
		ok := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Get(labels[i]) != labels[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value
		}
	}
	t.Fatalf("family %s: no sample with suffix %q labels %v", f.Name, suffix, labels)
	return 0
}

// TestMetricsEndToEnd runs the full observability loop an operator would:
// deploy a durable, instrumented cluster, push jobs through it, snapshot,
// then scrape /v1/metrics with the client and check that the exposition
// carries live families from every layer — scheduler, state, kubelets,
// meta cache, gateway, watch hub, durability/archive and faults.
func TestMetricsEndToEnd(t *testing.T) {
	cfg := core.Config{
		Metrics:         obs.NewRegistry(),
		Concurrency:     4,
		NodeConcurrency: 1,
		Durability:      durability.Options{Dir: t.TempDir(), SnapshotInterval: -1},
	}
	c, q := deployCfg(t, cfg, true, nil)
	t.Cleanup(func() { q.Durability.Close() })
	ctx := context.Background()

	// Traffic: three jobs across two tenants, run to completion (the
	// Wait calls also exercise the watch hub), then one admin snapshot.
	for _, sub := range []client.SubmitRequest{
		tenantReq("obs-a1", "alice"),
		tenantReq("obs-a2", "alice"),
		tenantReq("obs-b1", "bob"),
	} {
		if _, err := c.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"obs-a1", "obs-a2", "obs-b1"} {
		job, err := c.Wait(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status.Phase != api.JobSucceeded {
			t.Fatalf("job %s finished %s", name, job.Status.Phase)
		}
	}
	if _, err := c.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}

	fams, err := c.MetricFamilies(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The acceptance floor: at least 15 distinct families spanning the
	// six instrumented layers.
	if len(fams) < 15 {
		names := make([]string, len(fams))
		for i, f := range fams {
			names[i] = f.Name
		}
		t.Fatalf("only %d families exposed: %v", len(fams), names)
	}
	for _, name := range []string{
		// scheduler
		"qrio_sched_pass_duration_seconds",
		"qrio_sched_pass_jobs_total",
		"qrio_sched_degraded_episodes_total",
		// state
		"qrio_state_submit_to_bind_seconds",
		"qrio_state_depth_jobs",
		"qrio_state_tenant_binds_total",
		"qrio_state_quota_rejections_total",
		// kubelets
		"qrio_kubelet_run_duration_seconds",
		// meta score cache
		"qrio_meta_cache_events_total",
		"qrio_meta_cache_entries",
		// gateway
		"qrio_gateway_requests_total",
		"qrio_gateway_request_duration_seconds",
		"qrio_gateway_inflight_requests",
		"qrio_gateway_sheds_total",
		// watch hub
		"qrio_watch_active_streams",
		"qrio_watch_fanout_lag_events",
		"qrio_watch_resume_total",
		// durability + archive + faults
		"qrio_durability_wal_appends_total",
		"qrio_durability_snapshot_generation",
		"qrio_archive_resident_entries",
		"qrio_faults_fired_total",
	} {
		obsFamily(t, fams, name)
	}

	// Spot-check values against the lifecycle the test just drove.
	if v := sampleValue(t, obsFamily(t, fams, "qrio_sched_pass_duration_seconds"), "_count"); v < 1 {
		t.Fatalf("scheduler passes observed = %v, want >= 1", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_sched_pass_jobs_total"), "", "outcome", "bound"); v < 3 {
		t.Fatalf("bound jobs counted = %v, want >= 3", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_state_submit_to_bind_seconds"), "_count"); v != 3 {
		t.Fatalf("submit-to-bind observations = %v, want 3", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_state_tenant_binds_total"), "", "tenant", "alice"); v != 2 {
		t.Fatalf("alice binds = %v, want 2", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_state_tenant_binds_total"), "", "tenant", "bob"); v != 1 {
		t.Fatalf("bob binds = %v, want 1", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_state_depth_jobs"), "", "phase", "terminal"); v != 3 {
		t.Fatalf("terminal depth = %v, want 3", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_kubelet_run_duration_seconds"), "_count", "outcome", "succeeded"); v != 3 {
		t.Fatalf("kubelet runs observed = %v, want 3 succeeded", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_kubelet_run_duration_seconds"), "_sum", "outcome", "succeeded"); v <= 0 {
		t.Fatalf("kubelet run time observed = %v s, want > 0", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_meta_cache_events_total"), "", "event", "miss"); v < 1 {
		t.Fatalf("meta cache misses = %v, want >= 1", v)
	}
	// The scrape itself rides through the gateway, so the submit route
	// and at least one 200 must already be on the books.
	if v := sampleValue(t, obsFamily(t, fams, "qrio_gateway_requests_total"), "", "route", "POST /v1/jobs", "code", "201"); v != 3 {
		t.Fatalf("submit route count = %v, want 3", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_gateway_request_duration_seconds"), "_count", "route", "POST /v1/jobs"); v != 3 {
		t.Fatalf("submit route latency observations = %v, want 3", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_durability_wal_appends_total"), ""); v < 3 {
		t.Fatalf("WAL appends = %v, want >= 3", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_durability_snapshot_generation"), ""); v != 1 {
		t.Fatalf("snapshot generation = %v, want 1", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_durability_snapshot_age_seconds"), ""); v < 0 {
		t.Fatalf("snapshot age = %v, want >= 0 after a snapshot", v)
	}

	// The raw exposition must be byte-stable between consecutive scrapes
	// of a quiet cluster (deterministic ordering is the whole point).
	raw1, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw1, "# TYPE qrio_gateway_requests_total counter") {
		t.Fatal("exposition missing TYPE header for qrio_gateway_requests_total")
	}
}

// TestHealthTypedPayload: /v1/health reports per-component status with an
// overall ok on a healthy deployment, and a plain GET decodes to the same
// payload the typed client returns.
func TestHealthTypedPayload(t *testing.T) {
	cfg := core.Config{
		Metrics:    obs.NewRegistry(),
		Durability: durability.Options{Dir: t.TempDir(), SnapshotInterval: -1},
	}
	c, q := deployCfg(t, cfg, false, nil)
	t.Cleanup(func() { q.Durability.Close() })
	ctx := context.Background()

	if _, err := c.Submit(ctx, ghzReq("obs-health-1")); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.OK || h.Draining {
		t.Fatalf("overall health = %+v", h)
	}
	if h.Store.Status != "ok" || h.Store.Nodes == 0 || h.Store.Jobs != 1 {
		t.Fatalf("store health = %+v", h.Store)
	}
	if h.Scheduler.Status != "ok" || h.Scheduler.Pending != 1 {
		t.Fatalf("scheduler health = %+v (loops stopped, job must stay pending)", h.Scheduler)
	}
	if h.Durability.Status != "ok" || !h.Durability.Enabled || !h.Durability.OK {
		t.Fatalf("durability health = %+v", h.Durability)
	}
	if h.Durability.WALRecords == 0 {
		t.Fatal("durability health shows no WAL records after a submit")
	}
	if h.Archive.Status != "ok" || h.Breaker.Status != "ok" || h.Breaker.State != "closed" {
		t.Fatalf("archive/breaker health = %+v / %+v", h.Archive, h.Breaker)
	}

	// Healthy() (which now targets /v1/health) agrees.
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}

	// An untyped probe (curl, a load balancer) reads the same payload.
	raw, err := c.Metrics(ctx) // instrumented deployment: metrics live
	if err != nil || raw == "" {
		t.Fatalf("metrics alongside health: %v", err)
	}
	resp, err := http.Get(c.BaseURL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var probe client.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	if probe.Status != h.Status || probe.Store.Jobs != h.Store.Jobs || probe.Durability.Generation != h.Durability.Generation {
		t.Fatalf("raw /v1/health diverged from Client.Health: %+v vs %+v", probe, h)
	}
}

// TestMetricsDisabled: a deployment assembled without a registry answers
// /v1/metrics with the typed 404 envelope instead of an empty exposition,
// so scrapers fail loudly rather than recording silence.
func TestMetricsDisabled(t *testing.T) {
	c, _ := deployCfg(t, core.Config{}, false, nil)
	ctx := context.Background()
	if _, err := c.Metrics(ctx); !client.IsNotFound(err) {
		t.Fatalf("metrics on uninstrumented deployment: err=%v, want not-found envelope", err)
	}
	// Health still works without a registry — the two surfaces are
	// independent.
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHealthSurfacesWALErrorClear drives the failure-and-heal loop from
// PR 8 through the new surfaces: a latched WAL error degrades /v1/health,
// a successful snapshot clears it, and the clear count appears in both
// /v1/admin/durability and the health payload (with the latch gone).
func TestHealthSurfacesWALErrorClear(t *testing.T) {
	reg := faults.NewRegistry(1)
	cfg := core.Config{
		Metrics:    obs.NewRegistry(),
		Faults:     reg,
		Durability: durability.Options{Dir: t.TempDir(), SnapshotInterval: -1},
	}
	c, q := deployCfg(t, cfg, false, nil)
	t.Cleanup(func() { q.Durability.Close() })
	ctx := context.Background()

	// Latch: every WAL append fails while the point is armed.
	reg.Enable(faults.PointWALAppend, faults.Spec{})
	if _, err := c.Submit(ctx, ghzReq("obs-wal-1")); err != nil {
		t.Fatal(err)
	}
	reg.Disable(faults.PointWALAppend)

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.OK {
		t.Fatalf("health with latched WAL error = %+v", h)
	}
	if h.Durability.Status != "degraded" || h.Durability.WALError == "" {
		t.Fatalf("durability health = %+v, want degraded with the latched error", h.Durability)
	}

	// Heal: the snapshot rotates past the broken writer and records the
	// clear, so the episode stays visible after it ends.
	if _, err := c.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALError != "" || st.WALErrorClears != 1 {
		t.Fatalf("admin durability after heal = %+v, want no error and 1 clear", st)
	}
	if st.LastWALErrorClearedAt.IsZero() {
		t.Fatal("admin durability missing the clear timestamp")
	}
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Durability.Status != "ok" || h.Durability.WALErrorClears != 1 {
		t.Fatalf("health after heal = %+v, want ok with walErrorClears=1", h)
	}
	if h.Durability.LastWALErrorClearedAt == nil || h.Durability.LastWALErrorClearedAt.IsZero() {
		t.Fatalf("health missing the clear timestamp: %+v", h.Durability)
	}

	// The instrumented view tells the same story.
	fams, err := c.MetricFamilies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_durability_wal_latched_errors"), ""); v != 0 {
		t.Fatalf("latched-error gauge = %v after heal, want 0", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_durability_wal_error_clears_total"), ""); v != 1 {
		t.Fatalf("clear counter = %v, want 1", v)
	}
	if v := sampleValue(t, obsFamily(t, fams, "qrio_faults_fired_total"), "", "point", faults.PointWALAppend); v < 1 {
		t.Fatalf("fault fire counter = %v, want >= 1", v)
	}
}
