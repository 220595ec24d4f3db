// Multi-tenancy end-to-end: tenant defaulting/validation, the intake's
// quota gates with their typed quota_exceeded envelope, the /v1/tenants
// usage listing, and the tenant list filter — all through the Go client.
package gateway_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/fidelity"
	"qrio/internal/gateway"
)

// deployCfg stands up an orchestrator with a caller-supplied config plus
// its gateway; start=false leaves the control loops stopped so submitted
// jobs sit in Pending forever (quota tests need a stable backlog).
func deployCfg(t *testing.T, cfg core.Config, start bool, mutate func(*core.QRIO)) (*client.Client, *core.QRIO) {
	t.Helper()
	if cfg.Backends == nil {
		cfg.Backends = twoNodeFleet(t)
	}
	q, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(q)
	}
	if start {
		q.Start()
		t.Cleanup(q.Stop)
	}
	srv := httptest.NewServer(gateway.New(q).Handler())
	t.Cleanup(srv.Close)
	return client.New(srv.URL), q
}

func tenantReq(name, tenant string) client.SubmitRequest {
	req := ghzReq(name)
	req.Tenant = tenant
	return req
}

// TestTenantDefaultingAndValidation: submissions without a tenant land on
// "default"; malformed tenant names are rejected with the invalid code
// before any expensive work.
func TestTenantDefaultingAndValidation(t *testing.T) {
	c, q := deployCfg(t, core.Config{}, false, nil)
	ctx := context.Background()

	job, err := c.Submit(ctx, ghzReq("plain"))
	if err != nil {
		t.Fatal(err)
	}
	if job.Spec.Tenant != api.DefaultTenant {
		t.Fatalf("tenant defaulted to %q, want %q", job.Spec.Tenant, api.DefaultTenant)
	}
	job, err = c.Submit(ctx, tenantReq("owned", "alice"))
	if err != nil || job.Spec.Tenant != "alice" {
		t.Fatalf("tenant submit: %+v, %v", job.Spec, err)
	}
	for _, bad := range []string{"Bad_Tenant", "UPPER", "-lead", "trail-", "sp ace"} {
		if _, err := c.Submit(ctx, tenantReq("bad-"+bad, bad)); !client.IsInvalid(err) {
			t.Fatalf("tenant %q: want invalid, got %v", bad, err)
		}
	}
	// The usage index sees both tenants.
	if u := q.State.TenantUsage("alice"); u.Pending != 1 {
		t.Fatalf("alice usage: %+v", u)
	}
}

// TestTenantQuotaPending: the intake rejects the submission that
// would exceed MaxPending with a 429 quota_exceeded envelope, tenants are
// isolated from each other, and draining the queue re-admits.
func TestTenantQuotaPending(t *testing.T) {
	cfg := core.Config{
		TenantQuotas: api.TenantQuotaPolicy{Default: api.TenantQuota{MaxPending: 2}},
	}
	c, _ := deployCfg(t, cfg, false, nil)
	ctx := context.Background()

	for i, name := range []string{"alice-1", "alice-2"} {
		if _, err := c.Submit(ctx, tenantReq(name, "alice")); err != nil {
			t.Fatalf("submit %d under quota: %v", i, err)
		}
	}
	_, err := c.Submit(ctx, tenantReq("alice-3", "alice"))
	if !client.IsQuotaExceeded(err) {
		t.Fatalf("over-quota submit: want quota_exceeded, got %v", err)
	}
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != "quota_exceeded" {
		t.Fatalf("quota envelope: %+v", apiErr)
	}
	// Another tenant is unaffected by alice's backlog.
	if _, err := c.Submit(ctx, tenantReq("bob-1", "bob")); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	// Draining alice's queue frees a slot.
	if _, err := c.Cancel(ctx, "alice-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, tenantReq("alice-3", "alice")); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestTenantQuotaActiveAndQubitSeconds: the active-jobs bound trips while
// a job holds a node, clears when it finishes; the qubit-second bound
// prices a submission by circuit width × shots and rejects demand that
// does not fit.
func TestTenantQuotaActiveAndQubitSeconds(t *testing.T) {
	cfg := core.Config{
		Concurrency: 4,
		TenantQuotas: api.TenantQuotaPolicy{
			Tenants: map[string]api.TenantQuota{
				"alice": {MaxActive: 1},
				"carol": {MaxQubitSeconds: 0.01},
			},
		},
	}
	c, _ := deployCfg(t, cfg, true, func(q *core.QRIO) {
		for _, k := range q.Kubelets {
			k.Runtime = func(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error) {
				<-ctx.Done() // containers run until cancelled
				return nil, nil, ctx.Err()
			}
		}
	})
	ctx := context.Background()

	if _, err := c.Submit(ctx, tenantReq("alice-run", "alice")); err != nil {
		t.Fatal(err)
	}
	// Wait until the job occupies a node (Scheduled or Running).
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := c.Get(ctx, "alice-run")
		if err != nil {
			t.Fatal(err)
		}
		if j.Status.Phase == api.JobScheduled || j.Status.Phase == api.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alice-run never reached a node: %+v", j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err := c.Submit(ctx, tenantReq("alice-blocked", "alice"))
	if !client.IsQuotaExceeded(err) {
		t.Fatalf("active quota: want quota_exceeded, got %v", err)
	}
	// Finishing (cancelling) the active job re-admits.
	if _, err := c.Cancel(ctx, "alice-run"); err != nil {
		t.Fatal(err)
	}
	if j, err := c.Wait(ctx, "alice-run"); err != nil || j.Status.Phase != api.JobCancelled {
		t.Fatalf("cancel active: %+v, %v", j.Status, err)
	}
	if _, err := c.Submit(ctx, tenantReq("alice-after", "alice")); err != nil {
		t.Fatalf("submit after active drained: %v", err)
	}
	if _, err := c.Cancel(ctx, "alice-after"); err != nil {
		t.Fatal(err)
	}

	// carol's quota admits 0.01 qubit-seconds; a 5-qubit, 128-shot GHZ
	// prices at 5×128×1e-3 = 0.64 and is rejected outright.
	_, err = c.Submit(ctx, tenantReq("carol-big", "carol"))
	if !client.IsQuotaExceeded(err) {
		t.Fatalf("qubit-second quota: want quota_exceeded, got %v", err)
	}
}

// TestTenantsEndpointAndListFilter covers GET /v1/tenants (usage, weight,
// quota — including configured-but-idle tenants) and the tenant filter on
// GET /v1/jobs.
func TestTenantsEndpointAndListFilter(t *testing.T) {
	cfg := core.Config{
		TenantWeights: map[string]int{"alice": 3},
		TenantQuotas: api.TenantQuotaPolicy{
			Default: api.TenantQuota{MaxPending: 100},
			Tenants: map[string]api.TenantQuota{"idle": {MaxPending: 7}},
		},
	}
	c, _ := deployCfg(t, cfg, false, nil)
	ctx := context.Background()

	for _, sub := range []struct{ name, tenant string }{
		{"a-1", "alice"}, {"a-2", "alice"}, {"b-1", "bob"},
	} {
		if _, err := c.Submit(ctx, tenantReq(sub.name, sub.tenant)); err != nil {
			t.Fatal(err)
		}
	}
	tenants, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]client.TenantStatus)
	for _, ts := range tenants {
		byName[ts.Tenant] = ts
	}
	alice, ok := byName["alice"]
	if !ok || alice.Pending != 2 || alice.Weight != 3 || alice.Quota.MaxPending != 100 {
		t.Fatalf("alice status: %+v (ok=%v)", alice, ok)
	}
	if bob := byName["bob"]; bob.Pending != 1 || bob.Weight != 1 {
		t.Fatalf("bob status: %+v", bob)
	}
	// Configured-but-idle tenants appear with zero usage and their quota.
	if idle, ok := byName["idle"]; !ok || idle.Pending != 0 || idle.Quota.MaxPending != 7 {
		t.Fatalf("idle tenant status: %+v (ok=%v)", idle, ok)
	}

	page, err := c.List(ctx, client.ListOptions{Tenant: "alice"})
	if err != nil || len(page.Items) != 2 {
		t.Fatalf("tenant filter: %d items, %v", len(page.Items), err)
	}
	for _, j := range page.Items {
		if j.Spec.Tenant != "alice" {
			t.Fatalf("tenant filter leaked %s (tenant %s)", j.Name, j.Spec.Tenant)
		}
	}
	if _, err := c.List(ctx, client.ListOptions{Tenant: "Not/Valid"}); !client.IsInvalid(err) {
		t.Fatalf("invalid tenant filter: want invalid, got %v", err)
	}
}

// TestQuotaAdmissionConcurrentSubmits: N parallel submissions racing for
// a MaxPending=K quota admit exactly K — state.SubmitJob's per-tenant gate
// closes the window between the intake's ungated pre-check and the store.
func TestQuotaAdmissionConcurrentSubmits(t *testing.T) {
	cfg := core.Config{
		TenantQuotas: api.TenantQuotaPolicy{Default: api.TenantQuota{MaxPending: 3}},
	}
	c, _ := deployCfg(t, cfg, false, nil)
	ctx := context.Background()

	const attempts = 12
	results := make(chan error, attempts)
	for i := 0; i < attempts; i++ {
		go func(i int) {
			_, err := c.Submit(ctx, tenantReq("race-"+string(rune('a'+i)), "racer"))
			results <- err
		}(i)
	}
	admitted, rejected := 0, 0
	for i := 0; i < attempts; i++ {
		err := <-results
		switch {
		case err == nil:
			admitted++
		case client.IsQuotaExceeded(err):
			rejected++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if admitted != 3 || rejected != attempts-3 {
		t.Fatalf("admitted %d, rejected %d; want exactly 3 admitted", admitted, rejected)
	}
}
