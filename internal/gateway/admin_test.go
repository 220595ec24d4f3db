// End-to-end tests of the /v1/admin ops surface and tenant hot-reload,
// driven through the public Go client like every other gateway test.
package gateway_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/cluster/durability"
	"qrio/internal/core"
)

// TestAdminDurabilityDisabled: an in-memory deployment reports
// enabled=false and refuses manual snapshots with the typed 422 envelope.
func TestAdminDurabilityDisabled(t *testing.T) {
	c, _ := deployCfg(t, core.Config{}, false, nil)
	ctx := context.Background()
	st, err := c.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatalf("in-memory deployment reports durability: %+v", st)
	}
	if _, err := c.Snapshot(ctx); !client.IsInvalid(err) {
		t.Fatalf("snapshot without durability: err=%v, want invalid envelope", err)
	}
}

// TestAdminDurabilityEnabled exercises the ops loop an operator runs: read
// the WAL lag, trigger a snapshot, watch the generation advance and the
// lag reset, and see the same summary in /v1/health.
func TestAdminDurabilityEnabled(t *testing.T) {
	cfg := core.Config{Durability: durability.Options{Dir: t.TempDir(), SnapshotInterval: -1}}
	c, q := deployCfg(t, cfg, false, nil)
	t.Cleanup(func() { q.Durability.Close() })
	ctx := context.Background()

	if _, err := c.Submit(ctx, ghzReq("adm-1")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Generation != 0 {
		t.Fatalf("pre-snapshot stats: %+v", st)
	}
	if st.WALRecords == 0 {
		t.Fatal("submission produced no WAL records")
	}
	lag := st.WALRecords

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 1 {
		t.Fatalf("generation = %d, want 1", snap.Generation)
	}
	st, err = c.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 1 || st.Snapshots != 1 {
		t.Fatalf("post-snapshot stats: %+v", st)
	}
	if st.WALRecords >= lag {
		t.Fatalf("WAL lag did not reset: %d -> %d", lag, st.WALRecords)
	}
	if st.LastSnapshotAt.IsZero() || st.LastSnapshotAge == "" {
		t.Fatalf("snapshot time not reported: %+v", st)
	}

	// /v1/health carries the operator summary of the same facts.
	resp, err := http.Get(c.BaseURL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Durability struct {
			Enabled    bool  `json:"enabled"`
			OK         bool  `json:"ok"`
			Generation int64 `json:"generation"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Durability.Enabled || !health.Durability.OK || health.Durability.Generation != 1 {
		t.Fatalf("health durability = %+v", health.Durability)
	}
}

// TestSetTenantHotReload: PUT /v1/tenants/{name} changes weight and quota
// atomically, the change shows in GET /v1/tenants immediately, and the
// intake enforces the new quota on the very next submission.
func TestSetTenantHotReload(t *testing.T) {
	c, _ := deployCfg(t, core.Config{}, false, nil) // loops stopped: jobs stay Pending
	ctx := context.Background()

	cfg, err := c.SetTenant(ctx, "alice", client.SetTenantRequest{
		Weight: 3,
		Quota:  client.TenantQuota{MaxPending: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "alice" || cfg.Weight != 3 || cfg.Quota.MaxPending != 1 {
		t.Fatalf("returned config: %+v", cfg)
	}

	// The override is visible in the usage listing even with no jobs yet.
	tenants, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, u := range tenants {
		if u.Tenant == "alice" {
			found = true
			if u.Weight != 3 || u.Quota.MaxPending != 1 {
				t.Fatalf("listing shows stale override: %+v", u)
			}
		}
	}
	if !found {
		t.Fatalf("override tenant missing from listing: %+v", tenants)
	}

	// Admission enforces the live quota...
	req := ghzReq("hot-1")
	req.Tenant = "alice"
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	req2 := ghzReq("hot-2")
	req2.Tenant = "alice"
	if _, err := c.Submit(ctx, req2); !client.IsQuotaExceeded(err) {
		t.Fatalf("over-quota submit: err=%v, want quota_exceeded", err)
	}
	// ...and a live raise unblocks the tenant with no restart.
	if _, err := c.SetTenant(ctx, "alice", client.SetTenantRequest{
		Weight: 3,
		Quota:  client.TenantQuota{MaxPending: 10},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Submit(ctx, req2); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("submit after quota raise still failing: %v", err)
		}
	}
}

// TestSetTenantInvalid pins the 422 invalid envelope for rejected
// configurations, end to end through the client's error helpers.
func TestSetTenantInvalid(t *testing.T) {
	c, _ := deployCfg(t, core.Config{}, false, nil)
	ctx := context.Background()
	cases := []struct {
		name string
		req  client.SetTenantRequest
	}{
		{"bad tenant name!", client.SetTenantRequest{Weight: 1}},
		{"ok", client.SetTenantRequest{Weight: -2}},
		{"ok", client.SetTenantRequest{Weight: 2_000_000}},
		{"ok", client.SetTenantRequest{Quota: client.TenantQuota{MaxPending: -1}}},
		{"ok", client.SetTenantRequest{Quota: client.TenantQuota{MaxQubitSeconds: -1}}},
	}
	for i, tc := range cases {
		if _, err := c.SetTenant(ctx, tc.name, tc.req); !client.IsInvalid(err) {
			t.Fatalf("case %d (%s): err=%v, want invalid envelope", i, tc.name, err)
		}
	}
	if tenants, _ := c.Tenants(ctx); len(tenants) != 0 {
		t.Fatalf("rejected configs persisted: %+v", tenants)
	}
}
