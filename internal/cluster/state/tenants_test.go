package state

import (
	"errors"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/httpx"
)

func TestSetTenantConfigUpsert(t *testing.T) {
	c := New()
	created, err := c.SetTenantConfig(api.TenantConfig{
		ObjectMeta: api.ObjectMeta{Name: "alice"},
		Weight:     4,
		Quota:      api.TenantQuota{MaxPending: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.UID == "" {
		t.Fatal("created override has no UID")
	}
	if w, ok := c.TenantWeight("alice"); !ok || w != 4 {
		t.Fatalf("weight = %d %v", w, ok)
	}
	if q := c.QuotaFor("alice"); q.MaxPending != 10 {
		t.Fatalf("quota = %+v", q)
	}

	// Update path: same identity, new values, weight+quota atomic.
	updated, err := c.SetTenantConfig(api.TenantConfig{
		ObjectMeta: api.ObjectMeta{Name: "alice"},
		Weight:     9,
		Quota:      api.TenantQuota{MaxActive: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if updated.UID != created.UID {
		t.Fatalf("update re-minted identity: %s vs %s", updated.UID, created.UID)
	}
	if w, _ := c.TenantWeight("alice"); w != 9 {
		t.Fatalf("weight after update = %d", w)
	}
	if q := c.QuotaFor("alice"); q.MaxPending != 0 || q.MaxActive != 2 {
		t.Fatalf("quota not fully replaced: %+v", q)
	}
	if got := c.TenantConfigList(); len(got) != 1 {
		t.Fatalf("list = %d entries", len(got))
	}
}

func TestSetTenantConfigValidation(t *testing.T) {
	c := New()
	cases := []api.TenantConfig{
		{ObjectMeta: api.ObjectMeta{Name: "Bad Name!"}},
		{ObjectMeta: api.ObjectMeta{Name: "ok"}, Weight: -1},
		{ObjectMeta: api.ObjectMeta{Name: "ok"}, Weight: api.MaxTenantWeight + 1},
		{ObjectMeta: api.ObjectMeta{Name: "ok"}, Quota: api.TenantQuota{MaxPending: -1}},
		{ObjectMeta: api.ObjectMeta{Name: "ok"}, Quota: api.TenantQuota{MaxActive: -1}},
		{ObjectMeta: api.ObjectMeta{Name: "ok"}, Quota: api.TenantQuota{MaxQubitSeconds: -0.5}},
	}
	for i, cfg := range cases {
		_, err := c.SetTenantConfig(cfg)
		if err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
		var invalid *InvalidTenantConfigError
		if !errors.As(err, &invalid) {
			t.Fatalf("case %d: error %T is not InvalidTenantConfigError", i, err)
		}
		var sc httpx.StatusCoder
		if !errors.As(err, &sc) {
			t.Fatalf("case %d: no HTTPStatus", i)
		}
		if status, code := sc.HTTPStatus(); status != 422 || code != "invalid" {
			t.Fatalf("case %d: status %d/%s, want 422/invalid", i, status, code)
		}
	}
	if got := c.TenantConfigList(); len(got) != 0 {
		t.Fatalf("rejected configs persisted: %v", got)
	}
}

func TestQuotaResolutionOrder(t *testing.T) {
	c := New()
	c.Quotas = api.TenantQuotaPolicy{Default: api.TenantQuota{MaxPending: 5}}
	// No override: static policy applies (and "" maps to the default tenant).
	if q := c.QuotaFor("bob"); q.MaxPending != 5 {
		t.Fatalf("static quota = %+v", q)
	}
	if q := c.QuotaFor(""); q.MaxPending != 5 {
		t.Fatalf("default-tenant quota = %+v", q)
	}
	// Override wins, including an all-zero (= unlimited) override.
	if _, err := c.SetTenantConfig(api.TenantConfig{ObjectMeta: api.ObjectMeta{Name: "bob"}}); err != nil {
		t.Fatal(err)
	}
	if q := c.QuotaFor("bob"); !q.Unlimited() {
		t.Fatalf("override did not lift static quota: %+v", q)
	}
	// Weight 0 in an override means the default weight 1, reported as set.
	if w, ok := c.TenantWeight("bob"); !ok || w != 1 {
		t.Fatalf("zero-weight override = %d %v", w, ok)
	}
	if _, ok := c.TenantWeight("nobody"); ok {
		t.Fatal("weight reported for tenant with no override")
	}
}

func TestHasActiveQuotaOverride(t *testing.T) {
	c := New()
	if c.HasActiveQuotaOverride() {
		t.Fatal("fresh cluster reports an active bound")
	}
	if _, err := c.SetTenantConfig(api.TenantConfig{
		ObjectMeta: api.ObjectMeta{Name: "a"},
		Quota:      api.TenantQuota{MaxActive: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if !c.HasActiveQuotaOverride() {
		t.Fatal("MaxActive override not counted")
	}
	// Replacing the override with an unbounded one clears the count.
	if _, err := c.SetTenantConfig(api.TenantConfig{ObjectMeta: api.ObjectMeta{Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	if c.HasActiveQuotaOverride() {
		t.Fatal("cleared override still counted")
	}
}

// TestTenantQuotaHotReload: admission decisions must see override changes
// immediately — the quota gate consults QuotaFor, not the static policy.
func TestTenantQuotaHotReload(t *testing.T) {
	c := New()
	if _, err := c.SetTenantConfig(api.TenantConfig{
		ObjectMeta: api.ObjectMeta{Name: "tight"},
		Quota:      api.TenantQuota{MaxPending: 1},
	}); err != nil {
		t.Fatal(err)
	}
	j1 := fidelityJob("q1")
	j1.Spec.Tenant = "tight"
	if _, err := c.SubmitJob(j1); err != nil {
		t.Fatal(err)
	}
	j2 := fidelityJob("q2")
	j2.Spec.Tenant = "tight"
	if _, err := c.SubmitJob(j2); err == nil {
		t.Fatal("second pending job admitted past MaxPending=1")
	}
	// Raise the cap live; the queued submission now clears.
	if _, err := c.SetTenantConfig(api.TenantConfig{
		ObjectMeta: api.ObjectMeta{Name: "tight"},
		Quota:      api.TenantQuota{MaxPending: 5},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(j2); err != nil {
		t.Fatalf("submit after raise: %v", err)
	}
}
