// End-to-end tests of POST /v1/bind — the out-of-process scheduler's
// binding verb — driven through the public Go client like a real replica.
package gateway_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/core"
	"qrio/internal/gateway"
)

// deployNoSched stands up an orchestrator whose in-process scheduling
// loop is off — the topology a gateway node has when out-of-process
// replicas own binding.
func deployNoSched(t *testing.T) (*client.Client, *core.QRIO) {
	t.Helper()
	q, err := core.New(core.Config{
		Backends:         twoNodeFleet(t),
		DisableScheduler: true,
		NodeConcurrency:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	t.Cleanup(q.Stop)
	srv := httptest.NewServer(gateway.New(q).Handler())
	t.Cleanup(srv.Close)
	return client.New(srv.URL), q
}

// watchVersion reads the watch stream until it yields the named job's
// latest version (SYNC or live event) — exactly how a replica observes
// the version it binds at.
func watchVersion(t *testing.T, c *client.Client, name string) int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	events, err := c.Watch(ctx, client.WatchOptions{Kind: "job", Name: name})
	if err != nil {
		t.Fatal(err)
	}
	for ev := range events {
		if ev.Job != nil && ev.Job.Name == name {
			if ev.Version <= 0 {
				t.Fatalf("watch event for %s carries version %d, want > 0 (type %s)",
					name, ev.Version, ev.Type)
			}
			return ev.Version
		}
	}
	t.Fatalf("watch ended without an event for %s", name)
	return 0
}

func TestBindThroughGateway(t *testing.T) {
	c, _ := deployNoSched(t)
	ctx := context.Background()

	if _, err := c.Submit(ctx, ghzReq("bind-me")); err != nil {
		t.Fatal(err)
	}
	// The SYNC snapshot must carry the job's resource version — the
	// observation the version-conditional bind commits against.
	v := watchVersion(t, c, "bind-me")

	job, err := c.Bind(ctx, "bind-me", "good", 0.9, v)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Node != "good" {
		t.Fatalf("bound node = %q", job.Status.Node)
	}
	// With no in-process scheduler, the remote bind is what drives the
	// lifecycle: the kubelet picks the job up and runs it to completion.
	final, err := c.Wait(ctx, "bind-me")
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != "Succeeded" {
		t.Fatalf("final phase = %s (%s)", final.Status.Phase, final.Status.Message)
	}

	// A replica still holding the pre-bind version loses with 409: the
	// typed conflict a replica treats as "someone else won, move on".
	if _, err := c.Bind(ctx, "bind-me", "bad", 0.1, v); !client.IsConflict(err) {
		t.Fatalf("stale bind: want conflict, got %v", err)
	}
}

func TestBindValidation(t *testing.T) {
	c, _ := deployNoSched(t)
	ctx := context.Background()

	if _, err := c.Bind(ctx, "", "good", 0, 0); !client.IsInvalid(err) {
		t.Fatalf("bind without job: want invalid, got %v", err)
	}
	if _, err := c.Bind(ctx, "ghost", "", 0, 0); !client.IsInvalid(err) {
		t.Fatalf("bind without node: want invalid, got %v", err)
	}
	if _, err := c.Bind(ctx, "ghost", "good", 0, -1); !client.IsInvalid(err) {
		t.Fatalf("negative version: want invalid, got %v", err)
	}
	if _, err := c.Bind(ctx, "ghost", "good", 0, 0); !client.IsNotFound(err) {
		t.Fatalf("bind unknown job: want not_found, got %v", err)
	}

	// A node that cannot take the job is 409 under its own code — the job
	// is still pending, which "conflict" would deny.
	if _, err := c.Submit(ctx, ghzReq("doomed")); err != nil {
		t.Fatal(err)
	}
	v := watchVersion(t, c, "doomed")
	_, err := c.Bind(ctx, "doomed", "no-such-node", 0.5, v)
	var apiErr *client.APIError
	if !client.IsNodeUnavailable(err) || client.IsConflict(err) || !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("bind to a missing node: want 409 node_unavailable, got %v", err)
	}

	// A cancelled job's version moved: binding at the stale observation is
	// a conflict, never a resurrection.
	if _, err := c.Cancel(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind(ctx, "doomed", "good", 0.5, v); !client.IsConflict(err) {
		t.Fatalf("bind after cancel: want conflict, got %v", err)
	}
	got, err := c.Get(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if got.Status.Phase != "Cancelled" {
		t.Fatalf("cancelled job resurrected to %s", got.Status.Phase)
	}
}
