// End-to-end tests of the /v1 gateway, driven exclusively through the
// public Go client — the path a remote cloud user takes.
package gateway_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/faults"
	"qrio/internal/fidelity"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

// deploy stands up an orchestrator plus its /v1 gateway over HTTP and
// returns the Go client. mutate (optional) runs before Start — tests use
// it to inject kubelet runtimes.
func deploy(t *testing.T, backends []*device.Backend, mutate func(*core.QRIO)) (*client.Client, *core.QRIO) {
	t.Helper()
	q, err := core.New(core.Config{Backends: backends, Concurrency: 4, NodeConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(q)
	}
	q.Start()
	t.Cleanup(q.Stop)
	srv := httptest.NewServer(gateway.New(q).Handler())
	t.Cleanup(srv.Close)
	return client.New(srv.URL), q
}

func twoNodeFleet(t *testing.T) []*device.Backend {
	t.Helper()
	var fleet []*device.Backend
	for _, cfg := range []struct {
		name string
		e2   float64
	}{{"good", 0.03}, {"bad", 0.5}} {
		b, err := device.UniformBackend(cfg.name, graph.Ring(12), cfg.e2, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	return fleet
}

func ghzReq(name string) client.SubmitRequest {
	src, _ := qasm.Dump(workload.GHZ(5))
	return client.SubmitRequest{
		JobName: name, QASM: src, Shots: 128,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}
}

// TestErrorModel pins the structured envelope: duplicate → 409 conflict,
// unknown → 404 not_found, malformed → 400 invalid, impossible
// requirements → 422 unschedulable — all machine-readable through the
// client's error helpers.
func TestErrorModel(t *testing.T) {
	c, q := deploy(t, twoNodeFleet(t), nil)
	ctx := context.Background()

	if _, err := c.Submit(ctx, ghzReq("dup")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(ctx, ghzReq("dup"))
	if !client.IsConflict(err) {
		t.Fatalf("duplicate submit: want conflict, got %v", err)
	}
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != 409 || apiErr.Code != "conflict" {
		t.Fatalf("duplicate submit envelope: %+v", apiErr)
	}

	_, err = c.Get(ctx, "ghost")
	if !client.IsNotFound(err) {
		t.Fatalf("unknown job: want not_found, got %v", err)
	}
	if asAPIError(err, &apiErr); apiErr.Status != 404 {
		t.Fatalf("unknown job status = %d", apiErr.Status)
	}
	if _, err = c.Node(ctx, "ghost-node"); !client.IsNotFound(err) {
		t.Fatalf("unknown node: want not_found, got %v", err)
	}
	if _, err = c.Logs(ctx, "ghost"); !client.IsNotFound(err) {
		t.Fatalf("unknown logs: want not_found, got %v", err)
	}
	if _, err = c.Cancel(ctx, "ghost"); !client.IsNotFound(err) {
		t.Fatalf("cancel unknown job: want not_found, got %v", err)
	}

	bad := ghzReq("malformed")
	bad.QASM = "this is not QASM"
	_, err = c.Submit(ctx, bad)
	if !client.IsInvalid(err) {
		t.Fatalf("malformed submit: want invalid, got %v", err)
	}
	if asAPIError(err, &apiErr); apiErr.Status != 400 {
		t.Fatalf("malformed submit status = %d", apiErr.Status)
	}
	missing := ghzReq("no-strategy")
	missing.Strategy = ""
	if _, err = c.Submit(ctx, missing); !client.IsInvalid(err) {
		t.Fatalf("missing strategy: want invalid, got %v", err)
	}

	impossible := ghzReq("impossible")
	impossible.Requirements.MinQubits = 4096
	_, err = c.Submit(ctx, impossible)
	if !client.IsUnschedulable(err) {
		t.Fatalf("impossible requirements: want unschedulable, got %v", err)
	}
	if asAPIError(err, &apiErr); apiErr.Status != 422 {
		t.Fatalf("unschedulable status = %d", apiErr.Status)
	}
	// The circuit's own width counts even without explicit requirements:
	// a 40-qubit circuit on a 12-qubit fleet is never schedulable.
	wideSrc, _ := qasm.Dump(workload.GHZ(40))
	wide := client.SubmitRequest{
		JobName: "too-wide", QASM: wideSrc,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}
	if _, err = c.Submit(ctx, wide); !client.IsUnschedulable(err) {
		t.Fatalf("over-wide circuit: want unschedulable, got %v", err)
	}

	// Cancel of a finished job is a conflict.
	if _, err = c.Wait(ctx, "dup"); err != nil {
		t.Fatal(err)
	}
	if _, err = c.Cancel(ctx, "dup"); !client.IsConflict(err) {
		t.Fatalf("cancel terminal job: want conflict, got %v", err)
	}

	// An empty fleet rejects nothing: jobs queue until vendors register.
	for _, n := range []string{"good", "bad"} {
		if err := q.State.Nodes.Delete(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err = c.Submit(ctx, impossible); err != nil {
		t.Fatalf("impossible requirements on an empty fleet: want queued, got %v", err)
	}
}

// TestRouteErrorEnvelopes pins, route by route, what the mux answers for
// requests the typed client never sends: unknown paths and wrong methods
// land on the catch-all envelope (the retired /v1/healthz alias and bind
// route among them), logs of a job that has not executed are a 404,
// score routes reject missing or unknown arguments, and the cluster-wide
// event list filters by subject.
func TestRouteErrorEnvelopes(t *testing.T) {
	c, _ := deployIdle(t, nil) // no control loops: "parked" stays Pending
	if _, err := c.Submit(context.Background(), ghzReq("parked")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		wantStatus   int
		wantCode     string // "" = the body is an event list, not an envelope
		wantEvents   bool
	}{
		{"GET", "/v1/nope", 404, "not_found", false},
		{"GET", "/v1/healthz", 404, "not_found", false},
		{"POST", "/v1/bind", 404, "not_found", false},
		{"GET", "/v1/jobs/", 404, "not_found", false},
		{"GET", "/v1/nodes/a/b", 404, "not_found", false},
		{"PATCH", "/v1/nodes", 404, "not_found", false},
		{"PUT", "/v1/jobs", 404, "not_found", false},
		{"GET", "/v1/jobs/parked/logs", 404, "not_found", false},
		{"GET", "/v1/score?job=parked", 400, "invalid", false},
		{"GET", "/v1/score?job=ghost&backend=good", 422, "invalid", false},
		{"GET", "/v1/score?job=parked&backend=ghost", 422, "invalid", false},
		{"GET", "/v1/score/batch", 400, "invalid", false},
		{"GET", "/v1/events", 200, "", true},
		{"GET", "/v1/events?about=parked", 200, "", true},
		{"GET", "/v1/events?about=ghost", 200, "", false},
	} {
		req, err := http.NewRequest(tc.method, c.BaseURL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error struct{ Code, Message string }
		}
		var events []api.Event
		if tc.wantCode != "" {
			err = json.NewDecoder(resp.Body).Decode(&body)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&events)
		}
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.wantStatus || body.Error.Code != tc.wantCode {
			t.Errorf("%s %s = %d %q (%v), want %d %q", tc.method, tc.path,
				resp.StatusCode, body.Error.Code, err, tc.wantStatus, tc.wantCode)
		}
		if tc.wantCode != "" && body.Error.Message == "" {
			t.Errorf("%s %s: envelope carries no message", tc.method, tc.path)
		}
		if (len(events) > 0) != tc.wantEvents {
			t.Errorf("%s %s returned %d events", tc.method, tc.path, len(events))
		}
	}
}

// TestScoreRoutesFireMetaScore: the score routes pass every backend they
// score through the meta.score fault point, as ranking does — armed on
// the deployment's registry, GET /v1/score answers an error envelope and
// /v1/score/batch fires once per backend and reports each one failed.
func TestScoreRoutesFireMetaScore(t *testing.T) {
	reg := faults.NewRegistry(1)
	q, err := core.New(core.Config{Backends: twoNodeFleet(t), Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gateway.New(q).Handler())
	t.Cleanup(srv.Close)
	if _, err := client.New(srv.URL).Submit(context.Background(), ghzReq("scored")); err != nil {
		t.Fatal(err)
	}
	get := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}
	var score map[string]float64
	if code := get("/v1/score?job=scored&backend=good", &score); code != http.StatusOK {
		t.Fatalf("disarmed GET /v1/score = %d", code)
	}

	reg.Enable(faults.PointMetaScore, faults.Spec{})
	var env struct {
		Error struct{ Code, Message string }
	}
	if code := get("/v1/score?job=scored&backend=good", &env); code == http.StatusOK ||
		!strings.Contains(env.Error.Message, faults.PointMetaScore) {
		t.Fatalf("armed GET /v1/score = %d %+v, want an envelope naming %s", code, env.Error, faults.PointMetaScore)
	}
	before := reg.Fired(faults.PointMetaScore)
	var batch []struct{ Backend, Error string }
	if code := get("/v1/score/batch?job=scored", &batch); code != http.StatusOK || len(batch) != 2 {
		t.Fatalf("armed GET /v1/score/batch = %d, %d results", code, len(batch))
	}
	for _, r := range batch {
		if !strings.Contains(r.Error, faults.PointMetaScore) {
			t.Errorf("armed batch scored %s: error %q", r.Backend, r.Error)
		}
	}
	if fired := reg.Fired(faults.PointMetaScore) - before; fired != 2 {
		t.Fatalf("one batch over 2 backends fired meta.score %d times, want 2", fired)
	}
}

func asAPIError(err error, target **client.APIError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*client.APIError)
	if ok {
		*target = e
	}
	return ok
}

// TestCancelRunningJobEndToEnd is the acceptance scenario: DELETE
// /v1/jobs/{name} against a *running* job aborts the container on the
// node, frees its slot, lands the terminal Cancelled phase — and the
// /v1/watch SSE stream delivers every transition without the client
// polling job state.
func TestCancelRunningJobEndToEnd(t *testing.T) {
	b, err := device.UniformBackend("solo", graph.Ring(12), 0.03, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	aborted := make(chan struct{})
	c, _ := deploy(t, []*device.Backend{b}, func(q *core.QRIO) {
		q.Kubelets[0].Runtime = func(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error) {
			if j.Name == "abort-me" {
				close(started)
				<-ctx.Done() // the container runs until aborted
				close(aborted)
				return nil, nil, ctx.Err()
			}
			<-ctx.Done() // later jobs also run until cancelled
			return nil, nil, ctx.Err()
		}
	})
	ctx := context.Background()

	// Watch the job over SSE before submitting: every observation below
	// comes off this stream, never from polling GETs.
	watchCtx, stopWatch := context.WithTimeout(ctx, 30*time.Second)
	defer stopWatch()
	events, err := c.Watch(watchCtx, client.WatchOptions{Kind: "job", Name: "abort-me"})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Submit(ctx, ghzReq("abort-me")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started running")
	}

	// Cancel the running job over the wire.
	j, err := c.Cancel(ctx, "abort-me")
	if err != nil {
		t.Fatal(err)
	}
	if j.Status.Phase != api.JobRunning || !j.Status.CancelRequested {
		t.Fatalf("cancel response: %+v", j.Status)
	}

	// The SSE stream must deliver the Running → Cancelled transition.
	var phases []api.JobPhase
	deadline := time.After(15 * time.Second)
observe:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("watch closed early; saw %v", phases)
			}
			if ev.Job == nil {
				continue
			}
			phases = append(phases, ev.Job.Status.Phase)
			if ev.Job.Status.Phase == api.JobCancelled {
				break observe
			}
			if ev.Job.Status.Phase.Terminal() {
				t.Fatalf("job reached %s, want Cancelled (saw %v)", ev.Job.Status.Phase, phases)
			}
		case <-deadline:
			t.Fatalf("Cancelled never delivered over SSE; saw %v", phases)
		}
	}
	sawRunning := false
	for _, p := range phases {
		if p == api.JobRunning {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Fatalf("watch missed the Running phase: %v", phases)
	}

	// The container really was aborted...
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("container context never cancelled")
	}
	// ...and the node slot frees.
	freeBy := time.Now().Add(5 * time.Second)
	for {
		n, err := c.Node(ctx, "solo")
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Status.RunningJobs) == 0 && n.Status.CPUMillisInUse == 0 {
			break
		}
		if time.Now().After(freeBy) {
			t.Fatalf("node slot never freed: %+v", n.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The freed slot must be usable: a follow-up job on the same node
	// completes (with the real runtime unavailable, use a new deployment?
	// no — the injected runtime blocks forever, so assert schedulability
	// via binding instead: submit and watch it reach Running).
	if _, err := c.Submit(ctx, ghzReq("after-cancel")); err != nil {
		t.Fatal(err)
	}
	reRunBy := time.Now().Add(10 * time.Second)
	for {
		j, err := c.Get(ctx, "after-cancel")
		if err != nil {
			t.Fatal(err)
		}
		if j.Status.Phase == api.JobRunning && j.Status.Node == "solo" {
			break
		}
		if time.Now().After(reRunBy) {
			t.Fatalf("freed slot never reused: %+v", j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Cancel the follow-up too so the blocking runtime releases before
	// orchestrator shutdown.
	if _, err := c.Cancel(ctx, "after-cancel"); err != nil {
		t.Fatal(err)
	}
	if j, err := c.Wait(ctx, "after-cancel"); err != nil || j.Status.Phase != api.JobCancelled {
		t.Fatalf("second cancel: %+v, %v", j.Status, err)
	}
}

// TestWatchDeliversLifecycleWithoutPolling submits a job and observes its
// entire lifecycle purely through the SSE stream, including the terminal
// transition — then cross-checks Wait (which rides the same stream).
func TestWatchDeliversLifecycleWithoutPolling(t *testing.T) {
	c, _ := deploy(t, twoNodeFleet(t), nil)
	ctx, stop := context.WithTimeout(context.Background(), 60*time.Second)
	defer stop()

	events, err := c.Watch(ctx, client.WatchOptions{Kind: "job", Name: "watched"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, ghzReq("watched")); err != nil {
		t.Fatal(err)
	}
	var phases []api.JobPhase
	for ev := range events {
		if ev.Job == nil {
			continue
		}
		phases = append(phases, ev.Job.Status.Phase)
		if ev.Job.Status.Phase.Terminal() {
			if ev.Job.Status.Phase != api.JobSucceeded {
				t.Fatalf("terminal phase %s (%s)", ev.Job.Status.Phase, ev.Job.Status.Message)
			}
			if ev.Job.Status.Node != "good" {
				t.Fatalf("scheduled on %s, want the clean device", ev.Job.Status.Node)
			}
			break
		}
	}
	if len(phases) < 2 {
		t.Fatalf("stream delivered too few transitions: %v", phases)
	}

	// Wait on the already-terminal job returns instantly from state.
	j, err := c.Wait(ctx, "watched")
	if err != nil || j.Status.Phase != api.JobSucceeded {
		t.Fatalf("Wait after terminal: %+v, %v", j.Status, err)
	}
	res, err := c.Logs(ctx, "watched")
	if err != nil || res.Fidelity <= 0 || len(res.LogLines) == 0 {
		t.Fatalf("logs through client incomplete: %+v, %v", res, err)
	}
	evs, err := c.Events(ctx, "watched")
	if err != nil || len(evs) == 0 {
		t.Fatalf("events through client: %v, %v", evs, err)
	}
}

// TestBatchSubmitListFilterPaginate covers the batch verb and List's
// field filters + pagination through the client.
func TestBatchSubmitListFilterPaginate(t *testing.T) {
	c, _ := deploy(t, twoNodeFleet(t), nil)
	ctx, stop := context.WithTimeout(context.Background(), 120*time.Second)
	defer stop()

	reqs := []client.SubmitRequest{
		ghzReq("batch-a"),
		ghzReq("batch-b"),
		{JobName: "batch-bad", QASM: "garbage", Strategy: api.StrategyFidelity, TargetFidelity: 1.0},
		ghzReq("batch-c"),
	}
	items, err := c.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("batch items = %d", len(items))
	}
	for i, it := range items {
		if it.Name != reqs[i].JobName {
			t.Fatalf("batch order broken: %s at %d", it.Name, i)
		}
	}
	if items[2].Error == nil || items[2].Error.Code != "invalid" {
		t.Fatalf("bad batch entry not rejected: %+v", items[2])
	}
	for _, i := range []int{0, 1, 3} {
		if items[i].Job == nil {
			t.Fatalf("batch entry %d rejected: %+v", i, items[i].Error)
		}
	}

	for _, name := range []string{"batch-a", "batch-b", "batch-c"} {
		if j, err := c.Wait(ctx, name); err != nil || j.Status.Phase != api.JobSucceeded {
			t.Fatalf("%s: %+v, %v", name, j.Status, err)
		}
	}

	// Phase filter.
	page, err := c.List(ctx, client.ListOptions{Phase: api.JobSucceeded})
	if err != nil || len(page.Items) != 3 {
		t.Fatalf("phase filter: %d items, %v", len(page.Items), err)
	}
	// Node filter: each page contains only that node's jobs, and the two
	// nodes partition the fleet's work.
	total := 0
	for _, node := range []string{"good", "bad"} {
		page, err = c.List(ctx, client.ListOptions{Node: node})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Items {
			if j.Status.Node != node {
				t.Fatalf("node filter %q returned %s on %s", node, j.Name, j.Status.Node)
			}
		}
		total += len(page.Items)
	}
	if total != 3 {
		t.Fatalf("node filters cover %d jobs, want 3", total)
	}
	// Strategy filter.
	page, err = c.List(ctx, client.ListOptions{Strategy: "fidelity"})
	if err != nil || len(page.Items) != 3 {
		t.Fatalf("strategy filter: %d items, %v", len(page.Items), err)
	}
	// Unknown phase is a structured 400.
	if _, err = c.List(ctx, client.ListOptions{Phase: "Sideways"}); !client.IsInvalid(err) {
		t.Fatalf("bad phase filter: %v", err)
	}

	// Pagination: limit 1 walks all three in name order.
	var walked []string
	opts := client.ListOptions{Limit: 1}
	for {
		page, err := c.List(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Items {
			walked = append(walked, j.Name)
		}
		if page.Continue == "" {
			break
		}
		opts.Continue = page.Continue
	}
	want := []string{"batch-a", "batch-b", "batch-c"}
	if strings.Join(walked, ",") != strings.Join(want, ",") {
		t.Fatalf("pagination walk = %v, want %v", walked, want)
	}
}

// TestGatewayNodesAndScores covers the node and score routes: register a
// backend through the client (it must reach the Meta Server and get a
// kubelet), score against it, delete it.
func TestGatewayNodesAndScores(t *testing.T) {
	c, q := deploy(t, twoNodeFleet(t), nil)
	ctx := context.Background()

	nodes, err := c.Nodes(ctx)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("nodes = %v, %v", nodes, err)
	}
	// Heartbeats never reach the stored node, yet both node routes answer
	// with the live one.
	beat := time.Now().Add(time.Hour).Truncate(time.Second)
	q.State.Heartbeat("good", beat)
	if stored, _, _ := q.State.Nodes.Get("good"); !stored.Status.LastHeartbeat.Before(beat) {
		t.Fatal("heartbeat was written to the stored node")
	}
	nodes, _ = c.Nodes(ctx)
	one, err := c.Node(ctx, "good")
	if err != nil || !one.Status.LastHeartbeat.Equal(beat) || !nodes[1].Status.LastHeartbeat.Equal(beat) {
		t.Fatalf("GET /v1/nodes lastHeartbeat = %v / %v (%v), want live %v",
			nodes[1].Status.LastHeartbeat, one.Status.LastHeartbeat, err, beat)
	}
	extra, err := device.UniformBackend("extra", graph.Ring(12), 0.04, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.RegisterNode(ctx, extra)
	if err != nil || n.Name != "extra" {
		t.Fatalf("register node = %+v, %v", n, err)
	}
	if len(q.Kubelets) != 3 {
		t.Fatalf("registered node got no kubelet: %d", len(q.Kubelets))
	}
	if n.Labels[api.LabelQubits] != "12" {
		t.Fatalf("registered node carries no calibration labels: %v", n.Labels)
	}
	if _, err := c.RegisterNode(ctx, extra); !client.IsConflict(err) {
		t.Fatalf("duplicate node registration: want conflict, got %v", err)
	}

	if _, err := c.Submit(ctx, ghzReq("scored")); err != nil {
		t.Fatal(err)
	}
	good, err := c.Score(ctx, "scored", "good")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := c.Score(ctx, "scored", "bad")
	if err != nil {
		t.Fatal(err)
	}
	if good >= bad {
		t.Fatalf("scoring inverted: good %v vs bad %v", good, bad)
	}
	batch, err := c.ScoreBatch(ctx, "scored", nil)
	if err != nil || len(batch) != 3 {
		t.Fatalf("score batch = %v, %v", batch, err)
	}

	if err := c.DeleteNode(ctx, "extra"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(ctx, "extra"); !client.IsNotFound(err) {
		t.Fatalf("deleted node still there: %v", err)
	}
	if err := c.DeleteNode(ctx, "extra"); !client.IsNotFound(err) {
		t.Fatalf("double delete: want not_found, got %v", err)
	}
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestScoreBatchScoresTheFleet: GET /v1/score/batch with no backend scores
// the nodes GET /v1/nodes lists, so a deleted node drops out of both.
func TestScoreBatchScoresTheFleet(t *testing.T) {
	c, _ := deploy(t, twoNodeFleet(t), nil)
	ctx := context.Background()
	if _, err := c.Submit(ctx, ghzReq("scored")); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteNode(ctx, "bad"); err != nil {
		t.Fatal(err)
	}
	nodes, err := c.Nodes(ctx)
	if err != nil || len(nodes) != 1 {
		t.Fatalf("nodes = %v, %v", nodes, err)
	}
	batch, err := c.ScoreBatch(ctx, "scored", nil)
	if err != nil || len(batch) != 1 || batch[0].Backend != "good" {
		t.Fatalf("score batch after deleting bad = %+v, %v; want good alone", batch, err)
	}
}
