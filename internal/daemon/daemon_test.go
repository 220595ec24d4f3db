// Tests of the composed daemon mux — the qrio binary's whole HTTP surface —
// driven the way users reach it: the Go client over /v1 and a browser's
// form posts against the dashboard.
package daemon_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/daemon"
	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

// serve stands up a two-device deployment (12 qubits each, one clean, one
// noisy) behind daemon.Handler.
func serve(t *testing.T, cfg core.Config, start bool) (*core.QRIO, *httptest.Server, *client.Client) {
	t.Helper()
	for _, dev := range []struct {
		name string
		e2   float64
	}{{"good", 0.03}, {"bad", 0.5}} {
		b, err := device.UniformBackend(dev.name, graph.Ring(12), dev.e2, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, b)
	}
	q, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		q.Start()
		t.Cleanup(q.Stop)
	}
	srv := httptest.NewServer(daemon.Handler(q))
	t.Cleanup(srv.Close)
	return q, srv, client.New(srv.URL)
}

func ghz(t *testing.T, name string, qubits int) client.SubmitRequest {
	t.Helper()
	src, err := qasm.Dump(workload.GHZ(qubits))
	if err != nil {
		t.Fatal(err)
	}
	return client.SubmitRequest{
		JobName: name, QASM: src, Shots: 128,
		Strategy: api.StrategyFidelity, TargetFidelity: 1.0,
	}
}

// postForm submits the dashboard's three-step form and returns the page
// the browser ends up on (redirects followed).
func postForm(t *testing.T, srv *httptest.Server, req client.SubmitRequest) string {
	t.Helper()
	resp, err := srv.Client().PostForm(srv.URL+"/submit", url.Values{
		"jobName":  {req.JobName},
		"qasm":     {req.QASM},
		"shots":    {"128"},
		"strategy": {"fidelity"},
		"fidelity": {"1.0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestFullDaemonFlowOverHTTP drives the complete user journey through the one
// API: list nodes, submit, wait, read logs and events, compare scores —
// and the dashboard on the same mux sees the same cluster.
func TestFullDaemonFlowOverHTTP(t *testing.T) {
	_, srv, c := serve(t, core.Config{}, true)
	ctx := t.Context()

	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("health under the daemon mux: %v", err)
	}
	nodes, err := c.Nodes(ctx)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("nodes = %v, %v", nodes, err)
	}
	job, err := c.Submit(ctx, ghz(t, "wire-ghz", 5))
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Phase != api.JobPending {
		t.Fatalf("submitted phase = %s", job.Status.Phase)
	}
	done, err := c.Wait(ctx, "wire-ghz")
	if err != nil {
		t.Fatal(err)
	}
	if done.Status.Phase != api.JobSucceeded || done.Status.Node != "good" {
		t.Fatalf("finished %s on %q (%s), want Succeeded on the clean device",
			done.Status.Phase, done.Status.Node, done.Status.Message)
	}
	res, err := c.Logs(ctx, "wire-ghz")
	if err != nil || res.Fidelity <= 0 || len(res.LogLines) == 0 {
		t.Fatalf("logs incomplete: %+v, %v", res, err)
	}
	events, err := c.Events(ctx, "wire-ghz")
	if err != nil || len(events) == 0 {
		t.Fatalf("events = %v, %v", events, err)
	}
	good, err := c.Score(ctx, "wire-ghz", "good")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := c.Score(ctx, "wire-ghz", "bad")
	if err != nil {
		t.Fatal(err)
	}
	if good >= bad {
		t.Fatalf("scoring inverted: good %v vs bad %v", good, bad)
	}
	page, err := c.List(ctx, client.ListOptions{Phase: api.JobSucceeded})
	if err != nil || len(page.Items) != 1 {
		t.Fatalf("list: %d items, %v", len(page.Items), err)
	}

	resp, err := srv.Client().Get(srv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "good") {
		t.Fatalf("dashboard not serving under the daemon mux (%v)", err)
	}
}

// refusal extracts the envelope code a /v1 call was refused with.
func refusal(err error) string {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Code
	}
	return fmt.Sprint(err)
}

// TestClosedGatesStoreNothing: once a gate is shut — the daemon draining,
// or the tenant's token bucket spent — no write the mux serves gets a job
// into the store, the dashboard's form included.
func TestClosedGatesStoreNothing(t *testing.T) {
	for _, gate := range []struct {
		code string // the envelope code every /v1 write is refused with
		page string // what the dashboard's error line says
		cfg  core.Config
		shut func(t *testing.T, q *core.QRIO, c *client.Client)
	}{
		{
			code: "draining", page: "draining",
			shut: func(_ *testing.T, q *core.QRIO, _ *client.Client) { q.BeginDrain() },
		},
		{
			code: "rate_limited", page: "rate limit",
			cfg: core.Config{TenantRateLimits: api.TenantRateLimitPolicy{
				// One token, refilled far slower than the test runs.
				Default: api.TenantRateLimit{SubmitPerSecond: 1e-6, Burst: 1},
			}},
			shut: func(t *testing.T, _ *core.QRIO, c *client.Client) {
				if _, err := c.Submit(t.Context(), ghz(t, "spends-the-token", 3)); err != nil {
					t.Fatal(err)
				}
			},
		},
	} {
		t.Run(gate.code, func(t *testing.T) {
			q, srv, c := serve(t, gate.cfg, false)
			gate.shut(t, q, c)
			stored := q.State.Jobs.Len()

			for _, write := range []struct {
				route, want string
				do          func() (answer string)
			}{
				{"POST /v1/jobs", gate.code, func() string {
					_, err := c.Submit(t.Context(), ghz(t, "single", 3))
					return refusal(err)
				}},
				{"POST /v1/jobs/batch", gate.code + "|" + gate.code, func() string {
					items, err := c.SubmitBatch(t.Context(),
						[]client.SubmitRequest{ghz(t, "batch-a", 3), ghz(t, "batch-b", 3)})
					if err != nil || len(items) != 2 || items[0].Error == nil || items[1].Error == nil {
						return fmt.Sprintf("items %+v, err %v", items, err)
					}
					return items[0].Error.Code + "|" + items[1].Error.Code
				}},
				{"dashboard POST /submit", gate.page, func() string {
					return postForm(t, srv, ghz(t, "form", 3))
				}},
			} {
				if got := write.do(); !strings.Contains(got, write.want) {
					t.Errorf("%s answered %q, want the %s refusal", write.route, got, gate.code)
				}
				if n := q.State.Jobs.Len(); n != stored {
					t.Errorf("%s stored a job through a shut gate (%d -> %d)", write.route, stored, n)
				}
			}
		})
	}
}

// TestDashboardSubmitIsAdmissionChecked: a form submission no device can
// ever satisfy (13 qubits on a 12-qubit fleet) is refused with the
// gateway's unschedulable error instead of parking in the queue forever.
func TestDashboardSubmitIsAdmissionChecked(t *testing.T) {
	q, srv, _ := serve(t, core.Config{}, false)
	body := postForm(t, srv, ghz(t, "too-wide", 13))
	if !strings.Contains(body, "unschedulable") {
		t.Errorf("dashboard did not render the unschedulable error:\n%s", body)
	}
	if n := q.State.Jobs.Len(); n != 0 {
		t.Errorf("unschedulable form submission stored %d job(s)", n)
	}
	// The same form with a circuit that fits is accepted.
	if body := postForm(t, srv, ghz(t, "fits", 12)); strings.Contains(body, `class="err"`) {
		t.Errorf("schedulable form submission refused:\n%s", body)
	}
	if _, _, err := q.State.Jobs.Get("fits"); err != nil {
		t.Error(err)
	}
}

// TestOnlyTwoMounts: the component REST prefixes and the /v1/healthz alias
// are gone — there is no way in beside /v1 and the dashboard, and the
// profiler is not on this mux.
func TestOnlyTwoMounts(t *testing.T) {
	_, srv, _ := serve(t, core.Config{}, false)
	for _, tc := range []struct{ method, path string }{
		{"GET", "/apiserver/api/v1/nodes"},
		{"POST", "/apiserver/api/v1/nodes"},
		{"GET", "/apiserver/healthz"},
		{"POST", "/master/v1/submit"},
		{"GET", "/master/v1/jobs/x/logs"},
		{"GET", "/meta/v1/backends"},
		{"POST", "/meta/v1/jobs/x/meta"},
		{"GET", "/meta/v1/score/batch?job=x"},
		{"GET", "/v1/healthz"},
		{"GET", "/debug/pprof/"},
		{"GET", "/debug/pprof/goroutine"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestDebugHandlerServesProfiles: the profiler's own mux answers its index
// and a named profile.
func TestDebugHandlerServesProfiles(t *testing.T) {
	srv := httptest.NewServer(daemon.DebugHandler())
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
			t.Errorf("GET %s = %d: %.80q", path, resp.StatusCode, body)
		}
	}
}
