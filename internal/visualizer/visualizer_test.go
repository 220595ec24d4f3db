package visualizer_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/quantum/qasm"
	"qrio/internal/visualizer"
	"qrio/internal/workload"
)

const ghzQASM = `OPENQASM 2.0;
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q -> c;
`

func newStack(t *testing.T) (*core.QRIO, *httptest.Server) {
	t.Helper()
	var fleet []*device.Backend
	for _, cfg := range []struct {
		name string
		g    *graph.Graph
		e2   float64
	}{
		{"clean", graph.Ring(10), 0.02},
		{"noisy", graph.Ring(10), 0.5},
	} {
		b, err := device.UniformBackend(cfg.name, cfg.g, cfg.e2, 0.005, 0.01, 500e3, 500e3)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	q, err := core.New(core.Config{Backends: fleet})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	t.Cleanup(q.Stop)
	srv := httptest.NewServer(visualizer.New(gateway.New(q)).Handler())
	t.Cleanup(srv.Close)
	return q, srv
}

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d:\n%s", path, resp.StatusCode, b.String())
	}
	return b.String()
}

func TestFrontPage(t *testing.T) {
	_, srv := newStack(t)
	body := get(t, srv, "/")
	for _, want := range []string{"Quantum Resource Infrastructure Orchestrator", "/submit", "/cluster"} {
		if !strings.Contains(body, want) {
			t.Errorf("front page missing %q", want)
		}
	}
}

func TestClusterView(t *testing.T) {
	_, srv := newStack(t)
	body := get(t, srv, "/cluster")
	for _, want := range []string{"clean", "noisy", "Ready", "Avg 2q error"} {
		if !strings.Contains(body, want) {
			t.Errorf("cluster view missing %q", want)
		}
	}
}

func TestSubmitFormRenders(t *testing.T) {
	_, srv := newStack(t)
	body := get(t, srv, "/submit")
	for _, want := range []string{"Step 1", "Step 2", "Step 3", "fidelity", "topology", "heavy-square"} {
		if !strings.Contains(body, want) {
			t.Errorf("submit form missing %q", want)
		}
	}
}

func TestSubmitFidelityJobThroughForm(t *testing.T) {
	q, srv := newStack(t)
	form := url.Values{
		"jobName":  {"web-ghz"},
		"qasm":     {ghzQASM},
		"shots":    {"128"},
		"strategy": {"fidelity"},
		"fidelity": {"1.0"},
	}
	resp, err := srv.Client().PostForm(srv.URL+"/submit", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Wait for the job to finish, then check the detail page.
	if _, err := q.WaitForJob("web-ghz", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	body := get(t, srv, "/jobs/web-ghz")
	for _, want := range []string{"Succeeded", "Logs", "estimated fidelity"} {
		if !strings.Contains(body, want) {
			t.Errorf("job page missing %q:\n%s", want, body)
		}
	}
	// The fidelity strategy must have avoided the noisy device.
	job, _, _ := q.State.Jobs.Get("web-ghz")
	if job.Status.Node != "clean" {
		t.Errorf("scheduled on %s, want clean", job.Status.Node)
	}
}

func TestSubmitCustomTopologyThroughForm(t *testing.T) {
	q, srv := newStack(t)
	src, err := qasm.Dump(workload.GHZ(4))
	if err != nil {
		t.Fatal(err)
	}
	form := url.Values{
		"jobName":    {"web-topo"},
		"qasm":       {src},
		"shots":      {"64"},
		"strategy":   {"topology"},
		"topoKind":   {"custom"},
		"topoQubits": {"4"},
		"topoEdges":  {"0-1, 1-2, 2-3, 3-0"}, // the react-flow canvas analogue
	}
	resp, err := srv.Client().PostForm(srv.URL+"/submit", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := q.WaitForJob("web-topo", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	job, _, _ := q.State.Jobs.Get("web-topo")
	if job.Status.Phase != api.JobSucceeded {
		t.Fatalf("job phase = %s (%s)", job.Status.Phase, job.Status.Message)
	}
}

func TestSubmitRejectsGarbage(t *testing.T) {
	_, srv := newStack(t)
	form := url.Values{
		"jobName":  {"bad"},
		"qasm":     {"not qasm"},
		"strategy": {"fidelity"},
		"fidelity": {"1.0"},
	}
	resp, err := srv.Client().PostForm(srv.URL+"/submit", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64<<10)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "err") {
		t.Error("error not surfaced to the user")
	}
}

func TestVendorAddAndRemove(t *testing.T) {
	q, srv := newStack(t)
	extra, err := device.UniformBackend("extra", graph.Line(6), 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(extra)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().PostForm(srv.URL+"/vendor", url.Values{
		"action":  {"add"},
		"backend": {string(raw)},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, _, err := q.State.Nodes.Get("extra"); err != nil {
		t.Fatal("vendor add did not register the node")
	}
	if _, err := q.Meta.Backend("extra"); err != nil {
		t.Fatal("vendor add did not reach the meta server")
	}
	resp, err = srv.Client().PostForm(srv.URL+"/vendor", url.Values{
		"action": {"delete"},
		"node":   {"extra"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, _, err := q.State.Nodes.Get("extra"); err == nil {
		t.Fatal("vendor delete did not remove the node")
	}
}

func TestParseEdgeList(t *testing.T) {
	g, err := visualizer.ParseEdgeList(4, "0-1, 1-2,2-3")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	for _, bad := range []string{"", "0-", "a-b", "0-9", "0-0"} {
		if _, err := visualizer.ParseEdgeList(4, bad); err == nil {
			t.Errorf("edge list %q accepted", bad)
		}
	}
}

func TestJobsListAndMissingJob(t *testing.T) {
	_, srv := newStack(t)
	body := get(t, srv, "/jobs")
	if !strings.Contains(body, "Jobs") {
		t.Error("jobs list broken")
	}
	resp, err := srv.Client().Get(srv.URL + "/jobs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job page = %d, want 404", resp.StatusCode)
	}
}
