package visualizer

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/httpx"
)

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>QRIO — {{.Title}}</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:70em}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:4px 8px;text-align:left}
.phase-Succeeded{color:green}.phase-Failed{color:red}.phase-Pending{color:#996600}
nav a{margin-right:1em}pre{background:#f4f4f4;padding:1em;overflow-x:auto}
fieldset{margin-bottom:1em}.err{color:red;font-weight:bold}
</style></head><body>
<nav><a href="/">Home</a><a href="/submit">Submit Job</a><a href="/cluster">Cluster</a>
<a href="/jobs">Jobs</a><a href="/vendor">Vendor</a></nav>
<h1>{{.Title}}</h1>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
{{.Body}}
</body></html>`))

type page struct {
	Title string
	Error string
	Body  template.HTML
}

func (s *Server) render(w http.ResponseWriter, p page) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Handler returns the dashboard routes, held behind the durable log like
// every /v1 response (gateway.Server.Barrier).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleHome)
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobDetail)
	mux.HandleFunc("/vendor", s.handleVendor)
	return s.Gateway.Barrier(mux)
}

// handleHome is the Fig. 3 front page: choose a circuit or view the cluster.
func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.render(w, page{Title: "Quantum Resource Infrastructure Orchestrator", Body: template.HTML(`
<p>Welcome to QRIO. Schedule a quantum job or inspect the cluster.</p>
<ul>
<li><a href="/submit">Choose a circuit and submit a job</a></li>
<li><a href="/cluster">View the current cluster</a></li>
</ul>`)})
}

// handleSubmit renders and processes the three-step form (Fig. 4).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.render(w, page{Title: "Submit a Quantum Job", Body: submitForm})
		return
	}
	if err := r.ParseForm(); err != nil {
		s.render(w, page{Title: "Submit a Quantum Job", Error: err.Error(), Body: submitForm})
		return
	}
	f := parseForm(r)
	req, err := f.buildRequest()
	if err == nil {
		_, err = s.Gateway.Submit(req)
	}
	if err != nil {
		s.render(w, page{Title: "Submit a Quantum Job", Error: err.Error(), Body: submitForm})
		return
	}
	http.Redirect(w, r, "/jobs/"+req.JobName, http.StatusSeeOther)
}

func parseForm(r *http.Request) formInput {
	i := func(k string) int {
		v, _ := strconv.Atoi(r.FormValue(k))
		return v
	}
	i64 := func(k string) int64 {
		v, _ := strconv.ParseInt(r.FormValue(k), 10, 64)
		return v
	}
	fl := func(k string) float64 {
		v, _ := strconv.ParseFloat(r.FormValue(k), 64)
		return v
	}
	return formInput{
		JobName:        strings.TrimSpace(r.FormValue("jobName")),
		ImageName:      strings.TrimSpace(r.FormValue("imageName")),
		QASM:           r.FormValue("qasm"),
		Shots:          i("shots"),
		NumQubits:      i("numQubits"),
		CPUMillis:      i64("cpuMillis"),
		MemoryMB:       i64("memoryMB"),
		MaxAvg2QError:  fl("maxGateErr"),
		MaxReadoutErr:  fl("maxReadout"),
		MinT1us:        fl("minT1"),
		MinT2us:        fl("minT2"),
		Strategy:       r.FormValue("strategy"),
		TargetFidelity: fl("fidelity"),
		TopologyKind:   r.FormValue("topoKind"),
		TopologyName:   r.FormValue("topoName"),
		TopologyQubits: i("topoQubits"),
		TopologyEdges:  r.FormValue("topoEdges"),
	}
}

const submitForm = template.HTML(`
<form method="POST" action="/submit">
<fieldset><legend>Step 1 — Job details</legend>
Job name <input name="jobName" required>
Docker image <input name="imageName" placeholder="qrio/myjob:latest">
Shots <input name="shots" type="number" value="1024"><br><br>
Qubits <input name="numQubits" type="number" value="0">
CPU (millicores) <input name="cpuMillis" type="number" value="0">
Memory (MB) <input name="memoryMB" type="number" value="0"><br><br>
Circuit (OpenQASM 2.0)<br><textarea name="qasm" rows="12" cols="80" required></textarea>
</fieldset>
<fieldset><legend>Step 2 — Requested device characteristics (optional)</legend>
Max avg 2-qubit gate error <input name="maxGateErr" placeholder="0.2">
Max readout error <input name="maxReadout"><br><br>
Min T1 (µs) <input name="minT1"> Min T2 (µs) <input name="minT2">
</fieldset>
<fieldset><legend>Step 3 — Device selection strategy</legend>
<label><input type="radio" name="strategy" value="fidelity" checked> Fidelity requirement</label>
Target fidelity (0-1] <input name="fidelity" value="1.0"><br><br>
<label><input type="radio" name="strategy" value="topology"> Topology requirement</label>
<select name="topoKind"><option value="default">default topology</option>
<option value="custom">draw my own (edge list)</option></select>
<select name="topoName"><option>line</option><option>ring</option><option>grid</option>
<option>heavy-square</option><option>full</option><option>star</option><option>tree</option></select>
Topology qubits <input name="topoQubits" type="number" value="4"><br>
Custom edges (e.g. 0-1, 1-2, 2-3) <input name="topoEdges" size="40">
</fieldset>
<button type="submit">Schedule job</button>
</form>`)

// handleCluster lists nodes with their §3.1 labels.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	nodes := s.Gateway.Core.State.Nodes.List()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	var b strings.Builder
	b.WriteString(`<table><tr><th>Node</th><th>Phase</th><th>Qubits</th>
<th>Avg 2q error</th><th>Avg readout</th><th>T1 (µs)</th><th>CPU</th><th>Memory</th><th>Running</th></tr>`)
	for _, n := range nodes {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%sm</td><td>%sMB</td><td>%s</td></tr>",
			template.HTMLEscapeString(n.Name), n.Status.Phase,
			n.Labels[api.LabelQubits], n.Labels[api.LabelAvg2QErr],
			n.Labels[api.LabelAvgReadout], n.Labels[api.LabelAvgT1us],
			n.Labels[api.LabelCPUMillis], n.Labels[api.LabelMemoryMB],
			template.HTMLEscapeString(strings.Join(n.Status.RunningJobs, ", ")))
	}
	b.WriteString("</table>")
	s.render(w, page{Title: fmt.Sprintf("Cluster — %d nodes", len(nodes)), Body: template.HTML(b.String())})
}

// handleJobs lists all jobs and their phases.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Gateway.Core.State.Jobs.List()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].CreatedAt.After(jobs[j].CreatedAt) })
	var b strings.Builder
	b.WriteString(`<table><tr><th>Job</th><th>Phase</th><th>Strategy</th><th>Node</th><th>Score</th></tr>`)
	for _, j := range jobs {
		fmt.Fprintf(&b, `<tr><td><a href="/jobs/%s">%s</a></td><td class="phase-%s">%s</td><td>%s</td><td>%s</td><td>%.4f</td></tr>`,
			template.HTMLEscapeString(j.Name), template.HTMLEscapeString(j.Name),
			j.Status.Phase, j.Status.Phase, j.Spec.Strategy,
			template.HTMLEscapeString(j.Status.Node), j.Status.Score)
	}
	b.WriteString("</table>")
	s.render(w, page{Title: fmt.Sprintf("Jobs — %d total", len(jobs)), Body: template.HTML(b.String())})
}

// handleJobDetail shows one job with its logs (Fig. 5) and events. A
// non-terminal job gets a Cancel button (POST /jobs/{name}/cancel, wired
// to the full-lifecycle cancellation path) and a live-update script that
// subscribes to the /v1 gateway's SSE watch stream and reloads the page
// when the job transitions — the visualizer consumes the same broadcast
// hub as qrioctl watch instead of asking users to refresh.
func (s *Server) handleJobDetail(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if name, ok := strings.CutSuffix(rest, "/cancel"); ok && name != "" && r.Method == http.MethodPost {
		if _, err := s.Gateway.Core.Cancel(name); err != nil {
			status, _ := httpx.StatusOf(err)
			if status == 0 {
				status = http.StatusUnprocessableEntity
			}
			http.Error(w, err.Error(), status)
			return
		}
		http.Redirect(w, r, "/jobs/"+name, http.StatusSeeOther)
		return
	}
	name := rest
	if name == "" || strings.Contains(name, "/") {
		http.NotFound(w, r)
		return
	}
	j, _, err := s.Gateway.Core.State.Jobs.Get(name)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<p>Phase: <b class=\"phase-%s\">%s</b>", j.Status.Phase, j.Status.Phase)
	if j.Status.Node != "" {
		fmt.Fprintf(&b, " &middot; scheduled on <b>%s</b> (score %.4f)",
			template.HTMLEscapeString(j.Status.Node), j.Status.Score)
	}
	b.WriteString("</p>")
	if !j.Status.Phase.Terminal() {
		fmt.Fprintf(&b, `<form method="POST" action="/jobs/%s/cancel">
<button type="submit">Cancel job</button></form>`, template.HTMLEscapeString(name))
		// Live updates via the /v1 gateway's SSE watch (served on the
		// same daemon mux); harmless when the gateway is not mounted.
		fmt.Fprintf(&b, `<script>
try {
  var es = new EventSource('/v1/watch?kind=job&name=%s');
  es.addEventListener('job', function (e) {
    var n = JSON.parse(e.data);
    if (n.type !== 'SYNC') { es.close(); location.reload(); }
  });
} catch (e) {}
</script>`, template.JSEscapeString(name))
	}
	if res, ok := s.Gateway.Core.State.ResultFor(name); ok {
		fmt.Fprintf(&b, "<h2>Logs</h2><pre>%s</pre>",
			template.HTMLEscapeString(strings.Join(res.LogLines, "\n")))
		fmt.Fprintf(&b, "<p>Measured fidelity: <b>%.4f</b> &middot; %d distinct outcomes &middot; %dms</p>",
			res.Fidelity, len(res.Counts), res.ElapsedMS)
	} else {
		b.WriteString("<p><i>Logs are available once the job has finished execution.</i></p>")
	}
	b.WriteString("<h2>Events</h2><ul>")
	for _, e := range s.Gateway.Core.State.EventsAbout(name) {
		fmt.Fprintf(&b, "<li><b>%s</b>: %s</li>",
			template.HTMLEscapeString(e.Reason), template.HTMLEscapeString(e.Message))
	}
	b.WriteString("</ul>")
	s.render(w, page{Title: "Job " + name, Body: template.HTML(b.String())})
}

// handleVendor is the minimal vendor dashboard (paper future-work item 1):
// paste a backend JSON to add a node; remove nodes by name.
func (s *Server) handleVendor(w http.ResponseWriter, r *http.Request) {
	const form = template.HTML(`
<h2>Add a device</h2>
<form method="POST" action="/vendor">
<input type="hidden" name="action" value="add">
Backend JSON<br><textarea name="backend" rows="10" cols="80"></textarea><br>
<button type="submit">Register node</button>
</form>
<h2>Remove a device</h2>
<form method="POST" action="/vendor">
<input type="hidden" name="action" value="delete">
Node name <input name="node">
<button type="submit">Remove node</button>
</form>`)
	if r.Method == http.MethodGet {
		s.render(w, page{Title: "Vendor Dashboard", Body: form})
		return
	}
	if err := r.ParseForm(); err != nil {
		s.render(w, page{Title: "Vendor Dashboard", Error: err.Error(), Body: form})
		return
	}
	var err error
	switch r.FormValue("action") {
	case "add":
		var b device.Backend
		if err = json.Unmarshal([]byte(r.FormValue("backend")), &b); err == nil {
			err = s.Gateway.Core.AddBackend(&b)
		}
	case "delete":
		err = s.Gateway.Core.State.Nodes.Delete(strings.TrimSpace(r.FormValue("node")))
	default:
		err = fmt.Errorf("visualizer: unknown vendor action")
	}
	if err != nil {
		s.render(w, page{Title: "Vendor Dashboard", Error: err.Error(), Body: form})
		return
	}
	http.Redirect(w, r, "/cluster", http.StatusSeeOther)
}
