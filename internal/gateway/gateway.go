// Package gateway is QRIO's client-facing API and its only HTTP intake:
// one versioned /v1 surface over the whole orchestrator — job, node, score
// and event routes with the shared httpx error envelope, DELETE
// /v1/jobs/{name} (full-lifecycle cancellation, including aborting a
// running container) and GET /v1/watch (server-sent events fanned out from
// the cluster's broadcast hub, so clients observe transitions without
// polling). The dashboard (internal/visualizer) is built over the same
// Server and submits through Submit, so a form post meets the gates a
// POST /v1/jobs meets.
//
//	GET    /v1/health               — typed per-component health (health.go)
//	GET    /v1/metrics              — Prometheus text exposition of the
//	                                  deployment registry (404 when the
//	                                  deployment has no registry)
//	POST   /v1/jobs                 — submit one job (SubmitRequest)
//	POST   /v1/jobs/batch           — submit many ([]SubmitRequest)
//	GET    /v1/jobs                 — list, filters phase/node/strategy,
//	                                  archived=true merges the archive tier,
//	                                  pagination via limit/continue
//	GET    /v1/jobs/{name}          — fetch one job (falls through to the
//	                                  archive for retired terminal jobs)
//	DELETE /v1/jobs/{name}          — cancel through the full lifecycle
//	GET    /v1/jobs/{name}/logs     — execution result (Fig. 5)
//	GET    /v1/jobs/{name}/events   — the job's event trail
//	GET    /v1/nodes                — list nodes
//	POST   /v1/nodes                — register a vendor backend
//	GET    /v1/nodes/{name}         — fetch one node
//	DELETE /v1/nodes/{name}         — remove a node
//	GET    /v1/score?job=J&backend=B
//	GET    /v1/score/batch?job=J[&backend=B...]
//	GET    /v1/tenants              — per-tenant usage, fair-share weight,
//	                                  quota, submission rate limit
//	PUT    /v1/tenants/{name}       — hot-reload a tenant's weight + quota +
//	                                  rate limit (atomic; durable when
//	                                  -data-dir is on)
//	GET    /v1/events[?about=X]
//	GET    /v1/watch[?kind=job|node][&name=X][&resume=T]  — SSE stream;
//	                                  resume=T replays from a prior
//	                                  stream's token instead of snapshotting;
//	                                  every event carries the object's
//	                                  resource version
//	GET    /v1/admin/durability     — WAL lag, snapshot age, replay stats,
//	                                  latched WAL/spill errors
//	POST   /v1/admin/snapshot       — force a compacted snapshot now
//
// Submissions are charged to a tenant (SubmitRequest.Tenant, defaulted to
// "default") and pass flow control (ratelimit.go: per-tenant arrival rate,
// global in-flight cap, drain gate) and the quota admission layer
// (admission.go) before any expensive work; GET /v1/jobs accepts a tenant
// filter.
//
// Error responses carry machine-readable codes: invalid (400),
// not_found (404), conflict (409), compacted (410), unschedulable (422),
// quota_exceeded and rate_limited (429, with Retry-After), and
// overloaded / draining (503). 429 responses carry a Retry-After header
// with the delta-seconds to wait.
package gateway

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/httpx"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
	"qrio/internal/sched"
)

// SyncEvent marks watch notifications that carry a snapshot of current
// state (sent when a watch opens) rather than a live transition.
const SyncEvent = store.EventType("SYNC")

// JobList is the paginated response of GET /v1/jobs. Continue, when set,
// is the opaque token to pass back to fetch the next page.
type JobList struct {
	Items    []api.QuantumJob `json:"items"`
	Continue string           `json:"continue,omitempty"`
}

// BatchSubmitItem is one entry of the POST /v1/jobs/batch response,
// aligned with the request order: either the accepted job or the
// structured error that rejected it.
type BatchSubmitItem struct {
	Name  string           `json:"name"`
	Job   *api.QuantumJob  `json:"job,omitempty"`
	Error *httpx.ErrorBody `json:"error,omitempty"`
}

// Server serves the /v1 gateway over a running orchestrator.
type Server struct {
	Core *core.QRIO
	// PingInterval spaces SSE keep-alive comments (default 15s).
	PingInterval time.Duration
	// MaxInFlight caps concurrent /v1 requests across the whole surface;
	// excess requests are shed with 503 overloaded. 0 means uncapped.
	MaxInFlight int

	// admission is the tenant quota layer (see admission.go); quotas come
	// from Core.Quotas, live usage from the cluster's tenant index.
	admission admission
	// limiter holds the per-tenant submission token buckets (ratelimit.go).
	limiter rateLimiter
	// inflight counts requests for the MaxInFlight shed and the in-flight
	// gauge.
	inflight atomic.Int64
	// metrics holds the gateway's registered families (metrics.go); nil on
	// an uninstrumented deployment.
	metrics *gwMetrics
}

// New builds a gateway for an orchestrator. The rate limiter shares the
// cluster's clock so virtual-time harnesses drive bucket refills.
func New(q *core.QRIO) *Server {
	s := &Server{Core: q}
	s.limiter.clock = q.State.Clock
	if q.Metrics != nil {
		s.metrics = newGWMetrics(q.Metrics, s)
	}
	return s
}

// Handler returns the /v1 routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{name}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{name}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{name}/logs", s.handleJobLogs)
	mux.HandleFunc("GET /v1/jobs/{name}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/nodes", s.handleListNodes)
	mux.HandleFunc("POST /v1/nodes", s.handleRegisterNode)
	mux.HandleFunc("GET /v1/nodes/{name}", s.handleGetNode)
	mux.HandleFunc("DELETE /v1/nodes/{name}", s.handleDeleteNode)
	mux.HandleFunc("GET /v1/score", s.handleScore)
	mux.HandleFunc("GET /v1/score/batch", s.handleScoreBatch)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("PUT /v1/tenants/{name}", s.handleSetTenant)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/admin/durability", s.handleAdminDurability)
	mux.HandleFunc("POST /v1/admin/snapshot", s.handleAdminSnapshot)
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteError(w, http.StatusNotFound, httpx.CodeNotFound,
			fmt.Errorf("no /v1 route for %s %s", r.Method, r.URL.Path))
	})
	return s.flowControl(s.Barrier(s.instrument(mux)))
}

// Barrier holds every response of next behind the durable log: no byte —
// status line, body or streamed event — leaves the process before
// everything the handler could have read is on disk (state.Cluster.Sync:
// one atomic compare when nothing is pending). In-process observers may
// run one fsync ahead of the disk; this is where that stops. The /v1
// handler carries it; the dashboard wraps itself in it. A no-op without
// durability.
func (s *Server) Barrier(next http.Handler) http.Handler {
	if s.Core.Durability == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&syncedWriter{ResponseWriter: w, state: s.Core.State}, r)
	})
}

type syncedWriter struct {
	http.ResponseWriter
	state *state.Cluster
}

func (w *syncedWriter) WriteHeader(code int) {
	w.state.Sync()
	w.ResponseWriter.WriteHeader(code)
}

func (w *syncedWriter) Write(p []byte) (int, error) {
	w.state.Sync()
	return w.ResponseWriter.Write(p)
}

// Flush keeps the SSE watch handler streaming through the wrapper.
func (w *syncedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// staticFilters are the fleet-invariant admission filters: a job no node
// can ever satisfy on published device characteristics is rejected at
// submit time with the unschedulable code, instead of parking forever in
// the queue. Dynamic conditions (busy slots, committed resources) are
// deliberately excluded — those clear as the fleet drains.
func staticFilters() []sched.FilterPlugin {
	return []sched.FilterPlugin{sched.QubitCount{}, sched.Characteristics{}}
}

// checkSchedulable runs the static admission filters for one request,
// including the circuit-derived qubit demand the Master Server will later
// impose (a 40-qubit circuit is never schedulable on a 27-qubit fleet
// even with no explicit MinQubits). minQubits carries that derived width.
// It stops at the first node that passes, copying none; only a rejection
// lists the fleet, to say why each node refused.
func (s *Server) checkSchedulable(req master.SubmitRequest, minQubits int) error {
	reqs := req.Requirements
	reqs.MinQubits = minQubits
	probe := api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: req.JobName},
		Spec:       api.JobSpec{Requirements: reqs},
	}
	fw := sched.Framework{Filters: staticFilters()}
	fits := false
	s.Core.State.Nodes.Range(func(n api.Node, _ int64) bool {
		fits = fw.Reject(probe, n) == ""
		return !fits
	})
	if fits {
		return nil
	}
	// An empty fleet rejects nothing: it queues jobs until vendors register.
	feasible, rejected := fw.FilterNodes(probe, s.Core.State.Nodes.List())
	if len(feasible) == 0 && len(rejected) > 0 {
		return &sched.UnschedulableError{Job: req.JobName, Rejected: rejected}
	}
	return nil
}

// Submit is the gated intake behind POST /v1/jobs, /v1/jobs/batch and the
// dashboard's form: it validates, applies flow control, admission-checks
// (static schedulability + tenant quota) and submits one request through
// the orchestrator (meta upload + containerisation + cluster submit). The
// tenant is defaulted and validated here: the gateway is the multi-tenant
// front door.
func (s *Server) Submit(req master.SubmitRequest) (api.QuantumJob, error) {
	if req.Tenant == "" {
		req.Tenant = api.DefaultTenant
	}
	if err := req.Validate(); err != nil {
		return api.QuantumJob{}, err
	}
	// Flow control precedes everything else: a draining daemon accepts no
	// new work, and a tenant over its arrival rate is bounced before any
	// parsing, scoring or quota bookkeeping happens on its behalf.
	if s.Core.Draining() {
		s.countShed("draining")
		return api.QuantumJob{}, &DrainingError{}
	}
	if err := s.rateLimit(req.Tenant); err != nil {
		s.countShed("rate_limited")
		return api.QuantumJob{}, err
	}
	// The circuit-derived qubit width feeds both the static filters and
	// the quota accounting. Unparseable QASM is left for the Master
	// Server's intake, which rejects it with the invalid code.
	minQubits := req.Requirements.MinQubits
	if circ, err := qasm.ParseShared(req.QASM); err == nil && minQubits < circ.NumQubits {
		minQubits = circ.NumQubits
	}
	if err := s.checkSchedulable(req, minQubits); err != nil {
		return api.QuantumJob{}, err
	}
	shots := req.Shots
	if shots <= 0 {
		shots = api.DefaultShots // quota pricing parity with master intake
	}
	release, err := s.admission.admit(s.Core.State, s.Core.State.QuotaFor(req.Tenant),
		req.Tenant, api.EstimateQubitSeconds(minQubits, shots))
	if err != nil {
		return api.QuantumJob{}, err
	}
	defer release()
	return s.Core.Submit(req)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req master.SubmitRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid, err)
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		httpx.WriteErr(w, err, http.StatusBadRequest, httpx.CodeInvalid)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, job)
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []master.SubmitRequest
	if err := httpx.DecodeJSON(r, &reqs); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid, err)
		return
	}
	if len(reqs) == 0 {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
			fmt.Errorf("gateway: batch submit needs at least one request"))
		return
	}
	items := make([]BatchSubmitItem, len(reqs))
	for i, req := range reqs {
		items[i].Name = req.JobName
		job, err := s.Submit(req)
		if err != nil {
			status, code := httpx.StatusOf(err)
			if status == 0 {
				code = httpx.CodeInvalid
			}
			items[i].Error = &httpx.ErrorBody{Code: code, Message: err.Error()}
			continue
		}
		items[i].Job = &job
	}
	httpx.WriteJSON(w, http.StatusOK, items)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	phase := api.JobPhase(q.Get("phase"))
	if phase != "" {
		known := false
		for _, p := range api.JobPhases {
			if p == phase {
				known = true
				break
			}
		}
		if !known {
			httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
				fmt.Errorf("gateway: unknown phase %q (one of %v)", phase, api.JobPhases))
			return
		}
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
				fmt.Errorf("gateway: bad limit %q", raw))
			return
		}
		limit = v
	}
	node := q.Get("node")
	strategy := q.Get("strategy")
	tenant := q.Get("tenant")
	if tenant != "" && !api.ValidTenantName(tenant) {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
			fmt.Errorf("gateway: invalid tenant filter %q", tenant))
		return
	}
	archived := false
	if raw := q.Get("archived"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
				fmt.Errorf("gateway: bad archived %q (want true or false)", raw))
			return
		}
		archived = v
	}
	cont := q.Get("continue")

	// Field filters run inside ListFunc so non-matching jobs are never
	// deep-copied; the continue-token cut happens pre-copy as well.
	keep := func(j *api.QuantumJob) bool {
		if cont != "" && j.Name <= cont {
			return false
		}
		if phase != "" && j.Status.Phase != phase {
			return false
		}
		if node != "" && j.Status.Node != node {
			return false
		}
		if strategy != "" && string(j.Spec.Strategy) != strategy {
			return false
		}
		if tenant != "" && state.TenantOf(j) != tenant {
			return false
		}
		return true
	}
	jobs := s.Core.State.Jobs.ListFunc(func(j api.QuantumJob) bool { return keep(&j) })
	if archived {
		// Merge the archive tier in. Continue tokens are job names and both
		// tiers sort by name, so one token paginates seamlessly across the
		// hot/archive boundary — and a job swept between two pages is found
		// in whichever tier the next page's walk reaches. Hot wins the
		// dedupe: during a sweep's copy window an object can briefly exist
		// in both tiers, and the hot copy is authoritative.
		hot := make(map[string]bool, len(jobs))
		for i := range jobs {
			hot[jobs[i].Name] = true
		}
		for _, j := range s.Core.State.Archived.List(keep) {
			if !hot[j.Name] {
				jobs = append(jobs, j)
			}
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Name < jobs[j].Name })
	out := JobList{Items: []api.QuantumJob{}}
	for _, j := range jobs {
		if limit > 0 && len(out.Items) == limit {
			// One more match exists beyond the page: emit the token.
			out.Continue = out.Items[len(out.Items)-1].Name
			break
		}
		out.Items = append(out.Items, j)
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	j, _, err := s.Core.State.Jobs.Get(name)
	if err != nil {
		// Fall through to the archive tier: retention moves terminal jobs
		// out of the hot store, but history stays addressable by name.
		if entry, ok := s.Core.State.Archived.Get(name); ok {
			httpx.WriteJSON(w, http.StatusOK, entry.Job)
			return
		}
		httpx.WriteErr(w, err, http.StatusNotFound, httpx.CodeNotFound)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.Core.Cancel(r.PathValue("name"))
	if err != nil {
		httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, j)
}

func (s *Server) handleJobLogs(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	res, ok := s.Core.State.ResultFor(name)
	if !ok {
		httpx.WriteError(w, http.StatusNotFound, httpx.CodeNotFound,
			fmt.Errorf("no logs for job %q (logs appear once execution finishes)", name))
		return
	}
	httpx.WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, _, err := s.Core.State.Jobs.Get(name); err != nil {
		// Archived jobs keep their event trail as of archival.
		if entry, ok := s.Core.State.Archived.Get(name); ok {
			events := entry.Events
			if events == nil {
				events = []api.Event{}
			}
			httpx.WriteJSON(w, http.StatusOK, events)
			return
		}
		httpx.WriteErr(w, err, http.StatusNotFound, httpx.CodeNotFound)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, s.Core.State.EventsAbout(name))
}

// The node handlers answer with the LIVE last heartbeat and reservations
// (state.LiveNode): the stored objects carry the heartbeat only as of
// registration or the last Ready↔NotReady transition, and no reservations.
func (s *Server) handleListNodes(w http.ResponseWriter, r *http.Request) {
	nodes := s.Core.State.Nodes.List()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	for i := range nodes {
		nodes[i] = s.Core.State.LiveNode(nodes[i])
	}
	httpx.WriteJSON(w, http.StatusOK, nodes)
}

func (s *Server) handleRegisterNode(w http.ResponseWriter, r *http.Request) {
	var b device.Backend
	if err := httpx.DecodeJSON(r, &b); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid, err)
		return
	}
	// Through the orchestrator, not raw state: the backend also reaches
	// the Meta Server and gets a kubelet.
	if err := s.Core.AddBackend(&b); err != nil {
		httpx.WriteErr(w, err, http.StatusBadRequest, httpx.CodeInvalid)
		return
	}
	n, _, err := s.Core.State.Nodes.Get(b.Name)
	if err != nil {
		httpx.WriteErr(w, err, http.StatusInternalServerError, httpx.CodeInternal)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, s.Core.State.LiveNode(n))
}

func (s *Server) handleGetNode(w http.ResponseWriter, r *http.Request) {
	n, _, err := s.Core.State.Nodes.Get(r.PathValue("name"))
	if err != nil {
		httpx.WriteErr(w, err, http.StatusNotFound, httpx.CodeNotFound)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, s.Core.State.LiveNode(n))
}

func (s *Server) handleDeleteNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.Core.State.Nodes.Delete(name); err != nil {
		httpx.WriteErr(w, err, http.StatusNotFound, httpx.CodeNotFound)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	job := r.URL.Query().Get("job")
	backend := r.URL.Query().Get("backend")
	if job == "" || backend == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
			fmt.Errorf("need job and backend query params"))
		return
	}
	score, err := s.Core.Meta.Score(job, backend)
	if err != nil {
		httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]float64{"score": score})
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	job := r.URL.Query().Get("job")
	if job == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
			fmt.Errorf("need job query param"))
		return
	}
	backends := r.URL.Query()["backend"]
	if len(backends) == 0 {
		backends = s.Core.Meta.BackendNames()
		sort.Strings(backends)
	}
	httpx.WriteJSON(w, http.StatusOK, s.Core.Meta.ScoreBatch(job, backends, 0))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	about := r.URL.Query().Get("about")
	var events []api.Event
	if about != "" {
		events = s.Core.State.EventsAbout(about)
	} else {
		events = s.Core.State.Events.List()
		sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	}
	httpx.WriteJSON(w, http.StatusOK, events)
}
