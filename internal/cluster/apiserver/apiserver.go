// Package apiserver exposes the cluster state over REST — the QRIO master
// node's API surface that the Master Server, Visualizer and qrioctl talk
// to. All circuit payloads travel as QASM strings inside JSON, so the
// whole control plane is usable without any quantum SDK on the client.
package apiserver

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/device"
	"qrio/internal/httpx"
)

// Server serves the cluster API.
type Server struct {
	State *state.Cluster
}

// New builds an API server over cluster state.
func New(st *state.Cluster) *Server { return &Server{State: st} }

// Handler returns the REST routes:
//
//	GET  /healthz
//	GET  /api/v1/nodes              GET /api/v1/nodes/{name}
//	POST /api/v1/nodes              — register a vendor backend as a node
//	GET  /api/v1/jobs               GET /api/v1/jobs/{name}
//	POST /api/v1/jobs               — direct job submission (prefer the
//	                                  Master Server, which containerises)
//	GET  /api/v1/jobs/{name}/logs   — execution result (Fig. 5)
//	GET  /api/v1/events?about=X
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]any{
			"ok":    true,
			"nodes": s.State.Nodes.Len(),
			"jobs":  s.State.Jobs.Len(),
		})
	})
	mux.HandleFunc("/api/v1/nodes", s.handleNodes)
	mux.HandleFunc("/api/v1/nodes/", s.handleNode)
	mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	mux.HandleFunc("/api/v1/events", s.handleEvents)
	return mux
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		nodes := s.State.Nodes.List()
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
		for i := range nodes {
			nodes[i] = s.State.LiveNode(nodes[i])
		}
		httpx.WriteJSON(w, http.StatusOK, nodes)
	case http.MethodPost:
		var b device.Backend
		if err := httpx.DecodeJSON(r, &b); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid, err)
			return
		}
		n, err := s.State.AddNode(&b)
		if err != nil {
			httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
			return
		}
		httpx.WriteJSON(w, http.StatusCreated, n)
	default:
		httpx.MethodNotAllowed(w, r)
	}
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/v1/nodes/")
	if name == "" || strings.Contains(name, "/") {
		httpx.WriteError(w, http.StatusNotFound, httpx.CodeNotFound, fmt.Errorf("unknown path %q", r.URL.Path))
		return
	}
	switch r.Method {
	case http.MethodGet:
		n, _, err := s.State.Nodes.Get(name)
		if err != nil {
			httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, s.State.LiveNode(n))
	case http.MethodDelete:
		if err := s.State.Nodes.Delete(name); err != nil {
			httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
	default:
		httpx.MethodNotAllowed(w, r)
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		jobs := s.State.Jobs.List()
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].Name < jobs[j].Name })
		httpx.WriteJSON(w, http.StatusOK, jobs)
	case http.MethodPost:
		var j api.QuantumJob
		if err := httpx.DecodeJSON(r, &j); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid, err)
			return
		}
		if err := s.State.SubmitJob(j); err != nil {
			httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
			return
		}
		stored, _, _ := s.State.Jobs.Get(j.Name)
		httpx.WriteJSON(w, http.StatusCreated, stored)
	default:
		httpx.MethodNotAllowed(w, r)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	if name, ok := strings.CutSuffix(rest, "/logs"); ok && name != "" {
		if r.Method != http.MethodGet {
			httpx.MethodNotAllowed(w, r)
			return
		}
		res, ok := s.State.ResultFor(name)
		if !ok {
			httpx.WriteError(w, http.StatusNotFound, httpx.CodeNotFound,
				fmt.Errorf("no logs for job %q (logs appear once execution finishes)", name))
			return
		}
		httpx.WriteJSON(w, http.StatusOK, res)
		return
	}
	name := rest
	if name == "" || strings.Contains(name, "/") {
		httpx.WriteError(w, http.StatusNotFound, httpx.CodeNotFound, fmt.Errorf("unknown path %q", r.URL.Path))
		return
	}
	switch r.Method {
	case http.MethodGet:
		j, _, err := s.State.Jobs.Get(name)
		if err != nil {
			httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, j)
	case http.MethodDelete:
		// Deleting a Scheduled/Running job would orphan its node
		// reservation (ReleaseNode can no longer look up the job's
		// resources). Force the cancel path (/v1) first; pending and
		// terminal jobs hold no reservation and delete freely.
		if j, _, err := s.State.Jobs.Get(name); err == nil {
			if p := j.Status.Phase; p == api.JobScheduled || p == api.JobRunning {
				httpx.WriteError(w, http.StatusConflict, httpx.CodeConflict,
					fmt.Errorf("job %s is %s and holds a node reservation; cancel it first", name, p))
				return
			}
		}
		if err := s.State.Jobs.Delete(name); err != nil {
			httpx.WriteErr(w, err, http.StatusUnprocessableEntity, httpx.CodeInvalid)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
	default:
		httpx.MethodNotAllowed(w, r)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpx.MethodNotAllowed(w, r)
		return
	}
	about := r.URL.Query().Get("about")
	var events []api.Event
	if about != "" {
		events = s.State.EventsAbout(about)
	} else {
		events = s.State.Events.List()
		sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	}
	httpx.WriteJSON(w, http.StatusOK, events)
}
