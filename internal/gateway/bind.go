package gateway

import (
	"fmt"
	"net/http"

	"qrio/internal/httpx"
)

// BindRequest is the body of POST /v1/bind: the scheduler-replica binding
// verb. Version, when > 0, makes the bind version-conditional — it
// commits only if the job's resource version (as observed in the
// replica's watch feed) is unchanged, and loses with 409 conflict
// otherwise. Version 0 binds unconditionally (the phase checks still
// apply); out-of-process replicas should always send the version they
// observed, which is what makes N of them safe against one queue.
type BindRequest struct {
	Job     string  `json:"job"`
	Node    string  `json:"node"`
	Score   float64 `json:"score,omitempty"`
	Version int64   `json:"version,omitempty"`
}

// handleBind places one pending job on one node through the optimistic
// bind transaction. Three outcomes, the same three the in-process
// dispatcher acts on (sched.BindOutcome):
//
//	200                  — bound; the body is the job
//	409 conflict         — the job moved (lost version race, cancelled,
//	                       already bound): drop it, the node is still good
//	409 node_unavailable — the node refused (not ready, no slot, no CPU
//	                       or memory): try the next candidate
//
// An unknown job is 404 not_found. None of them is worth a retry.
func (s *Server) handleBind(w http.ResponseWriter, r *http.Request) {
	var req BindRequest
	if err := httpx.DecodeJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid, err)
		return
	}
	if req.Job == "" || req.Node == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
			fmt.Errorf("gateway: bind needs both job and node"))
		return
	}
	if req.Version < 0 {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
			fmt.Errorf("gateway: bind version must be >= 0, got %d", req.Version))
		return
	}
	if err := s.Core.State.BindJobAt(req.Job, req.Node, req.Score, req.Version); err != nil {
		// Every BindJobAt refusal is typed (ConflictError, CapacityError,
		// ErrNotFound) and carries its own status.
		httpx.WriteErr(w, err, http.StatusInternalServerError, httpx.CodeInternal)
		return
	}
	job, _, err := s.Core.State.Jobs.Get(req.Job)
	if err != nil {
		httpx.WriteErr(w, err, http.StatusInternalServerError, httpx.CodeInternal)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, job)
}
