// Versioned health: GET /v1/health reports typed per-component statuses.
// Components are the subsystems an operator pages on — store, scheduler,
// durability, archive, scoring breaker — plus the drain gate; each carries
// a status string and its load-bearing numbers, and the top level rolls
// them up.
package gateway

import (
	"net/http"
	"time"

	"qrio/internal/httpx"
)

// Component status values.
const (
	// StatusOK marks a healthy component (and a healthy overall roll-up).
	StatusOK = "ok"
	// StatusDegraded marks a component running with reduced guarantees: a
	// latched WAL/spill error, or the scoring breaker open.
	StatusDegraded = "degraded"
	// StatusDisabled marks a component the deployment did not enable.
	StatusDisabled = "disabled"
	// StatusDraining is the overall status of a daemon winding down.
	StatusDraining = "draining"
)

// HealthResponse is the GET /v1/health payload.
type HealthResponse struct {
	// Status rolls the components up: "ok", "degraded" (any component
	// degraded) or "draining" (shutdown in progress; trumps degraded — the
	// process is leaving either way).
	Status string `json:"status"`
	// OK is the boolean roll-up simple probes check: true unless a
	// component is degraded. A draining daemon with healthy components
	// stays OK — load balancers rotate on Status instead.
	OK       bool `json:"ok"`
	Draining bool `json:"draining,omitempty"`

	Store      StoreHealth      `json:"store"`
	Scheduler  SchedulerHealth  `json:"scheduler"`
	Durability DurabilityHealth `json:"durability"`
	Archive    ArchiveHealth    `json:"archive"`
	Breaker    BreakerHealth    `json:"breaker"`
}

// StoreHealth reports hot-store residency.
type StoreHealth struct {
	Status string `json:"status"`
	Jobs   int    `json:"jobs"`
	Nodes  int    `json:"nodes"`
}

// SchedulerHealth reports queue depth. Degraded scheduling (meta scoring
// down) shows on the breaker component, not here — the scheduler itself
// keeps binding either way.
type SchedulerHealth struct {
	Status  string `json:"status"`
	Pending int    `json:"pending"`
	Active  int    `json:"active"`
}

// DurabilityHealth summarises crash safety. Status is "disabled" for an
// in-memory deployment, "degraded" while a WAL error is latched (recent
// mutations may not survive a crash), else "ok". The clear fields carry
// the heal history: a latched error healed by a snapshot stays visible
// here after the latch itself is gone.
type DurabilityHealth struct {
	Status     string `json:"status"`
	Enabled    bool   `json:"enabled"`
	OK         bool   `json:"ok"`
	Generation int64  `json:"generation,omitempty"`
	WALRecords int64  `json:"walRecords,omitempty"`
	WALError   string `json:"walError,omitempty"`
	// WALErrorClears counts latched errors healed by snapshots;
	// LastWALErrorClearedAt stamps the latest heal (omitted until one).
	WALErrorClears        int64      `json:"walErrorClears,omitempty"`
	LastWALErrorClearedAt *time.Time `json:"lastWALErrorClearedAt,omitempty"`
}

// ArchiveHealth reports the terminal-history tier: resident entries,
// capacity-evicted entries, and the latched spill error (degraded: the
// archive keeps serving but new spills are not reaching disk).
type ArchiveHealth struct {
	Status     string `json:"status"`
	Resident   int    `json:"resident"`
	Dropped    int    `json:"dropped,omitempty"`
	SpillError string `json:"spillError,omitempty"`
}

// BreakerHealth reports the meta-scoring circuit breaker: its position
// ("closed", "open", "half-open") and lifetime open episodes. Open and
// half-open read as degraded — scheduling continues on stale or
// heuristic scores.
type BreakerHealth struct {
	Status string `json:"status"`
	State  string `json:"state"`
	Opens  int64  `json:"opens,omitempty"`
}

// health assembles the typed payload from the live subsystems.
func (s *Server) health() HealthResponse {
	st := s.Core.State
	h := HealthResponse{
		Draining: s.Core.Draining(),
		Store: StoreHealth{
			Status: StatusOK,
			Jobs:   st.Jobs.Len(),
			Nodes:  st.Nodes.Len(),
		},
		Scheduler: SchedulerHealth{
			Status:  StatusOK,
			Pending: st.PendingCount(),
			Active:  st.ActiveCount(),
		},
	}

	h.Archive = ArchiveHealth{
		Status:   StatusOK,
		Resident: st.Archived.Len(),
		Dropped:  st.Archived.Dropped(),
	}
	if err := st.Archived.SpillErr(); err != nil {
		h.Archive.Status = StatusDegraded
		h.Archive.SpillError = err.Error()
	}

	brState := s.Core.ScorerBreaker.State().String()
	h.Breaker = BreakerHealth{Status: StatusOK, State: brState, Opens: s.Core.ScorerBreaker.Opens()}
	if brState != "closed" {
		h.Breaker.Status = StatusDegraded
	}

	if d := s.Core.Durability; d != nil {
		ds := d.Stats()
		h.Durability = DurabilityHealth{
			Status:         StatusOK,
			Enabled:        true,
			OK:             ds.WALError == "",
			Generation:     ds.Generation,
			WALRecords:     ds.WALRecords,
			WALError:       ds.WALError,
			WALErrorClears: ds.WALErrorClears,
		}
		if !ds.LastWALErrorClearedAt.IsZero() {
			t := ds.LastWALErrorClearedAt
			h.Durability.LastWALErrorClearedAt = &t
		}
		if ds.WALError != "" {
			h.Durability.Status = StatusDegraded
		}
	} else {
		h.Durability = DurabilityHealth{Status: StatusDisabled, OK: true}
	}

	h.OK = h.Durability.Status != StatusDegraded &&
		h.Archive.Status != StatusDegraded &&
		h.Breaker.Status != StatusDegraded
	switch {
	case h.Draining:
		h.Status = StatusDraining
	case !h.OK:
		h.Status = StatusDegraded
	default:
		h.Status = StatusOK
	}
	return h
}

// handleHealth serves GET /v1/health.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, s.health())
}
