// Gateway flow control: a global in-flight cap sheds excess concurrent
// requests across the whole /v1 surface (503 overloaded). It is the
// gateway's own gate; the per-tenant rate limit and the drain gate belong
// to the orchestrator's intake (core.QRIO.Submit).
package gateway

import (
	"fmt"
	"net/http"
	"time"

	"qrio/internal/httpx"
)

// OverloadedError sheds a request over the gateway's global in-flight
// cap: HTTP 503 with the overloaded code. Shedding is instantaneous
// backpressure — the client should back off and retry.
type OverloadedError struct{ InFlight, Max int }

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("gateway: %d requests in flight at cap %d", e.InFlight, e.Max)
}

// HTTPStatus implements httpx.StatusCoder.
func (e *OverloadedError) HTTPStatus() (int, string) { return 503, httpx.CodeOverloaded }

// RetryAfter implements httpx.RetryAfterer.
func (e *OverloadedError) RetryAfter() time.Duration { return time.Second }

// flowControl wraps the /v1 mux with the global in-flight cap. It is
// deliberately outermost and O(1): shedding must stay cheap exactly when
// the gateway is busiest.
func (s *Server) flowControl(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// In-flight is counted unconditionally (two atomic ops): the
		// qrio_gateway_inflight_requests gauge reads it even on gateways
		// that never shed.
		n := s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if max := s.MaxInFlight; max > 0 && n > int64(max) {
			s.countShed("overloaded")
			httpx.WriteErr(w, &OverloadedError{InFlight: int(n), Max: max},
				http.StatusServiceUnavailable, httpx.CodeOverloaded)
			return
		}
		next.ServeHTTP(w, r)
	})
}
